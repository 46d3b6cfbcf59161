"""Robustness and failure-injection tests.

The simulator must behave sanely at the edges of its operating envelope:
degenerate images, weights at format limits, saturating accumulations, and
misconfigured schedules must either produce well-defined clamped results or
raise package errors — never silently corrupt state.
"""

import numpy as np
import pytest

from repro.capsnet.hwops import QuantizedFormats, chunked_saturating_matmul
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.capsnet.weights import pseudo_trained_weights
from repro.compiler.executor import StreamExecutor
from repro.errors import ReproError
from repro.hw.accelerator import CapsAccAccelerator, plan_tiling
from repro.hw.config import AcceleratorConfig
from tests.conftest import assert_matches_golden

FMTS = QuantizedFormats()


class TestDegenerateImages:
    def test_all_black_image(self, tiny_qnet, tiny_config):
        image = np.zeros((tiny_config.image_size, tiny_config.image_size))
        out = tiny_qnet.forward(image)
        # Zero input with zero biases: conv output is exactly zero.
        assert np.all(out.conv1_out_raw == 0)
        assert out.prediction in range(tiny_config.classcaps.num_classes)

    def test_all_white_image(self, tiny_qnet, tiny_config):
        image = np.ones((tiny_config.image_size, tiny_config.image_size))
        out = tiny_qnet.forward(image)
        assert out.prediction in range(tiny_config.classcaps.num_classes)

    def test_out_of_range_pixels_clamped(self, tiny_qnet, tiny_config):
        image = np.full((tiny_config.image_size, tiny_config.image_size), 100.0)
        out = tiny_qnet.forward(image)
        assert np.abs(out.class_caps_raw).max() <= FMTS.caps_data.raw_max

    def test_negative_pixels_clamped_not_crash(self, tiny_qnet, tiny_config):
        image = np.full((tiny_config.image_size, tiny_config.image_size), -5.0)
        out = tiny_qnet.forward(image)
        assert out.length_sumsq_raw.shape == (tiny_config.classcaps.num_classes,)


class TestExtremeWeights:
    def test_saturating_weights_clamped_at_format_limits(self, tiny_config, tiny_images):
        weights = pseudo_trained_weights(tiny_config, seed=1)
        weights = {key: value * 100.0 for key, value in weights.items()}
        qnet = QuantizedCapsuleNet(tiny_config, weights=weights)
        # Quantization clamps the oversized weights at the format limits.
        assert qnet.raw_weights["conv1_w"].max() == FMTS.conv1_weight.raw_max
        assert qnet.raw_weights["conv1_w"].min() == FMTS.conv1_weight.raw_min
        out = qnet.forward(tiny_images[0])
        assert np.abs(out.class_caps_raw).max() <= FMTS.caps_data.raw_max

    def test_accumulator_saturation_is_counted(self, tiny_config):
        """At MNIST-like contraction depths, worst-case operands overflow
        the 25-bit accumulator and the counter must record it."""
        from repro.capsnet.hwops import SaturationCounter, quantized_matmul

        acc_fmt = FMTS.acc(FMTS.conv1_out, FMTS.primary_weight)
        depth = 20736  # the PrimaryCaps contraction length
        data = np.full((1, depth), 127, dtype=np.int64)
        weights = np.full((depth, 1), 127, dtype=np.int64)
        counter = SaturationCounter()
        out = quantized_matmul(data, weights, acc_fmt, counter, site="worst")
        assert counter.events == 1
        assert out[0, 0] == acc_fmt.raw_max

    def test_zero_weights_zero_capsules(self, tiny_config, tiny_images):
        weights = pseudo_trained_weights(tiny_config, seed=1)
        weights = {key: np.zeros_like(value) for key, value in weights.items()}
        qnet = QuantizedCapsuleNet(tiny_config, weights=weights)
        out = qnet.forward(tiny_images[0])
        assert np.all(out.class_caps_raw == 0)
        assert np.all(out.length_sumsq_raw == 0)

    def test_saturated_network_still_bit_exact_on_accelerator(
        self, tiny_config, tiny_images
    ):
        """Saturation must clamp identically in reference and hardware."""
        weights = pseudo_trained_weights(tiny_config, seed=1)
        weights["classcaps_w"] = weights["classcaps_w"] * 50.0
        qnet = QuantizedCapsuleNet(tiny_config, weights=weights)
        result = StreamExecutor.for_network(qnet).run_batch(tiny_images[:1])
        assert_matches_golden(result, 0, qnet.forward(tiny_images[0]))


class TestAcceleratorEdges:
    def test_gemm_at_accumulator_limit_clamps(self, rng):
        config = AcceleratorConfig(rows=4, cols=4)
        acc_fmt = FMTS.acc(FMTS.caps_data, FMTS.classcaps_weight)
        data = np.full((1, 3000), 127, dtype=np.int64)
        weights = np.full((3000, 1), 127, dtype=np.int64)
        acc = chunked_saturating_matmul(data, weights, acc_fmt, config.rows)
        assert acc[0, 0] == acc_fmt.raw_max

    def test_one_by_one_array(self, rng):
        config = AcceleratorConfig(rows=1, cols=1)
        accel = CapsAccAccelerator(config)
        acc_fmt = FMTS.acc(FMTS.caps_data, FMTS.classcaps_weight)
        data = rng.integers(-50, 50, size=(5, 7))
        weights = rng.integers(-50, 50, size=(7, 2))
        expected = np.clip(
            data.astype(np.int64) @ weights, acc_fmt.raw_min, acc_fmt.raw_max
        )
        fast = chunked_saturating_matmul(data, weights, acc_fmt, config.rows)
        stepped = accel.stepped_gemm(
            data, weights, FMTS.caps_data, FMTS.classcaps_weight, acc_fmt,
            plan_tiling(config, 5, 7, 2),
        )
        assert np.array_equal(fast, expected)
        assert np.array_equal(stepped, expected)

    def test_wide_rectangular_array(self, rng):
        config = AcceleratorConfig(rows=2, cols=16)
        accel = CapsAccAccelerator(config)
        acc_fmt = FMTS.acc(FMTS.caps_data, FMTS.classcaps_weight)
        data = rng.integers(-50, 50, size=(3, 5))
        weights = rng.integers(-50, 50, size=(5, 20))
        stepped = accel.stepped_gemm(
            data, weights, FMTS.caps_data, FMTS.classcaps_weight, acc_fmt,
            plan_tiling(config, 3, 5, 20),
        )
        expected = np.clip(
            data.astype(np.int64) @ weights, acc_fmt.raw_min, acc_fmt.raw_max
        )
        assert np.array_equal(stepped, expected)


class TestErrorPropagation:
    def test_every_failure_is_a_repro_error(self, tiny_qnet):
        failures = []
        try:
            tiny_qnet.forward(np.zeros((3, 3)))
        except Exception as exc:  # noqa: BLE001 - asserting the type below
            failures.append(exc)
        from repro.data.synthetic import SyntheticDigits

        try:
            SyntheticDigits().generate(-1)
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)
        assert failures
        assert all(isinstance(exc, ReproError) for exc in failures)

    def test_corrupt_schedule_rejected(self, rng):
        acc_fmt = FMTS.acc(FMTS.caps_data, FMTS.classcaps_weight)
        data = rng.integers(-5, 5, size=(2, 3))
        weights = rng.integers(-5, 5, size=(7, 2))  # K mismatch
        with pytest.raises(ReproError):
            chunked_saturating_matmul(data, weights, acc_fmt, 4)
