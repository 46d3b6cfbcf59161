"""Integration tests: the compiled CapsNet program executed on the accelerator
is bit-identical to the quantized reference (the paper's
functional-compliance claim), one image at a time."""

import numpy as np
import pytest

from repro.compiler.executor import StreamExecutor
from repro.hw.accelerator import CapsAccAccelerator
from repro.hw.config import AcceleratorConfig
from tests.conftest import assert_matches_golden


@pytest.fixture(scope="module")
def executor(tiny_qnet):
    return StreamExecutor.for_network(tiny_qnet)


@pytest.fixture(scope="module")
def reference_and_mapped(tiny_qnet, executor, tiny_images):
    return tiny_qnet.forward(tiny_images[0]), executor.run_batch(tiny_images[:1])


class TestBitExactness:
    def test_conv1_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.conv1_raw[0], reference.conv1_out_raw)

    def test_primary_capsules_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.primary_raw[0], reference.primary_raw)

    def test_u_hat_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.u_hat_raw[0], reference.u_hat_raw)

    def test_class_capsules_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.class_caps_raw[0], reference.class_caps_raw)

    def test_coupling_coefficients_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.coupling_raw[0], reference.coupling_raw)

    def test_multiple_images(self, tiny_qnet, executor, tiny_images):
        for image in tiny_images[1:3]:
            result = executor.run_batch(image[np.newaxis])
            assert_matches_golden(result, 0, tiny_qnet.forward(image))


class TestSteppedEngine:
    def test_stepped_engine_bit_exact_on_small_array(self, tiny_qnet, tiny_images):
        """Full end-to-end inference on the clock-edge-accurate engine."""
        accel = CapsAccAccelerator(AcceleratorConfig(rows=8, cols=8), tiny_qnet.formats)
        stepped = StreamExecutor.for_network(tiny_qnet, accelerator=accel, engine="stepped")
        result = stepped.run_batch(tiny_images[:1])
        assert_matches_golden(result, 0, tiny_qnet.forward(tiny_images[0]))


class TestStatistics:
    def test_stage_stats_present(self, reference_and_mapped):
        _, result = reference_and_mapped
        for stage in ("conv1", "primarycaps", "classcaps_fc", "sum1", "update1"):
            assert stage in result.layers

    def test_total_stats_aggregate(self, reference_and_mapped):
        _, result = reference_and_mapped
        total = result.total_stats
        assert total.total_cycles == sum(
            report.stats.total_cycles for report in result.layers.values()
        )
        assert total.mac_count > 0

    def test_sum_stages_use_feedback_after_first_iteration(self, reference_and_mapped):
        _, result = reference_and_mapped
        # Iteration 1 streams predictions from the data buffer...
        assert any(
            key.startswith("data_buffer") for key in result.layers["sum1"].stats.accesses
        )
        # ...later iterations reuse them through the feedback path.
        for stage in ("sum2", "sum3"):
            assert not any(
                key.startswith("data_buffer")
                for key in result.layers[stage].stats.accesses
            )

    def test_mac_counts_match_shapes(self, reference_and_mapped, tiny_config):
        """One MAC per ClassCaps weight per image."""
        _, result = reference_and_mapped
        stats = result.layers["classcaps_fc"].stats
        assert stats.mac_count == tiny_config.classcaps_weight_count

    def test_different_array_sizes_same_results(self, tiny_qnet, tiny_images):
        small = StreamExecutor.for_network(
            tiny_qnet, CapsAccAccelerator(AcceleratorConfig(rows=4, cols=4), tiny_qnet.formats)
        )
        large = StreamExecutor.for_network(
            tiny_qnet, CapsAccAccelerator(AcceleratorConfig(rows=32, cols=32), tiny_qnet.formats)
        )
        a = small.run_batch(tiny_images[:1])
        b = large.run_batch(tiny_images[:1])
        assert np.array_equal(a.class_caps_raw, b.class_caps_raw)
        # But cycle costs differ.
        assert a.total_stats.total_cycles != b.total_stats.total_cycles
