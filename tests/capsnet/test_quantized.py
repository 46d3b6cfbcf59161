"""Unit tests for the 8-bit quantized CapsuleNet."""

import numpy as np
import pytest

from repro.capsnet.model import CapsuleNet
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.errors import ShapeError


class TestForward:
    def test_runs_and_shapes(self, tiny_qnet, tiny_config, tiny_images):
        out = tiny_qnet.forward(tiny_images[0])
        assert out.class_caps_raw.shape == (
            tiny_config.classcaps.num_classes,
            tiny_config.classcaps.out_dim,
        )
        assert out.coupling_raw.shape == (
            tiny_config.num_primary_capsules,
            tiny_config.classcaps.num_classes,
        )
        assert out.length_sumsq_raw.shape == (tiny_config.classcaps.num_classes,)

    def test_deterministic(self, tiny_qnet, tiny_images):
        a = tiny_qnet.forward(tiny_images[0])
        b = tiny_qnet.forward(tiny_images[0])
        assert np.array_equal(a.class_caps_raw, b.class_caps_raw)

    def test_no_saturation_on_typical_input(self, tiny_qnet, tiny_images):
        out = tiny_qnet.forward(tiny_images[0])
        assert out.saturation.rate < 0.001

    def test_wrong_image_shape_raises(self, tiny_qnet):
        with pytest.raises(ShapeError):
            tiny_qnet.forward(np.zeros((7, 7)))

    def test_class_caps_real_view_in_range(self, tiny_qnet, tiny_images):
        caps = tiny_qnet.forward(tiny_images[0]).class_caps
        assert np.abs(caps).max() <= tiny_qnet.formats.caps_data.max_value


class TestAgainstFloat:
    def test_class_capsules_close_to_float(self, tiny_config, tiny_weights, tiny_qnet, tiny_images):
        fnet = CapsuleNet(tiny_config, weights=tiny_weights)
        for image in tiny_images[:2]:
            fout = fnet.forward(image)
            qout = tiny_qnet.forward(image)
            assert np.max(np.abs(qout.class_caps - fout.class_capsules)) < 0.12

    def test_primary_capsules_close_to_float(self, tiny_config, tiny_weights, tiny_qnet, tiny_images):
        fnet = CapsuleNet(tiny_config, weights=tiny_weights)
        fout = fnet.forward(tiny_images[0])
        qout = tiny_qnet.forward(tiny_images[0])
        assert np.max(np.abs(qout.primary_capsules - fout.primary_capsules)) < 0.1

    def test_predictions_mostly_agree(self, tiny_config, tiny_weights, tiny_qnet, tiny_images):
        fnet = CapsuleNet(tiny_config, weights=tiny_weights)
        agreements = [
            fnet.predict(image) == tiny_qnet.predict(image) for image in tiny_images
        ]
        assert sum(agreements) >= len(tiny_images) - 1


class TestRoutingOptimization:
    def test_optimized_equals_textbook_bitexact(self, tiny_config, tiny_weights, tiny_images):
        optimized = QuantizedCapsuleNet(tiny_config, weights=tiny_weights, optimized_routing=True)
        textbook = QuantizedCapsuleNet(tiny_config, weights=tiny_weights, optimized_routing=False)
        a = optimized.forward(tiny_images[0])
        b = textbook.forward(tiny_images[0])
        assert np.array_equal(a.class_caps_raw, b.class_caps_raw)
        assert np.array_equal(a.coupling_raw, b.coupling_raw)

    def test_uniform_code_matches_hw_softmax_of_zeros(self, tiny_qnet):
        num_out = tiny_qnet.config.classcaps.num_classes
        code = tiny_qnet._uniform_coupling_code(num_out)
        from repro.capsnet.hwops import hw_softmax

        zeros = np.zeros((1, num_out), dtype=np.int64)
        reference = hw_softmax(zeros, tiny_qnet.luts, tiny_qnet.formats, axis=1)
        assert np.all(reference == code)


class TestWeightQuantization:
    def test_raw_weights_within_format(self, tiny_qnet):
        fmts = tiny_qnet.formats
        assert np.abs(tiny_qnet.raw_weights["conv1_w"]).max() <= fmts.conv1_weight.raw_max
        assert np.abs(tiny_qnet.raw_weights["classcaps_w"]).max() <= fmts.classcaps_weight.raw_max

    def test_quantization_error_bounded(self, tiny_config, tiny_weights, tiny_qnet):
        fmts = tiny_qnet.formats
        from repro.fixedpoint.quantize import from_raw

        got = from_raw(tiny_qnet.raw_weights["conv1_w"], fmts.conv1_weight)
        clipped = np.clip(
            tiny_weights["conv1_w"], fmts.conv1_weight.min_value, fmts.conv1_weight.max_value
        )
        assert np.max(np.abs(got - clipped)) <= fmts.conv1_weight.resolution / 2 + 1e-12


class TestQuantizedBatchPredict:
    def test_batch_matches_singles(self, tiny_qnet, tiny_images):
        batch = tiny_qnet.predict_batch(tiny_images)
        singles = [tiny_qnet.predict(image) for image in tiny_images]
        assert list(batch) == singles
