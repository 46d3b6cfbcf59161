"""Integration tests: the mapped accelerator execution is bit-identical to
the quantized reference (the paper's functional-compliance claim)."""

import numpy as np
import pytest

from repro.hw.accelerator import CapsAccAccelerator
from repro.hw.config import AcceleratorConfig
from repro.mapping.execute import MappedInference


@pytest.fixture(scope="module")
def mapped(tiny_qnet):
    return MappedInference(tiny_qnet)


@pytest.fixture(scope="module")
def reference_and_mapped(tiny_qnet, mapped, tiny_images):
    image = tiny_images[0]
    return tiny_qnet.forward(image), mapped.run(image)


class TestBitExactness:
    def test_conv1_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.conv1_raw, reference.conv1_out_raw)

    def test_primary_capsules_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.primary_raw, reference.primary_raw)

    def test_u_hat_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.u_hat_raw, reference.u_hat_raw)

    def test_class_capsules_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.class_caps_raw, reference.class_caps_raw)

    def test_coupling_coefficients_bit_exact(self, reference_and_mapped):
        reference, result = reference_and_mapped
        assert np.array_equal(result.coupling_raw, reference.coupling_raw)

    def test_multiple_images(self, tiny_qnet, mapped, tiny_images):
        for image in tiny_images[1:3]:
            reference = tiny_qnet.forward(image)
            result = mapped.run(image)
            assert np.array_equal(result.class_caps_raw, reference.class_caps_raw)


class TestSteppedEngine:
    def test_stepped_engine_bit_exact_on_small_array(self, tiny_qnet, tiny_images):
        """Full end-to-end inference on the clock-edge-accurate engine."""
        accel = CapsAccAccelerator(AcceleratorConfig(rows=8, cols=8), tiny_qnet.formats)
        mapped = MappedInference(tiny_qnet, accelerator=accel, engine="stepped")
        reference = tiny_qnet.forward(tiny_images[0])
        result = mapped.run(tiny_images[0])
        assert np.array_equal(result.class_caps_raw, reference.class_caps_raw)
        assert np.array_equal(result.coupling_raw, reference.coupling_raw)


class TestStatistics:
    def test_stage_stats_present(self, reference_and_mapped):
        _, result = reference_and_mapped
        for stage in ("conv1", "primarycaps", "classcaps_fc", "sum1", "update1"):
            assert stage in result.stage_stats

    def test_total_stats_aggregate(self, reference_and_mapped):
        _, result = reference_and_mapped
        total = result.total_stats
        assert total.total_cycles == sum(
            stats.total_cycles for stats in result.stage_stats.values()
        )
        assert total.mac_count > 0

    def test_sum_stages_use_feedback_after_first_iteration(self, reference_and_mapped):
        _, result = reference_and_mapped
        # Iteration 1 streams predictions from the data buffer...
        assert any(
            key.startswith("data_buffer") for key in result.stage_stats["sum1"].accesses
        )
        # ...later iterations reuse them through the feedback path.
        assert not any(
            key.startswith("data_buffer") for key in result.stage_stats["sum2"].accesses
        )

    def test_mac_counts_match_shapes(self, reference_and_mapped, tiny_config):
        from repro.compiler.cost import program_layers
        from repro.perf.compare import capsacc_program

        _, result = reference_and_mapped
        priced = program_layers(AcceleratorConfig(), capsacc_program(tiny_config), 1)
        assert (
            result.stage_stats["classcaps_fc"].mac_count
            == priced["classcaps_fc"].stats.mac_count
        )

    def test_different_array_sizes_same_results(self, tiny_qnet, tiny_images):
        small = MappedInference(
            tiny_qnet, CapsAccAccelerator(AcceleratorConfig(rows=4, cols=4), tiny_qnet.formats)
        )
        large = MappedInference(
            tiny_qnet, CapsAccAccelerator(AcceleratorConfig(rows=32, cols=32), tiny_qnet.formats)
        )
        a = small.run(tiny_images[0])
        b = large.run(tiny_images[0])
        assert np.array_equal(a.class_caps_raw, b.class_caps_raw)
        # But cycle costs differ.
        assert a.total_stats.total_cycles != b.total_stats.total_cycles
