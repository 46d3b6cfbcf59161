"""Per-layer cycle pricing of the compiled CapsNet program.

The closed-form accounting of :mod:`repro.compiler.cost` as the paper
figures read it: GEMM and activation cycles per compiled layer plus the
routing steps' bulk buffer transfers.
"""

import pytest

from repro.compiler.cost import program_layers, program_transfer_cycles
from repro.hw.activation import ActivationMode, batched_activation_latency
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import (
    capsacc_layer_cycles,
    capsacc_program,
    routing_step_times_us,
)


@pytest.fixture(scope="module")
def config():
    return AcceleratorConfig()


@pytest.fixture(scope="module")
def program(mnist_config):
    return capsacc_program(mnist_config)


@pytest.fixture(scope="module")
def layers(config, program):
    return program_layers(config, program, 1)


class TestStagePerformance:
    def test_gemm_only_stage(self, layers):
        report = layers["classcaps_fc"]
        assert report.gemm_cycles > 0
        assert report.stats.activation_cycles == 0
        assert report.stats.total_cycles == report.gemm_cycles

    def test_count_multiplies(self, config, program, layers):
        # Routing GEMMs have per-image weights: a batch of 3 runs 3x the jobs.
        triple = program_layers(config, program, 3)
        assert triple["sum1"].gemm_cycles == 3 * layers["sum1"].gemm_cycles

    def test_activation_uses_units(self, config, layers):
        # Capsule squashes serialize through one unit; ReLU spreads over
        # the per-column units.
        squash = layers["primarycaps"].stats.activation_cycles
        assert squash == batched_activation_latency(ActivationMode.SQUASH, 8, 1152, 1)
        assert squash == 16 * batched_activation_latency(
            ActivationMode.SQUASH, 8, 1152, config.cols
        )
        assert layers["conv1"].stats.activation_cycles == batched_activation_latency(
            ActivationMode.RELU, 1, 400 * 256, config.cols
        )

    def test_transfer_cycles(self, config, program):
        # Ten squashed 16-D capsules: 160 words over the 16-word bus.
        assert program_transfer_cycles(config, program, 1)["squash1"] == 10

    def test_time_conversion(self, config):
        steps = routing_step_times_us({"load": 250}, config.clock_mhz)
        assert steps == {"Load": pytest.approx(1.0)}

    def test_utilization_bounds(self, config, layers):
        report = layers["primarycaps"]
        util = report.stats.mac_count / (report.overlapped_cycles * config.num_pes)
        assert 0.5 < util <= 1.0  # big conv keeps the array mostly busy

    def test_conv1_mnist_cycles(self, config, layers):
        report = layers["conv1"]
        assert report.overlapped_cycles >= report.stats.mac_count / config.num_pes
        # Known value for the compiled mapping: 96 tiles x 400 + overheads.
        gemm = report.overlapped_cycles - report.stats.activation_cycles
        assert gemm == 96 * 400 + 17 + 31

    def test_fc_stage_weight_bound(self, mnist_config):
        # The FC stage must at least ingest every weight over the 16-wide
        # weight port: 1,474,560 / 16 cycles.
        assert capsacc_layer_cycles(mnist_config)["classcaps_fc"] >= 1474560 // 16

    def test_load_stage_pure_transfer(self, config, program, layers, mnist_config):
        assert "load" not in layers
        transfer = program_transfer_cycles(config, program, 1)["load"]
        assert capsacc_layer_cycles(mnist_config)["load"] == transfer > 0


class TestStageAccesses:
    def test_conv_stage_traffic(self, layers):
        stats = layers["conv1"].stats
        assert stats.accesses["weight_buffer.read"] == 81 * 256
        assert stats.accesses["data_buffer.read"] == 400 * 81 * 16
        assert stats.mac_count == 400 * 81 * 256

    def test_feedback_sources_free(self, layers):
        stats = layers["update1"].stats
        assert "data_buffer.read" not in stats.accesses
        assert "routing_buffer.read" in stats.accesses
