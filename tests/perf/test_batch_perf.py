"""Batch pricing of the compiled CapsNet program.

Weight-shared GEMMs stack a batch into one stream (tile loads amortize),
per-image-weight routing GEMMs repeat per image, and activations and bulk
transfers scale linearly.
"""

import pytest

from repro.compiler.cost import (
    program_events,
    program_layers,
    program_stats,
    program_transfer_cycles,
)
from repro.compiler.isa import Opcode
from repro.errors import MappingError
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import capsacc_layer_cycles, capsacc_program

CONFIG = AcceleratorConfig()


@pytest.fixture(scope="module")
def program(mnist_config):
    return capsacc_program(mnist_config)


def _total(cycles: dict[str, int]) -> int:
    return sum(cycles.values())


def _utilization(program, batch: int, cycles: dict[str, int]) -> float:
    macs = program_stats(CONFIG, program, batch).mac_count
    return macs / (_total(cycles) * CONFIG.num_pes)


class TestBatchStage:
    def test_weight_shared_stages_stack_into_stream(self, program):
        def gemms(batch):
            return {e.name: e for e in program_events(CONFIG, program, batch) if e.kind == "gemm"}

        one, batched = gemms(1), gemms(8)
        assert batched["conv1"].plan.m == 8 * one["conv1"].plan.m
        assert batched["conv1"].groups == one["conv1"].groups == 1
        layers = program_layers(CONFIG, program, 1)
        assert program_layers(CONFIG, program, 8)["conv1"].stats.activation_cycles == (
            8 * layers["conv1"].stats.activation_cycles
        )
        fc = gemms(4)["classcaps_fc"]
        assert (fc.plan.m, fc.groups) == (4, 1)
        assert program_layers(CONFIG, program, 4)["classcaps_fc"].jobs == 1152

    def test_per_image_weight_stages_replicate(self, program):
        one = program_layers(CONFIG, program, 1)
        batched = program_layers(CONFIG, program, 8)
        for layer in ("sum1", "update1"):
            instr = next(i for i in program.instructions if i.layer == layer)
            assert instr.opcode is Opcode.GROUPED_GEMM
            assert batched[layer].gemm_cycles == 8 * one[layer].gemm_cycles

    def test_macs_scale_linearly(self, program):
        one = program_layers(CONFIG, program, 1)["primarycaps"]
        assert program_layers(CONFIG, program, 8)["primarycaps"].stats.mac_count == (
            8 * one.stats.mac_count
        )

    def test_transfers_scale_linearly(self, program):
        load = next(i for i in program.instructions if i.layer == "load")
        words = load.attrs["transfer_words"]
        assert program_transfer_cycles(CONFIG, program, 3)["load"] == -(
            -3 * words // CONFIG.data_bus_words
        )

    def test_batch_one_is_identity(self, program):
        conv1 = next(i for i in program.gemm_instructions() if i.layer == "conv1")
        one = program_layers(CONFIG, program, 1)["conv1"]
        m, k, n = conv1.attrs["m"], conv1.attrs["k"], conv1.attrs["n"]
        assert one.stats.mac_count == m * k * n

    def test_rejects_non_positive_batch(self, program):
        with pytest.raises(MappingError):
            program_layers(CONFIG, program, 0)


class TestBatchedModel:
    def test_batch_one_unchanged(self, mnist_config):
        assert capsacc_layer_cycles(mnist_config) == capsacc_layer_cycles(
            mnist_config, batch=1
        )

    def test_batching_amortizes_cycles_per_image(self, mnist_config):
        single = _total(capsacc_layer_cycles(mnist_config, batch=1))
        batched = _total(capsacc_layer_cycles(mnist_config, batch=8))
        assert batched / 8 < single

    def test_fc_stage_dominates_the_amortization(self, mnist_config):
        """The load-bound FC stage (M=1) shrinks ~Bx per image; streaming-
        bound conv stages barely move — the DESCNet/CapStore observation
        that scheduling, not the PE array, decides throughput."""
        single = capsacc_layer_cycles(mnist_config, batch=1)
        batched = capsacc_layer_cycles(mnist_config, batch=8)
        assert batched["classcaps_fc"] < 2 * single["classcaps_fc"]
        assert batched["conv1"] < 8.1 * single["conv1"]
        # routing has per-image weights: exactly linear
        assert batched["sum1"] == 8 * single["sum1"]

    def test_utilization_improves_with_batch(self, mnist_config, program):
        one = _utilization(program, 1, capsacc_layer_cycles(mnist_config, batch=1))
        eight = _utilization(program, 8, capsacc_layer_cycles(mnist_config, batch=8))
        assert eight > one

    def test_batched_model_scales_with_array(self, mnist_config):
        small = capsacc_layer_cycles(mnist_config, AcceleratorConfig(rows=8, cols=8), batch=4)
        large = capsacc_layer_cycles(mnist_config, AcceleratorConfig(rows=32, cols=32), batch=4)
        assert _total(large) < _total(small)
