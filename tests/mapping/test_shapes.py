"""The per-image work shapes the compiled CapsNet program stamps (Fig 12/14).

The lowering fixes every layer's GEMM dimensions, operand sources,
activation work and bulk buffer transfers; :mod:`repro.compiler.cost`
prices them.  These tests pin the mappings the paper describes.
"""

import pytest

from repro.compiler.cost import program_layers, program_transfer_cycles
from repro.compiler.isa import Instruction, Opcode, Program
from repro.errors import MappingError, SimulationError
from repro.experiments.ablations import conv_mapping_policy
from repro.fixedpoint.formats import QFormat
from repro.hw.accelerator import gemm_cycles, plan_tiling
from repro.hw.activation import ActivationMode, batched_activation_latency
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import capsacc_layer_cycles, capsacc_program, layer_times_us

CONFIG = AcceleratorConfig()


@pytest.fixture(scope="module")
def program(mnist_config):
    return capsacc_program(mnist_config)


@pytest.fixture(scope="module")
def textbook(mnist_config):
    return capsacc_program(mnist_config, optimized_routing=False)


def _instrs(program, layer, opcode=None):
    return [
        instr
        for instr in program.instructions
        if instr.layer == layer and (opcode is None or instr.opcode is opcode)
    ]


def _shape(instr):
    return instr.attrs["m"], instr.attrs["k"], instr.attrs["n"]


def _stamped(words: int) -> Program:
    return Program(
        name="stamped",
        input="x",
        input_shape=(1,),
        input_fmt=QFormat(8, 0),
        instructions=[
            Instruction(
                Opcode.CONST, dest="c", layer="load",
                attrs={"shape": (1,), "value": 0, "transfer_words": words},
            )
        ],
    )


class TestGemmShape:
    def test_macs(self, program):
        (gemm,) = _instrs(program, "sum1", Opcode.GROUPED_GEMM)
        m, k, n = _shape(gemm)
        macs = program_layers(CONFIG, program, 1)["sum1"].stats.mac_count
        assert macs == m * k * n * gemm.attrs["groups"] == 16 * 1152 * 10

    def test_validation(self):
        with pytest.raises(MappingError):
            plan_tiling(CONFIG, 0, 1, 1)


class TestActivationWork:
    def test_validation(self):
        with pytest.raises(SimulationError):
            batched_activation_latency(ActivationMode.RELU, 0, 1, 1)
        with pytest.raises(SimulationError):
            batched_activation_latency(ActivationMode.RELU, 1, 1, 0)


class TestConvStages:
    def test_conv1_dimensions(self, program):
        (gemm,) = _instrs(program, "conv1", Opcode.GEMM)
        assert _shape(gemm) == (400, 81, 256)
        assert _instrs(program, "conv1", Opcode.RELU)

    def test_primarycaps_dimensions(self, program):
        (gemm,) = _instrs(program, "primarycaps", Opcode.GEMM)
        assert _shape(gemm) == (36, 9 * 9 * 256, 256)
        (squash,) = _instrs(program, "primarycaps", Opcode.SQUASH)
        assert squash.attrs["groups"] == 1152

    def test_channel_serial_policy(self, program, mnist_config):
        # The ablation runs the compiled Conv1 GEMM as 256 single-column jobs.
        (gemm,) = _instrs(program, "conv1", Opcode.GEMM)
        m, k, n = _shape(gemm)
        relu = program_layers(CONFIG, program, 1)["conv1"].stats.activation_cycles
        serial = n * gemm_cycles(CONFIG, m, k, 1)["total"] + relu
        result = conv_mapping_policy(mnist_config)
        assert result.variants["channel_serial"] == serial / CONFIG.clock_mhz
        assert n == 256


class TestClassCapsStages:
    def test_fc_one_gemm_per_capsule(self, program):
        gemms = _instrs(program, "classcaps_fc", Opcode.GEMM)
        assert len(gemms) == 1152
        assert {_shape(gemm) for gemm in gemms} == {(1, 8, 160)}
        macs = program_layers(CONFIG, program, 1)["classcaps_fc"].stats.mac_count
        assert macs == 1474560  # every FC weight used exactly once

    def test_load_stage_words(self, program):
        (load,) = _instrs(program, "load")
        assert load.attrs["transfer_words"] == 1152 * 8 + 11520


class TestRoutingStages:
    def test_sum_uses_data_buffer_then_feedback(self, program):
        (first,) = _instrs(program, "sum1", Opcode.GROUPED_GEMM)
        (later,) = _instrs(program, "sum2", Opcode.GROUPED_GEMM)
        assert first.attrs["data_source"] == "data_buffer"
        assert later.attrs["data_source"] == "feedback"

    def test_sum_coefficients_from_routing_buffer(self, program):
        (gemm,) = _instrs(program, "sum1", Opcode.GROUPED_GEMM)
        assert gemm.attrs["weight_source"] == "routing_buffer"

    def test_update_reuses_feedback(self, program):
        (gemm,) = _instrs(program, "update1", Opcode.GROUPED_GEMM)
        assert gemm.attrs["data_source"] == "feedback"
        assert gemm.attrs["m"] == 1152

    def test_optimized_sequence_skips_first_softmax(self, program):
        (skipped,) = _instrs(program, "softmax1", Opcode.SOFTMAX)
        assert not skipped.attrs["record"]  # transfer only
        assert skipped.attrs["transfer_words"] > 0
        assert "softmax1" not in program_layers(CONFIG, program, 1)
        assert _instrs(program, "softmax2", Opcode.SOFTMAX)

    def test_textbook_sequence_runs_all(self, textbook):
        softmaxes = [i for i in textbook.instructions if i.opcode is Opcode.SOFTMAX]
        assert len(softmaxes) == 3
        assert all(i.attrs["record"] for i in softmaxes)

    def test_sequence_order_matches_fig9(self, textbook):
        names = list(
            dict.fromkeys(
                instr.layer
                for instr in textbook.instructions
                if instr.layer and instr.layer.startswith(("softmax", "sum", "squash", "update"))
            )
        )
        assert names == [
            "softmax1", "sum1", "squash1", "update1",
            "softmax2", "sum2", "squash2", "update2",
            "softmax3", "sum3", "squash3",
        ]

    def test_cross_column_activations_serialize(self, textbook):
        layers = program_layers(CONFIG, textbook, 1)
        for instr in textbook.instructions:
            if instr.opcode in (Opcode.SOFTMAX, Opcode.SQUASH) and instr.layer != "primarycaps":
                mode = ActivationMode(instr.opcode.value)
                serial = batched_activation_latency(
                    mode, instr.attrs["n"], instr.attrs["groups"], 1
                )
                assert layers[instr.layer].stats.activation_cycles == serial


class TestFullInference:
    def test_stage_order(self, mnist_config):
        names = list(capsacc_layer_cycles(mnist_config))
        assert names[:4] == ["conv1", "primarycaps", "classcaps_fc", "load"]
        assert names[-1] == "squash3"

    def test_total_macs_constant_across_policies(self, program):
        (gemm,) = _instrs(program, "conv1", Opcode.GEMM)
        m, k, n = _shape(gemm)
        parallel = program_layers(CONFIG, program, 1)["conv1"].stats.mac_count
        assert parallel == n * (m * k * 1)  # n single-column channel-serial jobs

    def test_stage_layer_aggregation(self):
        layers = layer_times_us(
            {"conv1": 250, "primarycaps": 500, "classcaps_fc": 250, "sum2": 500}, 250.0
        )
        assert layers == {"Conv1": 1.0, "PrimaryCaps": 2.0, "ClassCaps": 3.0, "Total": 6.0}


class TestTransferCycles:
    def test_rounds_up(self):
        assert program_transfer_cycles(CONFIG, _stamped(17), 1) == {"load": 2}

    def test_zero_free(self, program):
        assert program_transfer_cycles(CONFIG, _stamped(0), 1) == {}
        # Only the routing steps move bulk data outside GEMM streaming.
        assert "conv1" not in program_transfer_cycles(CONFIG, program, 1)
