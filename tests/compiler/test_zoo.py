"""Golden bit-identity for every zoo network, and zoo registry behavior."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.compiler.executor import StreamExecutor
from repro.compiler.golden import check_network
from repro.compiler.isa import Opcode
from repro.compiler.zoo import as_compiled, get_network, zoo_names
from repro.errors import CompileError, ConfigError
from repro.fixedpoint.formats import QFormat
from tests.compiler.conftest import zoo_images


class TestRegistry:
    def test_zoo_has_required_breadth(self):
        names = zoo_names()
        assert "mnist" in names  # the paper network
        assert "mnist-res" in names and "tiny-res" in names  # residual variants
        assert "cifar" in names  # CIFAR/SVHN-shape capsule network
        assert "mlp" in names and "cnn" in names  # non-capsule baselines

    def test_unknown_network_raises(self):
        with pytest.raises(ConfigError, match="unknown zoo network"):
            get_network("resnet152")

    def test_networks_are_cached(self):
        assert get_network("tiny") is get_network("tiny")

    def test_as_compiled_accepts_names_and_networks(self, tiny_qnet):
        net = get_network("mlp")
        assert as_compiled("mlp") is net
        assert as_compiled(net) is net
        assert as_compiled(tiny_qnet).qnet is tiny_qnet


class TestGoldenEquivalence:
    """Every zoo network's compiled stream matches graph interpretation,
    at batch sizes where the fused capsule and convolution paths run over
    one, a few and many images."""

    @pytest.mark.parametrize("name", [n for n in zoo_names() if n not in ("mnist", "mnist-res", "cifar")])
    def test_small_networks_match_golden(self, name):
        for count in (1, 3, 16):
            summary = check_network(name, zoo_images(name, count=count))
            assert summary["images"] == count
            assert summary["outputs_checked"] > 0

    @pytest.mark.parametrize("name", ["mnist", "mnist-res", "cifar"])
    def test_full_size_networks_match_golden(self, name):
        for count in (1, 3, 16):
            summary = check_network(name, zoo_images(name, count=count))
            assert summary["images"] == count
            assert summary["outputs_checked"] > 0


class TestNarrowRegisters:
    """The executor computes in int32 registers, and refuses programs
    whose formats would not fit them."""

    @pytest.mark.parametrize("name", zoo_names())
    def test_every_zoo_network_fits_and_stores_int32(self, name):
        net = get_network(name)
        executor = StreamExecutor(net.program, net.params, net.formats, luts=net.luts)
        result = executor.run_batch(zoo_images(name, count=2))
        for alias, value in result.outputs.items():
            if alias != "predictions":
                assert value.dtype == np.int32, alias

    def test_stored_routing_outputs_own_their_memory(self):
        # u_hat and the routing state are laid out class-major in buffers
        # made per batch: what one batch stores shares no memory with the
        # next batch's outputs or with another output, and keeps the
        # program's int32 shapes.
        net = get_network("mnist")
        executor = StreamExecutor(net.program, net.params, net.formats, luts=net.luts)
        images = zoo_images("mnist", count=2)
        shapes = {
            "u_hat_raw": (2, 1152, 10, 16),
            "coupling_raw": (2, 1152, 10),
            "class_caps_raw": (2, 10, 16),
        }
        stored = []
        for result in (executor.run_batch(images), executor.run_batch(images)):
            for alias, shape in shapes.items():
                value = result.outputs[alias]
                assert value.dtype == np.int32 and value.shape == shape, alias
                stored.append((alias, value))
        for index, (alias, value) in enumerate(stored):
            for other, later in stored[index + 1 :]:
                assert not np.shares_memory(value, later), (alias, other)

    @staticmethod
    def _widened(program, opcode, attr, fmt):
        """``program`` with ``attr`` of its first ``opcode`` set to ``fmt``."""
        instructions = list(program.instructions)
        pos = next(i for i, instr in enumerate(instructions) if instr.opcode is opcode)
        instr = instructions[pos]
        instructions[pos] = replace(instr, attrs={**instr.attrs, attr: fmt})
        return replace(program, instructions=instructions)

    def test_accumulator_too_wide_for_int32_is_a_compile_error(self):
        net = get_network("tiny")
        program = self._widened(net.program, Opcode.GEMM, "acc_fmt", QFormat(40, 13))
        with pytest.raises(CompileError, match="int32"):
            StreamExecutor(program, net.params, net.formats, luts=net.luts)

    def test_data_codes_past_the_float_range_stay_integer(self):
        # 26-bit data codes could round in the routing GEMMs' float32
        # operand copy, so those GEMMs read the integer register instead.
        net = get_network("tiny")
        first = next(i for i in net.program.instructions if i.opcode is Opcode.GROUPED_GEMM)
        fmt = first.attrs["data_fmt"]
        wide = QFormat(26, fmt.frac_bits, signed=fmt.signed)
        program = self._widened(net.program, Opcode.GROUPED_GEMM, "data_fmt", wide)
        images = zoo_images("tiny", count=3)
        expected = StreamExecutor(net.program, net.params, net.formats, luts=net.luts)
        widened = StreamExecutor(program, net.params, net.formats, luts=net.luts)
        want, got = expected.run_batch(images).outputs, widened.run_batch(images).outputs
        for alias, value in want.items():
            assert np.array_equal(got[alias], value), alias

    def test_reduction_shifting_past_int32_is_a_compile_error(self):
        # 24-bit codes shifted left by 10 bits need a 34-bit intermediate.
        net = get_network("tiny")
        program = self._widened(net.program, Opcode.REQUANT, "from_fmt", QFormat(24, -6))
        with pytest.raises(CompileError, match="-> .*int32"):
            StreamExecutor(program, net.params, net.formats, luts=net.luts)

    def test_activation_units_return_int32_codes(self):
        # The ROMs hold int32 words and the softmax divides in int32, so
        # none of the units widens an int32 register to int64 (which the
        # executor would have to narrow again, one more pass per op).
        net = get_network("mnist")
        unit = StreamExecutor(net.program, net.params, net.formats, luts=net.luts).activation
        rng = np.random.default_rng(7)
        fmt = net.formats.primary_preact
        vectors = rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(4, 32, 8), dtype=np.int32)
        logits = rng.integers(-128, 128, size=(4, 32, 10), dtype=np.int32)
        norm, sumsq = unit.norm(vectors, fmt)
        assert norm.dtype == sumsq.dtype == np.int32
        assert unit.squash(vectors, fmt).dtype == np.int32
        assert unit.softmax(logits, axis=-1).dtype == np.int32
        wide = unit.softmax(logits.astype(np.int64), axis=-1)
        assert np.array_equal(unit.softmax(logits, axis=-1), wide)
