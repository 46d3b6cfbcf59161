"""Unit tests for the Fig 13 loop nest."""

import pytest

from repro.errors import MappingError
from repro.mapping.loopnest import LOOP_ORDER, Loop, LoopNest, capsule_loop_nest
from repro.perf.compare import capsacc_program


def _compiled_macs(config, layer: str) -> int:
    """MACs of one layer's GEMMs in the compiled CapsNet program."""
    return sum(
        instr.attrs["m"] * instr.attrs["k"] * instr.attrs["n"]
        for instr in capsacc_program(config).gemm_instructions()
        if instr.layer == layer
    )


class TestLoop:
    def test_valid_loop(self):
        loop = Loop("k", 256)
        assert loop.description == "output channels"

    def test_unknown_dimension_rejected(self):
        with pytest.raises(MappingError):
            Loop("z", 4)

    def test_zero_count_rejected(self):
        with pytest.raises(MappingError):
            Loop("k", 0)


class TestLoopNest:
    def test_total_macs_is_product(self):
        nest = LoopNest("t", (Loop("k", 3), Loop("i", 5), Loop("r", 7)))
        assert nest.total_macs == 105

    def test_trip_defaults_to_one(self):
        nest = LoopNest("t", (Loop("k", 3),))
        assert nest.trip("l") == 1
        assert nest.trip("k") == 3

    def test_order_enforced(self):
        with pytest.raises(MappingError):
            LoopNest("bad", (Loop("i", 2), Loop("k", 2)))  # i before k

    def test_duplicates_rejected(self):
        with pytest.raises(MappingError):
            LoopNest("bad", (Loop("k", 2), Loop("k", 3)))

    def test_canonical_order_constant(self):
        assert LOOP_ORDER == ("l", "k", "j", "i", "g", "f", "c", "r")


class TestLayerNests:
    def test_conv1_macs_match_gemm_lowering(self, mnist_config):
        nest = capsule_loop_nest(mnist_config, "conv1")
        assert nest.total_macs == _compiled_macs(mnist_config, "conv1") == 400 * 81 * 256

    def test_primarycaps_macs_match_gemm_lowering(self, mnist_config):
        nest = capsule_loop_nest(mnist_config, "primarycaps")
        assert nest.total_macs == _compiled_macs(mnist_config, "primarycaps")

    def test_classcaps_macs_match_fc_lowering(self, mnist_config):
        nest = capsule_loop_nest(mnist_config, "classcaps")
        assert nest.total_macs == _compiled_macs(mnist_config, "classcaps_fc") == 1152 * 10 * 16 * 8

    def test_tiny_config_consistency(self, tiny_config):
        for layer in ("conv1", "primarycaps", "classcaps"):
            assert capsule_loop_nest(tiny_config, layer).total_macs > 0

    def test_unknown_layer_rejected(self, mnist_config):
        with pytest.raises(MappingError):
            capsule_loop_nest(mnist_config, "decoder")
