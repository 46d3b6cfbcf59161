"""Golden bit-identity for every zoo network, and zoo registry behavior."""

from __future__ import annotations

import pytest

from repro.compiler.golden import check_network
from repro.compiler.zoo import as_compiled, get_network, zoo_names
from repro.errors import ConfigError
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
