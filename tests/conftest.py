"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.capsnet.config import mnist_capsnet_config, tiny_capsnet_config
from repro.capsnet.hwops import HardwareLuts, QuantizedFormats
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.capsnet.weights import pseudo_trained_weights
from repro.data.synthetic import SyntheticDigits
from repro.hw.config import AcceleratorConfig

#: Executed ``BatchResult`` field -> the golden ``forward`` field it equals.
GOLDEN_FIELDS = {
    "conv1_raw": "conv1_out_raw",
    "primary_raw": "primary_raw",
    "u_hat_raw": "u_hat_raw",
    "class_caps_raw": "class_caps_raw",
    "coupling_raw": "coupling_raw",
}


def assert_matches_golden(result, index: int, reference) -> None:
    """Image ``index`` of an executed batch equals ``QuantizedCapsuleNet.forward``."""
    for field, golden in GOLDEN_FIELDS.items():
        np.testing.assert_array_equal(
            getattr(result, field)[index], getattr(reference, golden), err_msg=field
        )


@pytest.fixture(scope="session")
def tiny_config():
    """The scaled-down CapsuleNet used by most functional tests."""
    return tiny_capsnet_config()


@pytest.fixture(scope="session")
def mnist_config():
    """The paper's MNIST CapsuleNet configuration."""
    return mnist_capsnet_config()


@pytest.fixture(scope="session")
def tiny_weights(tiny_config):
    """Deterministic weights for the tiny network."""
    return pseudo_trained_weights(tiny_config, seed=2019)


@pytest.fixture(scope="session")
def tiny_images(tiny_config):
    """A few synthetic digit images matching the tiny network's input."""
    generator = SyntheticDigits(size=tiny_config.image_size, seed=3)
    return generator.generate(4, classes=(0, 1, 2)).images


@pytest.fixture(scope="session")
def default_formats():
    """The shipped quantized format configuration."""
    return QuantizedFormats()


@pytest.fixture(scope="session")
def hardware_luts(default_formats):
    """The three activation ROMs (expensive to build, shared per session)."""
    return HardwareLuts.build(default_formats)


@pytest.fixture(scope="session")
def tiny_qnet(tiny_config, tiny_weights):
    """A quantized tiny network (session-scoped; treat as read-only)."""
    return QuantizedCapsuleNet(tiny_config, weights=tiny_weights)


@pytest.fixture
def small_accel_config():
    """A 4x4 accelerator configuration for cycle-stepped tests."""
    return AcceleratorConfig(rows=4, cols=4)


@pytest.fixture
def rng():
    """Deterministic random generator for per-test data."""
    return np.random.default_rng(12345)
