"""The whole stack must work on non-MNIST CapsuleNet geometries.

Every model, mapping and performance component derives from the
configuration object, so a CIFAR-like (32x32x3) or wide-class network must
run through the quantized path, the compiled program (bit-exact) and the
performance/synthesis models without modification.
"""

import numpy as np
import pytest

from repro.capsnet.config import custom_capsnet_config, mnist_capsnet_config
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.capsnet.weights import pseudo_trained_weights
from repro.compiler.executor import StreamExecutor
from repro.compiler.isa import Opcode
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import (
    capsacc_layer_cycles,
    capsacc_program,
    compare_layers,
    layer_times_us,
)
from tests.conftest import assert_matches_golden


@pytest.fixture(scope="module")
def cifar_like_config():
    """A small 3-channel, 5-class configuration (CIFAR-like geometry)."""
    return custom_capsnet_config(
        image_size=16,
        num_classes=5,
        in_channels=3,
        conv1_channels=12,
        conv1_kernel=5,
        capsule_channels=3,
        capsule_dim=4,
        primary_kernel=5,
        primary_stride=2,
        class_dim=6,
    )


class TestCustomConfigBuilder:
    def test_mnist_reproducible_via_builder(self):
        built = custom_capsnet_config(image_size=28, num_classes=10)
        assert built == mnist_capsnet_config()

    def test_cifar_like_dimensions(self, cifar_like_config):
        config = cifar_like_config
        assert config.in_channels == 3
        assert config.conv1_out_size == 12
        assert config.primary_out_size == 4
        assert config.num_primary_capsules == 4 * 4 * 3


class TestPipelineGeneralizes:
    @pytest.fixture(scope="class")
    def qnet(self, cifar_like_config):
        weights = pseudo_trained_weights(cifar_like_config, seed=5)
        return QuantizedCapsuleNet(cifar_like_config, weights=weights)

    @pytest.fixture(scope="class")
    def image(self, cifar_like_config, rng=None):
        generator = np.random.default_rng(9)
        size = cifar_like_config.image_size
        return generator.uniform(0, 1, size=(3, size, size))

    def test_quantized_forward_runs(self, qnet, image, cifar_like_config):
        out = qnet.forward(image)
        assert out.class_caps_raw.shape == (5, 6)
        assert out.saturation.rate < 0.01

    def test_mapped_execution_bit_exact(self, qnet, image):
        result = StreamExecutor.for_network(qnet).run_batch(image[np.newaxis])
        assert_matches_golden(result, 0, qnet.forward(image))

    def test_performance_model_runs(self, cifar_like_config):
        cycles = capsacc_layer_cycles(cifar_like_config)
        assert sum(cycles.values()) > 0
        layers = layer_times_us(cycles, AcceleratorConfig().clock_mhz)
        assert set(layers) == {"Conv1", "PrimaryCaps", "ClassCaps", "Total"}

    def test_gpu_comparison_runs(self, cifar_like_config):
        report = compare_layers(network=cifar_like_config)
        assert report.row("Total").gpu_us > 0

    def test_control_schedule_legal(self, cifar_like_config):
        program = capsacc_program(cifar_like_config)
        sums = {
            instr.layer: instr.attrs["data_source"]
            for instr in program.instructions
            if instr.opcode is Opcode.GROUPED_GEMM
        }
        assert sums["sum1"] == "data_buffer"
        assert sums["sum2"] == "feedback"
