"""The CapsAcc performance figures, priced from the compiled program.

:func:`repro.perf.compare.capsacc_layer_cycles` is the one CapsAcc cycle
source behind Figs 16/17, the ablations, the batching and energy studies
and ``repro info``.  The pinned values below are the figures the
paper-level drivers print.
"""

import pytest

from repro.compiler.cost import program_stats
from repro.experiments.ablations import conv_mapping_policy
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import (
    capsacc_layer_cycles,
    capsacc_program,
    layer_times_us,
    routing_step_times_us,
)

CLOCK_MHZ = AcceleratorConfig().clock_mhz


def _total_ms(cycles: dict[str, int]) -> float:
    return sum(cycles.values()) / CLOCK_MHZ / 1e3


def _steps(network, **kwargs) -> dict[str, float]:
    return routing_step_times_us(capsacc_layer_cycles(network, **kwargs), CLOCK_MHZ)


@pytest.fixture(scope="module")
def cycles(mnist_config):
    return capsacc_layer_cycles(mnist_config)


class TestInferencePerformance:
    def test_total_in_expected_band(self, cycles):
        # The PrimaryCaps layer alone needs >= 191M MACs / 256 PEs ~ 2.99 ms
        # at 250 MHz; the full network lands in single-digit milliseconds.
        assert 3.0 < _total_ms(cycles) < 10.0

    def test_layer_aggregation_sums_to_total(self, cycles):
        layers = layer_times_us(cycles, CLOCK_MHZ)
        partial = layers["Conv1"] + layers["PrimaryCaps"] + layers["ClassCaps"]
        assert layers["Total"] == pytest.approx(partial)
        assert layers["Total"] == pytest.approx(_total_ms(cycles) * 1e3)

    def test_primarycaps_dominates_compute(self, cycles):
        layers = layer_times_us(cycles, CLOCK_MHZ)
        assert layers["PrimaryCaps"] > layers["Conv1"]
        assert layers["PrimaryCaps"] > layers["ClassCaps"]

    def test_primarycaps_near_compute_bound(self, cycles):
        layers = layer_times_us(cycles, CLOCK_MHZ)
        macs = 36 * (9 * 9 * 256) * 256
        bound_us = macs / 256 / 250.0  # MACs / PEs / MHz
        assert layers["PrimaryCaps"] >= bound_us
        assert layers["PrimaryCaps"] < 1.1 * bound_us

    def test_stage_times_ordered(self, cycles):
        names = list(cycles)
        assert names[0] == "conv1"
        assert names[-1] == "squash3"

    def test_utilization_sensible(self, cycles, mnist_config):
        config = AcceleratorConfig()
        macs = program_stats(config, capsacc_program(mnist_config), 1).mac_count
        assert 0.5 < macs / (sum(cycles.values()) * config.num_pes) <= 1.0


class TestRoutingStepTimes:
    def test_labels(self, mnist_config):
        steps = _steps(mnist_config)
        # Stream order: the routing lowering stamps Load on its first
        # instruction, after the prediction GEMMs.
        assert list(steps)[:4] == ["FC", "Load", "Softmax1", "Sum1"]
        assert "Squash3" in steps

    def test_optimization_makes_softmax1_cheap(self, mnist_config):
        optimized = _steps(mnist_config, optimized_routing=True)
        textbook = _steps(mnist_config, optimized_routing=False)
        assert optimized["Softmax1"] < textbook["Softmax1"] / 5

    def test_later_softmaxes_unaffected(self, mnist_config):
        optimized = _steps(mnist_config, optimized_routing=True)
        textbook = _steps(mnist_config, optimized_routing=False)
        assert optimized["Softmax2"] == pytest.approx(textbook["Softmax2"])


class TestConfigurationEffects:
    def test_larger_array_faster(self, cycles, mnist_config):
        big = capsacc_layer_cycles(mnist_config, AcceleratorConfig().with_array(32, 32))
        assert _total_ms(big) < _total_ms(cycles)

    def test_no_double_buffer_slower(self, cycles, mnist_config):
        slow = capsacc_layer_cycles(
            mnist_config, AcceleratorConfig().without_weight_reuse()
        )
        assert _total_ms(slow) > _total_ms(cycles)

    def test_channel_serial_conv_slower(self, mnist_config):
        result = conv_mapping_policy(mnist_config)
        assert result.variants["channel_serial"] > result.variants["channel_parallel"]

    def test_tiny_network_much_faster(self, cycles, tiny_config):
        assert _total_ms(capsacc_layer_cycles(tiny_config)) < _total_ms(cycles) / 50


class TestPinnedFigureCycles:
    """The MNIST figure cycles, pinned (values of the retired shape model)."""

    def test_fig17_steps_at_batch_one(self, cycles):
        steps = cycles
        assert steps["load"] == 1_296
        assert steps["classcaps_fc"] == 140_544
        assert steps["softmax1"] == 720
        assert steps["sum1"] == steps["sum2"] == steps["sum3"] == 12_710
        assert steps["squash1"] == steps["squash3"] == 190
        assert steps["update1"] == steps["update2"] == 12_720
        assert steps["softmax2"] == steps["softmax3"] == 24_480

    def test_fig16_layers_at_batch_one(self, cycles):
        assert cycles["conv1"] == 44_848
        assert cycles["primarycaps"] == 758_064

    def test_totals(self, cycles, mnist_config):
        assert sum(cycles.values()) == 1_058_572
        assert sum(capsacc_layer_cycles(mnist_config, batch=16).values()) == 14_917_408

    def test_textbook_routing(self, mnist_config):
        textbook = capsacc_layer_cycles(mnist_config, optimized_routing=False)
        assert sum(textbook.values()) == 1_082_332

    def test_without_weight2(self, mnist_config):
        slow = capsacc_layer_cycles(
            mnist_config, AcceleratorConfig().without_weight_reuse()
        )
        assert sum(slow.values()) == 2_490_058

    def test_channel_serial_conv1(self, mnist_config):
        result = conv_mapping_policy(mnist_config)
        assert result.variants["channel_parallel"] == pytest.approx(179.392)
        assert result.variants["channel_serial"] == pytest.approx(2_532.352)
