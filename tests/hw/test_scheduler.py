"""Tests for batched multi-image execution of the compiled program.

The key guarantees:

* a batch through :class:`StreamExecutor` is bit-identical, image for
  image, to the quantized golden model;
* results are invariant to how the stream is split into batches;
* the per-layer GEMM accounting agrees with the paper figures' pricing
  of the compiled program at the same batch size;
* both engines agree; batching strictly improves amortized cycles.
"""

import numpy as np
import pytest

from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.cost import program_transfer_cycles
from repro.compiler.executor import StreamExecutor
from repro.errors import ShapeError
from repro.hw.accelerator import CapsAccAccelerator
from repro.hw.config import AcceleratorConfig
from repro.hw.report import BatchResult, LayerReport
from repro.perf.compare import capsacc_layer_cycles, capsacc_program
from tests.conftest import assert_matches_golden


@pytest.fixture(scope="module")
def qnet(tiny_config, tiny_weights):
    return QuantizedCapsuleNet(tiny_config, weights=tiny_weights)


@pytest.fixture(scope="module")
def batch_result(qnet, tiny_images):
    return StreamExecutor.for_network(qnet).run_batch(tiny_images)


class TestBitExactness:
    def test_matches_quantized_reference_per_image(self, qnet, tiny_images, batch_result):
        for b, image in enumerate(tiny_images):
            assert_matches_golden(batch_result, b, qnet.forward(image))

    def test_matches_quantized_golden_predictions(self, qnet, tiny_images, batch_result):
        assert np.array_equal(
            batch_result.predictions, qnet.predict_batch(tiny_images)
        )

    def test_batch_split_invariance(self, qnet, tiny_images, batch_result):
        executor = StreamExecutor.for_network(qnet)
        parts = [executor.run_batch(tiny_images[:2]), executor.run_batch(tiny_images[2:])]
        merged = np.concatenate([p.class_caps_raw for p in parts])
        assert np.array_equal(merged, batch_result.class_caps_raw)

    def test_non_optimized_routing_matches(self, tiny_config, tiny_weights, tiny_images):
        qnet = QuantizedCapsuleNet(
            tiny_config, weights=tiny_weights, optimized_routing=False
        )
        result = StreamExecutor.for_network(qnet).run_batch(tiny_images[:2])
        for b in range(2):
            assert_matches_golden(result, b, qnet.forward(tiny_images[b]))
        assert "softmax1" in result.layers

    def test_stepped_engine_agrees(self, qnet, tiny_images, batch_result):
        accel = CapsAccAccelerator(AcceleratorConfig(rows=8, cols=8), formats=qnet.formats)
        stepped = StreamExecutor.for_network(
            qnet, accelerator=accel, engine="stepped"
        ).run_batch(tiny_images[:2])
        fast = StreamExecutor.for_network(
            qnet,
            accelerator=CapsAccAccelerator(
                AcceleratorConfig(rows=8, cols=8), formats=qnet.formats
            ),
        ).run_batch(tiny_images[:2])
        assert np.array_equal(stepped.class_caps_raw, fast.class_caps_raw)
        assert stepped.total_cycles == fast.total_cycles

    def test_rejects_bad_batch_shape(self, qnet, tiny_images):
        with pytest.raises(ShapeError):
            StreamExecutor.for_network(qnet).run_batch(tiny_images[0])


class TestAccounting:
    @pytest.fixture(scope="class")
    def batch(self, tiny_images):
        return len(tiny_images)

    @staticmethod
    def _figure_cycles(qnet, batch):
        """The paper figures' per-layer cycles with Weight2 off (sequential)."""
        config = AcceleratorConfig().without_weight_reuse()
        return capsacc_layer_cycles(qnet.config, config, qnet.optimized_routing, batch)

    def test_conv_layers_match_perf_model(self, qnet, batch_result, batch):
        figure = self._figure_cycles(qnet, batch)
        for layer in ("conv1", "primarycaps"):
            report = batch_result.layers[layer]
            assert report.stats.total_cycles == figure[layer]

    def test_fc_layer_matches_perf_model(self, qnet, batch_result, batch):
        report = batch_result.layers["classcaps_fc"]
        assert report.gemm_cycles == self._figure_cycles(qnet, batch)["classcaps_fc"]
        assert report.jobs == qnet.config.num_primary_capsules

    def test_routing_layers_match_perf_model(self, qnet, batch_result, batch):
        """Executed routing GEMMs plus the stamped transfers are the figure."""
        config = AcceleratorConfig()
        program = capsacc_program(qnet.config, qnet.optimized_routing)
        transfers = program_transfer_cycles(config, program, batch)
        figure = self._figure_cycles(qnet, batch)
        for layer in ("sum1", "sum2", "sum3", "update1", "update2"):
            executed = batch_result.layers[layer].gemm_cycles
            assert executed + transfers.get(layer, 0) == figure[layer], layer

    def test_overlap_never_slower(self, batch_result):
        for report in batch_result.layers.values():
            assert report.overlapped_cycles <= report.stats.total_cycles
        assert batch_result.overlapped_cycles <= batch_result.total_cycles

    def test_batching_improves_amortized_cycles(self, qnet, tiny_images):
        executor = StreamExecutor.for_network(qnet)
        one = executor.run_batch(tiny_images[:1])
        full = executor.run_batch(tiny_images)
        assert full.cycles_per_image() < one.cycles_per_image()
        assert full.images_per_second(250.0) > one.images_per_second(250.0)

    def test_utilization_bounded_and_improves(self, qnet, tiny_images):
        executor = StreamExecutor.for_network(qnet)
        config = executor.accelerator.config
        one = executor.run_batch(tiny_images[:1])
        full = executor.run_batch(tiny_images)
        assert 0.0 < one.utilization(config.num_pes) <= 1.0
        assert one.utilization(config.num_pes) < full.utilization(config.num_pes) <= 1.0

    def test_total_stats_sum_layers(self, batch_result):
        assert batch_result.total_cycles == sum(
            r.stats.total_cycles for r in batch_result.layers.values()
        )
        assert batch_result.total_stats.mac_count == sum(
            r.stats.mac_count for r in batch_result.layers.values()
        )


class TestEdgeCases:
    def test_batch_of_one(self, qnet, tiny_images):
        """The degenerate batch still runs and matches the golden model."""
        result = StreamExecutor.for_network(qnet).run_batch(tiny_images[:1])
        assert result.batch == 1
        single = qnet.forward(tiny_images[0])
        assert np.array_equal(result.class_caps_raw[0], single.class_caps_raw)
        assert result.cycles_per_image() == result.overlapped_cycles

    def test_empty_batch_rejected(self, qnet, tiny_config):
        size = tiny_config.image_size
        empty = np.zeros((0, size, size))
        with pytest.raises(ShapeError):
            StreamExecutor.for_network(qnet).run_batch(empty)

    def test_empty_layer_list_statistics(self):
        """A result with no scheduled layers reports zeros, not crashes."""
        result = BatchResult(
            batch=1,
            predictions=np.zeros(1, dtype=np.int64),
            conv1_raw=np.zeros(0),
            primary_raw=np.zeros(0),
            u_hat_raw=np.zeros(0),
            class_caps_raw=np.zeros(0),
            coupling_raw=np.zeros(0),
            length_sumsq_raw=np.zeros(0),
            layers={},
        )
        assert result.total_cycles == 0
        assert result.overlapped_cycles == 0
        assert result.utilization(256) == 0.0
        assert LayerReport(name="empty").utilization(256) == 0.0

    def test_batch_larger_than_fifo_depth(self, qnet, tiny_images):
        """A bounded accumulator FIFO forces M-tiling: identical results,
        strictly more cycles and weight traffic than the idealized bank."""
        ideal_accel = CapsAccAccelerator(formats=qnet.formats)
        ideal = StreamExecutor.for_network(qnet, accelerator=ideal_accel).run_batch(
            tiny_images
        )
        bounded_accel = CapsAccAccelerator(
            AcceleratorConfig(acc_fifo_depth=8), formats=qnet.formats
        )
        bounded = StreamExecutor.for_network(qnet, accelerator=bounded_accel).run_batch(
            tiny_images
        )
        assert np.array_equal(bounded.class_caps_raw, ideal.class_caps_raw)
        assert np.array_equal(bounded.predictions, ideal.predictions)
        assert bounded.total_cycles > ideal.total_cycles
        assert bounded.overlapped_cycles > ideal.overlapped_cycles
        # Every M-pass re-loads the weight tiles, so traffic grows too;
        # conv1 stacks B*M rows far beyond depth 8, so its jobs M-tile.
        assert bounded_accel.weight_buffer.reads > ideal_accel.weight_buffer.reads
        assert bounded.layers["conv1"].stats.total_cycles > (
            ideal.layers["conv1"].stats.total_cycles
        )
