"""Tests for the batched multi-image scheduler.

The key guarantees:

* batched scheduling is bit-identical, image for image, to the
  single-image executable lowering (and to the quantized golden model);
* results are invariant to how the stream is split into batches;
* the per-layer GEMM accounting agrees with the paper figures' pricing
  of the compiled program at the same batch size;
* both engines agree; batching strictly improves amortized cycles.
"""

import numpy as np
import pytest

from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.cost import program_transfer_cycles
from repro.errors import ShapeError
from repro.hw.accelerator import CapsAccAccelerator
from repro.hw.config import AcceleratorConfig
from repro.hw.scheduler import BatchScheduler
from repro.mapping.execute import MappedInference
from repro.perf.compare import capsacc_layer_cycles, capsacc_program


@pytest.fixture(scope="module")
def qnet(tiny_config, tiny_weights):
    return QuantizedCapsuleNet(tiny_config, weights=tiny_weights)


@pytest.fixture(scope="module")
def batch_result(qnet, tiny_images):
    return BatchScheduler(qnet).run_batch(tiny_images)


class TestBitExactness:
    def test_matches_mapped_inference_per_image(self, qnet, tiny_images, batch_result):
        mapped = MappedInference(qnet)
        for b, image in enumerate(tiny_images):
            single = mapped.run(image)
            assert np.array_equal(batch_result.conv1_raw[b], single.conv1_raw)
            assert np.array_equal(batch_result.primary_raw[b], single.primary_raw)
            assert np.array_equal(batch_result.u_hat_raw[b], single.u_hat_raw)
            assert np.array_equal(batch_result.class_caps_raw[b], single.class_caps_raw)
            assert np.array_equal(batch_result.coupling_raw[b], single.coupling_raw)

    def test_matches_quantized_golden_predictions(self, qnet, tiny_images, batch_result):
        assert np.array_equal(
            batch_result.predictions, qnet.predict_batch(tiny_images)
        )

    def test_batch_split_invariance(self, qnet, tiny_images, batch_result):
        scheduler = BatchScheduler(qnet)
        parts = [scheduler.run_batch(tiny_images[:2]), scheduler.run_batch(tiny_images[2:])]
        merged = np.concatenate([p.class_caps_raw for p in parts])
        assert np.array_equal(merged, batch_result.class_caps_raw)

    def test_non_optimized_routing_matches(self, tiny_config, tiny_weights, tiny_images):
        qnet = QuantizedCapsuleNet(
            tiny_config, weights=tiny_weights, optimized_routing=False
        )
        result = BatchScheduler(qnet).run_batch(tiny_images[:2])
        mapped = MappedInference(qnet)
        for b in range(2):
            single = mapped.run(tiny_images[b])
            assert np.array_equal(result.class_caps_raw[b], single.class_caps_raw)
        assert "softmax1" in result.layers

    def test_stepped_engine_agrees(self, qnet, tiny_images, batch_result):
        accel = CapsAccAccelerator(AcceleratorConfig(rows=8, cols=8), formats=qnet.formats)
        stepped = BatchScheduler(qnet, accelerator=accel, engine="stepped").run_batch(
            tiny_images[:2]
        )
        fast = BatchScheduler(
            qnet,
            accelerator=CapsAccAccelerator(
                AcceleratorConfig(rows=8, cols=8), formats=qnet.formats
            ),
        ).run_batch(tiny_images[:2])
        assert np.array_equal(stepped.class_caps_raw, fast.class_caps_raw)
        assert stepped.total_cycles == fast.total_cycles

    def test_rejects_bad_batch_shape(self, qnet, tiny_images):
        with pytest.raises(ShapeError):
            BatchScheduler(qnet).run_batch(tiny_images[0])


class TestAccounting:
    @pytest.fixture(scope="class")
    def batch(self, tiny_images):
        return len(tiny_images)

    @staticmethod
    def _figure_cycles(qnet, batch):
        """The paper figures' per-layer cycles with Weight2 off (sequential)."""
        config = BatchScheduler(qnet).accelerator.config.without_weight_reuse()
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
        config = BatchScheduler(qnet).accelerator.config
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
        scheduler = BatchScheduler(qnet)
        one = scheduler.run_batch(tiny_images[:1])
        full = scheduler.run_batch(tiny_images)
        assert full.cycles_per_image() < one.cycles_per_image()
        assert full.images_per_second(250.0) > one.images_per_second(250.0)

    def test_utilization_bounded_and_improves(self, qnet, tiny_images):
        scheduler = BatchScheduler(qnet)
        config = scheduler.accelerator.config
        one = scheduler.run_batch(tiny_images[:1])
        full = scheduler.run_batch(tiny_images)
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
        """The degenerate batch still schedules and matches the lowering."""
        result = BatchScheduler(qnet).run_batch(tiny_images[:1])
        assert result.batch == 1
        single = MappedInference(qnet).run(tiny_images[0])
        assert np.array_equal(result.class_caps_raw[0], single.class_caps_raw)
        assert result.cycles_per_image() == result.overlapped_cycles

    def test_empty_batch_rejected(self, qnet, tiny_config):
        size = tiny_config.image_size
        empty = np.zeros((0, size, size))
        with pytest.raises(ShapeError):
            BatchScheduler(qnet).run_batch(empty)

    def test_empty_layer_list_statistics(self):
        """A result with no scheduled layers reports zeros, not crashes."""
        from repro.hw.scheduler import BatchResult, LayerReport

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
        ideal = BatchScheduler(qnet, accelerator=ideal_accel).run_batch(tiny_images)
        bounded_accel = CapsAccAccelerator(
            AcceleratorConfig(acc_fifo_depth=8), formats=qnet.formats
        )
        bounded = BatchScheduler(qnet, accelerator=bounded_accel).run_batch(tiny_images)
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
