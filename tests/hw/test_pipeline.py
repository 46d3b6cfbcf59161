"""Stream-level cross-batch pipelining: timing bounds and bit-exactness.

The key guarantees:

* a stream's outputs come from running each batch through
  ``StreamExecutor`` and match the quantized golden model; the pipelined
  timing (``program_stream_timing``) only prices the stream;
* pipelined timing never beats the compute-only lower bound, and the
  whole-stream makespan never exceeds the per-batch double-buffered sum;
* the steady-state marginal is stable across stream lengths;
* edge cases hold: batch size 1, single-layer (one-job) schedules,
  heterogeneous consecutive batch sizes, bounded ``acc_fifo_depth``.
"""

import numpy as np
import pytest

from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.cost import program_ops, program_steady_cycles, program_stream_timing
from repro.compiler.executor import StreamExecutor
from repro.errors import ConfigError, MappingError
from repro.hw.accelerator import CapsAccAccelerator, gemm_cycles, plan_tiling
from repro.hw.config import AcceleratorConfig
from repro.hw.pipeline import (
    PipelineOp,
    activation_op,
    job_ops,
    simulate_stream,
    stream_op_spans,
)


@pytest.fixture(scope="module")
def qnet(tiny_config, tiny_weights):
    return QuantizedCapsuleNet(tiny_config, weights=tiny_weights)


def run_stream(executor: StreamExecutor, batches):
    """Execute each batch and price the stream: ``(results, timing)``."""
    results = [executor.run_batch(images) for images in batches]
    timing = program_stream_timing(
        executor.accelerator.config, executor.program, [result.batch for result in results]
    )
    return results, timing


def overlapped(results) -> int:
    """Non-pipelined reference: per-batch double-buffered accounting."""
    return sum(result.overlapped_cycles for result in results)


class TestPipelineOps:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            PipelineOp(kind="dma", cycles=1)

    def test_rejects_negative_cycles(self):
        with pytest.raises(ConfigError):
            PipelineOp(kind="tile", cycles=-1)

    def test_job_ops_match_tiling_plan(self):
        config = AcceleratorConfig(rows=4, cols=4)
        plan = plan_tiling(config, m=6, k=10, n=9)
        ops = job_ops(config, plan)
        # K splits into chunks of 4,4,2 -> loads 5,5,3; N into 3 tiles.
        assert len(ops) == plan.tiles
        assert sum(op.load for op in ops) == (5 + 5 + 3) * 3
        # Streams cover M per tile; the last tile of the pass carries the
        # exposed fill/drain (rows + cols - 1).
        assert sum(op.cycles for op in ops) == plan.tiles * 6 + (4 + 4 - 1)
        assert not any(op.constrained for op in ops)

    def test_dynamic_weights_constrain_only_first_tile(self):
        config = AcceleratorConfig(rows=4, cols=4)
        plan = plan_tiling(config, m=2, k=8, n=1)
        ops = job_ops(config, plan, groups=3, weight_source="routing_buffer")
        assert ops[0].constrained
        assert not any(op.constrained for op in ops[1:])

    def test_bounded_fifo_adds_m_passes(self):
        config = AcceleratorConfig(rows=4, cols=4, acc_fifo_depth=2)
        plan = plan_tiling(config, m=5, k=4, n=4)
        assert plan.m_passes == (2, 2, 1)
        ops = job_ops(config, plan)
        assert len(ops) == plan.total_tile_loads
        # One exposed drain per M-pass.
        drain = config.rows + config.cols - 1
        assert sum(op.cycles for op in ops) == 5 * plan.tiles + drain * 3


class TestSimulateStream:
    def test_single_tile(self):
        timing = simulate_stream([[PipelineOp(kind="tile", cycles=10, load=3)]])
        assert timing.finish_cycles == 13
        assert timing.batches[0].start_cycle == 0

    def test_loads_hide_under_streams(self):
        # Three identical tiles: only the first load is exposed.
        ops = [PipelineOp(kind="tile", cycles=10, load=3) for _ in range(3)]
        timing = simulate_stream([ops])
        assert timing.finish_cycles == 3 + 3 * 10

    def test_load_bound_job_is_port_paced(self):
        ops = [PipelineOp(kind="tile", cycles=2, load=10) for _ in range(4)]
        timing = simulate_stream([ops])
        # The port is the bottleneck: 4 loads of 10 plus the last stream.
        assert timing.finish_cycles == 4 * 10 + 2

    def test_constrained_load_waits_for_producer(self):
        ops = [
            PipelineOp(kind="tile", cycles=10, load=3),
            activation_op(20),
            PipelineOp(kind="tile", cycles=5, load=3, constrained=True),
        ]
        timing = simulate_stream([ops])
        # The constrained load may only start after the activation ends.
        assert timing.finish_cycles == (3 + 10) + 20 + 3 + 5

    def test_prestage_depth_limits_lookahead(self):
        ops = [PipelineOp(kind="tile", cycles=2, load=2) for _ in range(6)]
        shallow = simulate_stream([list(ops)], prestage_depth=1)
        deep = simulate_stream([list(ops)], prestage_depth=4)
        assert deep.finish_cycles <= shallow.finish_cycles

    def test_validates_window_and_depth(self):
        ops = [[PipelineOp(kind="tile", cycles=1, load=1)]]
        with pytest.raises(ConfigError):
            simulate_stream(ops, window=0)
        with pytest.raises(ConfigError):
            simulate_stream(ops, prestage_depth=0)
        with pytest.raises(ConfigError):
            simulate_stream(ops, images_per_batch=[1, 2])

    def test_single_layer_schedule_across_batches(self):
        """A one-job network still pipelines: later batches hide their
        first load under the predecessor's stream."""
        config = AcceleratorConfig(rows=4, cols=4)
        plan = plan_tiling(config, m=16, k=8, n=4)
        ops = job_ops(config, plan)
        single = gemm_cycles(config, 16, 8, 4, overlap=True)["total"]
        timing = simulate_stream([list(ops) for _ in range(4)])
        compute = sum(op.cycles for op in ops)
        assert timing.finish_cycles <= 4 * single
        assert timing.steady_marginal_cycles >= compute - (config.rows + config.cols - 1)
        for batch in timing.batches:
            assert batch.finish_cycle >= batch.start_cycle


class TestStreamScheduler:
    def test_outputs_bit_identical_to_batch_scheduler(self, qnet, tiny_images):
        batches = [tiny_images[:2], tiny_images[2:]]
        results, _ = run_stream(StreamExecutor.for_network(qnet), batches)
        for images, result in zip(batches, results):
            for b, image in enumerate(images):
                expected = qnet.forward(image)
                assert result.predictions[b] == expected.prediction
                np.testing.assert_array_equal(result.class_caps_raw[b], expected.class_caps_raw)
                np.testing.assert_array_equal(result.u_hat_raw[b], expected.u_hat_raw)
                np.testing.assert_array_equal(result.conv1_raw[b], expected.conv1_out_raw)

    def test_never_beats_compute_lower_bound(self, qnet, tiny_images):
        executor = StreamExecutor.for_network(qnet)
        results, timing = run_stream(
            executor, [tiny_images[:2], tiny_images[2:], tiny_images[:2]]
        )
        compute = sum(r.total_stats.compute_cycles for r in results)
        assert timing.finish_cycles >= compute
        macs = sum(r.total_stats.mac_count for r in results)
        num_pes = executor.accelerator.config.num_pes
        assert timing.finish_cycles >= macs / num_pes

    def test_never_worse_than_double_buffered_sum(self, qnet, tiny_images):
        results, timing = run_stream(
            StreamExecutor.for_network(qnet),
            [tiny_images[:2], tiny_images[2:], tiny_images],
        )
        assert timing.finish_cycles <= overlapped(results)
        assert overlapped(results) / timing.finish_cycles >= 1.0

    def test_steady_marginal_stable_across_stream_lengths(self, qnet):
        program = StreamExecutor.for_network(qnet).program
        for batch in (2, 8):
            values = {
                length: program_stream_timing(
                    AcceleratorConfig(), program, [batch] * length
                ).steady_marginal_cycles
                for length in (6, 7, 9, 12)
            }
            assert len(set(values.values())) == 1, values

    def test_steady_averages_period_two_oscillation(self, qnet):
        """On some shapes the two in-flight batches alternate roles, so
        settled marginals oscillate with period two; the steady state is
        their average, not whichever phase the probe length lands on."""
        program = StreamExecutor.for_network(qnet).program
        timing = program_stream_timing(AcceleratorConfig(), program, [8] * 9)
        # The implementation averages an even window of settled marginals
        # (whole periods), excluding the three fill batches and the tail.
        window = (len(timing.batches) - 4) & ~1
        settled = [b.marginal_cycles for b in timing.batches[-1 - window : -1]]
        assert timing.steady_marginal_cycles == round(sum(settled) / window)
        assert min(settled) <= timing.steady_marginal_cycles <= max(settled)

    def test_steady_marginal_at_least_per_batch_compute(self, qnet):
        executor = StreamExecutor.for_network(qnet)
        size = qnet.config.image_size
        compute = executor.run_batch(np.zeros((2, size, size))).total_stats.compute_cycles
        steady = program_steady_cycles(executor.accelerator.config, executor.program, 2)
        assert steady >= compute

    def test_batch_size_one_stream(self, qnet, tiny_images):
        batches = [tiny_images[i : i + 1] for i in range(3)]
        results, timing = run_stream(StreamExecutor.for_network(qnet), batches)
        assert timing.finish_cycles <= overlapped(results)
        for images, result in zip(batches, results):
            np.testing.assert_array_equal(result.predictions, qnet.predict_batch(images))

    def test_heterogeneous_batch_sizes(self, qnet, tiny_images):
        batches = [tiny_images[:3], tiny_images[:1], tiny_images]
        results, timing = run_stream(StreamExecutor.for_network(qnet), batches)
        assert [b.images for b in timing.batches] == [3, 1, 4]
        assert sum(result.batch for result in results) == 8
        compute = sum(r.total_stats.compute_cycles for r in results)
        assert compute <= timing.finish_cycles <= overlapped(results)
        for images, result in zip(batches, results):
            np.testing.assert_array_equal(result.predictions, qnet.predict_batch(images))

    def test_bounded_acc_fifo_depth(self, qnet, tiny_images):
        """Pipelining must respect the M-pass structure a bounded
        accumulator FIFO forces: exact outputs, and timing between the
        compute bound and the (re-tiled) double-buffered sum."""
        config = AcceleratorConfig(acc_fifo_depth=3)
        reference = StreamExecutor.for_network(qnet)
        bounded = StreamExecutor.for_network(
            qnet, accelerator=CapsAccAccelerator(config, formats=qnet.formats)
        )
        batches = [tiny_images[:2], tiny_images[2:]]
        results, timing = run_stream(bounded, batches)
        compute = sum(r.total_stats.compute_cycles for r in results)
        assert compute <= timing.finish_cycles <= overlapped(results)
        for images, result in zip(batches, results):
            expected = reference.run_batch(images)
            np.testing.assert_array_equal(result.predictions, expected.predictions)
            np.testing.assert_array_equal(result.class_caps_raw, expected.class_caps_raw)

    def test_window_one_limits_overlap(self, qnet):
        config, program = AcceleratorConfig(), StreamExecutor.for_network(qnet).program
        lone = program_stream_timing(config, program, [2], window=1).finish_cycles
        timing = program_stream_timing(config, program, [2] * 3, window=1)
        # With one batch in flight only the trailing activation passes can
        # overlap the successor's tiles; a second in-flight batch strictly
        # beats that.
        assert lone < timing.steady_marginal_cycles + 100
        assert timing.finish_cycles <= 3 * lone
        pipelined = program_stream_timing(config, program, [2] * 3, window=2)
        assert pipelined.finish_cycles < timing.finish_cycles

    def test_probe_rejects_bad_batch_size(self, qnet):
        program = StreamExecutor.for_network(qnet).program
        with pytest.raises(MappingError):
            program_ops(AcceleratorConfig(), program, 0)

    def test_stepped_engine_matches_fast_outputs(self, qnet, tiny_images):
        fast = StreamExecutor.for_network(qnet, engine="fast")
        stepped = StreamExecutor.for_network(qnet, engine="stepped")
        a, timing_a = run_stream(fast, [tiny_images[:1]])
        b, timing_b = run_stream(stepped, [tiny_images[:1]])
        np.testing.assert_array_equal(a[0].predictions, b[0].predictions)
        assert a[0].total_cycles == b[0].total_cycles
        assert timing_a.finish_cycles == timing_b.finish_cycles


class TestStreamOpSpans:
    """The op-span recorder behind the observability drill-down lane."""

    def test_spans_match_untraced_timing(self, qnet):
        program = StreamExecutor.for_network(qnet).program
        per_batch = [program_ops(AcceleratorConfig(), program, 2) for _ in range(3)]
        baseline = simulate_stream(
            [list(ops) for ops in per_batch], [2, 2, 2]
        )
        timing, spans = stream_op_spans(
            [list(ops) for ops in per_batch], [2, 2, 2]
        )
        # Recording is observational: identical timing either way.
        assert timing.finish_cycles == baseline.finish_cycles
        assert [b.start_cycle for b in timing.batches] == [
            b.start_cycle for b in baseline.batches
        ]
        assert len(spans) == sum(len(ops) for ops in per_batch)

    def test_span_shapes(self, qnet):
        program = StreamExecutor.for_network(qnet).program
        ops = program_ops(AcceleratorConfig(), program, 1)
        timing, spans = stream_op_spans([list(ops)], [1])
        assert {span.kind for span in spans} <= {"tile", "act"}
        for span in spans:
            assert span.end_cycle > span.start_cycle >= 0
            assert span.batch == 0
            if span.kind == "tile":
                assert span.load_end_cycle >= span.load_start_cycle >= 0
                # The load feeds the stream: it never ends after the
                # stream it stages for begins.
                assert span.load_end_cycle <= span.start_cycle
        assert max(span.end_cycle for span in spans) == timing.finish_cycles

    def test_load_bound_spans_paced_by_port(self):
        ops = [PipelineOp(kind="tile", cycles=2, load=10) for _ in range(4)]
        _, spans = stream_op_spans([ops])
        load_spans = sorted(
            (s.load_start_cycle, s.load_end_cycle) for s in spans
        )
        for (_, prev_end), (start, _) in zip(load_spans, load_spans[1:]):
            assert start >= prev_end  # one weight port, no overlap
