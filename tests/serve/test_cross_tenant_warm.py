"""Cross-tenant warm hand-offs and the process-wide probe cache."""

import pytest

from repro.hw.pipeline import cached_stream_timing
from repro.serve import (
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    TenantSpec,
    clear_probe_cache,
    probe_cache_size,
    uniform_trace,
)
from repro.serve import costs
from repro.serve.costs import PAIR_PROBE_PREFIX, PAIR_PROBE_SUFFIX


@pytest.fixture(scope="module")
def tiny_pipe():
    return ScheduledBatchCost("tiny", pipeline=True)


@pytest.fixture(scope="module")
def mnist_pipe():
    return ScheduledBatchCost("mnist", pipeline=True)


class TestCrossNetworkWarmCost:
    def test_cross_pair_probes_the_actual_predecessor_ops(
        self, tiny_pipe, mnist_pipe
    ):
        """The hand-off marginal comes from a mixed two-model stream."""
        size, prev = 2, 4
        cross = tiny_pipe.warm_batch_cycles(size, prev, prev_cost=mnist_pipe)
        timing = cached_stream_timing(
            [mnist_pipe.pipeline_ops(prev)] * PAIR_PROBE_PREFIX
            + [tiny_pipe.pipeline_ops(size)] * PAIR_PROBE_SUFFIX,
            [prev] * PAIR_PROBE_PREFIX + [size] * PAIR_PROBE_SUFFIX,
            window=tiny_pipe.window,
            prestage_depth=tiny_pipe.prestage_depth,
        )
        expected = min(
            timing.batches[PAIR_PROBE_PREFIX].marginal_cycles,
            tiny_pipe.batch_cycles(size),
        )
        assert cross == expected
        assert cross <= tiny_pipe.batch_cycles(size)
        assert tiny_pipe.drain_saved_cycles(size, prev, prev_cost=mnist_pipe) == (
            tiny_pipe.batch_cycles(size) - cross
        )

    def test_cross_pair_differs_from_own_pair_cost(self, tiny_pipe, mnist_pipe):
        # A large predecessor network covers the receiver's prestage very
        # differently from the receiver's own 4-batch — the PR 4
        # assumption the cross probe replaces.
        own = tiny_pipe.warm_batch_cycles(2, 4)
        cross = tiny_pipe.warm_batch_cycles(2, 4, prev_cost=mnist_pipe)
        assert cross != own

    def test_same_network_prev_cost_falls_back_to_own_pair(
        self, tiny_pipe, tiny_config
    ):
        twin = ScheduledBatchCost(tiny_config, pipeline=True)
        assert tiny_pipe.warm_batch_cycles(2, 4, prev_cost=twin) == (
            tiny_pipe.warm_batch_cycles(2, 4)
        )
        assert tiny_pipe.warm_batch_cycles(2, 4, prev_cost=tiny_pipe) == (
            tiny_pipe.warm_batch_cycles(2, 4)
        )

    def test_unpipelined_predecessor_falls_back(self, tiny_pipe):
        plain = ScheduledBatchCost("mnist")  # no pipeline ops
        assert tiny_pipe.warm_batch_cycles(2, 4, prev_cost=plain) == (
            tiny_pipe.warm_batch_cycles(2, 4)
        )

    def test_scheduled_model_supports_cross_pairs(self, tiny_qnet, mnist_pipe):
        scheduled = ScheduledBatchCost(qnet=tiny_qnet, pipeline=True)
        # A receiver built from a quantized network, a predecessor from a
        # zoo name: the op model is network-agnostic, so mixing works.
        prev = mnist_pipe
        cross = scheduled.warm_batch_cycles(1, 2, prev_cost=prev)
        assert 0 < cross <= scheduled.batch_cycles(1)


class TestCrossTenantServing:
    def test_two_shape_tenants_share_one_array(self, tiny_pipe, mnist_pipe):
        """Regression: warm hand-offs across tenants price the real pair.

        Two tenants with different network shapes alternate on a single
        pipelined array; every warm batch whose predecessor belongs to
        the *other* tenant must be charged the cross-network pair cost,
        not the receiving tenant's own pair cost.
        """
        # Deterministic alternation: both tenants offer evenly-spaced
        # requests, far faster than service, so the single array runs
        # back to back and hand-offs alternate between the networks.
        tenants = [
            TenantSpec(name="tiny", trace=uniform_trace(200000.0, 30)),
            TenantSpec(name="mnist", trace=uniform_trace(200000.0, 30), cost=mnist_pipe),
        ]
        server = ServerConfig(
            cost=tiny_pipe,
            arrays=1,
            pipeline=True,
        )
        report = ServingSimulator(server=server, tenants=tenants).run()
        models = {"tiny": tiny_pipe, "mnist": mnist_pipe}
        cross_handoffs = 0
        for previous, batch in zip(report.batches, report.batches[1:]):
            if not batch.warm:
                continue
            receiver = models[batch.tenant]
            prev_model = models[previous.tenant]
            expected = receiver.warm_batch_cycles(
                batch.size, previous.size, prev_cost=prev_model
            )
            assert batch.cycles == expected
            if previous.tenant != batch.tenant:
                cross_handoffs += 1
                # And the charge differs from the PR 4 assumption
                # whenever the networks' pair costs differ.
                own = receiver.warm_batch_cycles(batch.size, previous.size)
                if own != expected:
                    assert batch.cycles != own
        assert cross_handoffs > 0  # the scenario really exercised it

    def test_streaming_path_matches_record_path_across_tenants(
        self, tiny_pipe, mnist_pipe
    ):
        tenants = [
            TenantSpec(name="tiny", trace=uniform_trace(150000.0, 25)),
            TenantSpec(name="mnist", trace=uniform_trace(150000.0, 25), cost=mnist_pipe),
        ]
        server = ServerConfig(cost=tiny_pipe, arrays=1, pipeline=True)
        simulator = ServingSimulator(server=server, tenants=tenants)
        record = simulator.run()
        fast = simulator.run(record_requests=False)
        assert fast.warm_batches == record.warm_batches
        assert fast.makespan_us == record.makespan_us
        assert fast.batch_size_histogram() == record.batch_size_histogram()


class TestProbeCache:
    def test_probe_results_persist_across_model_instances(
        self, tiny_qnet, monkeypatch
    ):
        clear_probe_cache()
        first = ScheduledBatchCost(qnet=tiny_qnet, pipeline=True)
        cold = first.batch_cycles(2)
        warm = first.warm_batch_cycles(2)
        cached = probe_cache_size()
        assert cached >= 2

        # A rebuilt model with identical parameters must answer from the
        # cache without pricing the program again.
        second = ScheduledBatchCost(qnet=tiny_qnet, pipeline=True)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("program priced despite a cache hit")

        monkeypatch.setattr(costs, "program_batch_cycles", boom)
        monkeypatch.setattr(costs, "program_steady_cycles", boom)
        assert second.batch_cycles(2) == cold
        assert second.warm_batch_cycles(2) == warm
        assert probe_cache_size() == cached

    def test_clear_probe_cache(self):
        clear_probe_cache()
        ScheduledBatchCost("tiny").batch_cycles(1)
        assert probe_cache_size() == 1
        clear_probe_cache()
        assert probe_cache_size() == 0
