"""Serving-policy protocols: admission, deadline batching, dispatch, tenants."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig
from repro.serve import (
    AdmitAll,
    ArrayPool,
    BatchPolicy,
    ChainedAdmission,
    CostBank,
    DeadlineAdmission,
    DeadlineBatcher,
    DispatchContext,
    GreedyWhenIdleDispatch,
    LeastRecentDispatch,
    QueueLimitAdmission,
    QueuedRequest,
    RequestQueue,
    RoundRobinDispatch,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    TenantSpec,
    make_serving_policy,
    poisson_trace,
    replay_trace,
    uniform_trace,
)
from repro.serve.policies import (
    ADMISSION_POLICIES,
    BATCHING_POLICIES,
    DISPATCH_POLICIES,
    SERVING_POLICIES,
)


@pytest.fixture(scope="module")
def cost(tiny_qnet):
    return ScheduledBatchCost(qnet=tiny_qnet)


def overload_trace(cost, count=64, multiplier=3.0, seed=11):
    rate = multiplier * cost.config.clock_mhz * 1e6 / cost.batch_cycles(1)
    return poisson_trace(rate, count, np.random.default_rng(seed))


def fill(queue, arrivals, deadline_us=math.inf, start=0):
    for offset, arrival in enumerate(arrivals):
        queue.append(
            QueuedRequest(
                index=start + offset, arrival_us=arrival, deadline_us=deadline_us
            )
        )


class TestRegistries:
    def test_registry_names_resolve(self):
        assert set(ADMISSION_POLICIES) == {
            "admit-all",
            "queue-limit",
            "deadline",
            "degraded",
        }
        assert set(BATCHING_POLICIES) == {"max-wait", "deadline"}
        assert set(DISPATCH_POLICIES) == {
            "least-recent",
            "round-robin",
            "prefer-warm",
            "greedy",
            "greedy-backlog",
        }
        assert BATCHING_POLICIES["max-wait"] is BatchPolicy
        assert BATCHING_POLICIES["deadline"] is DeadlineBatcher

    @pytest.mark.parametrize("name", SERVING_POLICIES)
    def test_presets_build_triples(self, name):
        admission, batching, dispatch = make_serving_policy(name, max_batch=4)
        assert batching.max_batch == 4
        assert admission.describe()
        assert dispatch.describe()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            make_serving_policy("imaginary")

    def test_queue_limit_chains_onto_preset(self):
        admission, _, _ = make_serving_policy("fifo", queue_limit=3)
        assert isinstance(admission, QueueLimitAdmission)
        admission, _, _ = make_serving_policy("deadline", queue_limit=3)
        assert isinstance(admission, ChainedAdmission)

    def test_server_config_from_policy(self, cost):
        server = ServerConfig.from_policy(
            "deadline", cost, max_batch=4, deadline_us=5000.0, arrays=2
        )
        assert isinstance(server.batching, DeadlineBatcher)
        assert server.arrays == 2
        assert "deadline" in server.describe()
        payload = server.policy_json()
        assert payload["admission"] == "shed-infeasible"
        assert payload["deadline_us"] == 5000.0
        with pytest.raises(ConfigError):
            ServerConfig.from_policy("fifo", cost, dispatch="imaginary")

    def test_server_config_defaults_are_legacy(self, cost):
        server = ServerConfig(cost=cost)
        assert isinstance(server.admission, AdmitAll)
        assert isinstance(server.batching, BatchPolicy)
        assert isinstance(server.dispatch, LeastRecentDispatch)

    def test_heterogeneous_config_counts(self, cost):
        configs = (AcceleratorConfig(), AcceleratorConfig().with_array(8, 8))
        server = ServerConfig(cost=cost, array_configs=configs)
        assert server.arrays == 2
        with pytest.raises(ConfigError):
            ServerConfig(cost=cost, arrays=3, array_configs=configs)


class TestAdmission:
    def test_admit_all(self, cost):
        request = QueuedRequest(index=0, arrival_us=0.0)
        assert AdmitAll().admit(request, 0.0, RequestQueue(), ArrayPool(1))

    def test_zero_capacity_sheds_everything(self, cost):
        """max_queue=0 models zero admission capacity: every arrival sheds,
        nothing dispatches, and latency statistics stay empty."""
        trace = overload_trace(cost, count=16)
        server = ServerConfig(cost=cost, admission=QueueLimitAdmission(0))
        report = ServingSimulator(trace, server=server).run()
        assert report.shed_count == 16
        assert report.shed_rate == 1.0
        assert report.completed == 0
        assert not report.batches
        assert report.throughput_rps == 0.0
        assert report.latency_summary()["total"]["p99_us"] == 0.0

    def test_queue_limit_sheds_overflow_only(self, cost):
        trace = overload_trace(cost, count=32)
        server = ServerConfig(cost=cost, admission=QueueLimitAdmission(4))
        report = ServingSimulator(trace, server=server).run()
        assert 0 < report.shed_count < 32
        assert report.completed == 32 - report.shed_count

    def test_deadline_admission_sheds_infeasible(self, cost):
        """A request whose deadline precedes even an immediate solo dispatch
        is shed at arrival."""
        policy = DeadlineAdmission()
        policy.bind(cost)
        compute = cost.config.cycles_to_us(cost.batch_cycles(1))
        queue, pool = RequestQueue(), ArrayPool(1)
        hopeless = QueuedRequest(index=0, arrival_us=100.0, deadline_us=50.0)
        tight = QueuedRequest(
            index=1, arrival_us=100.0, deadline_us=100.0 + compute + 1.0
        )
        unbounded = QueuedRequest(index=2, arrival_us=100.0)
        assert not policy.admit(hopeless, 100.0, queue, pool)
        assert policy.admit(tight, 100.0, queue, pool)
        assert policy.admit(unbounded, 100.0, queue, pool)

    def test_deadline_admission_accounts_in_flight_work(self, cost):
        """Every array busy pushes the estimated start to the soonest
        in-flight completion: a request that would squeak through on an
        idle pool is shed when the array is mid-batch."""
        policy = DeadlineAdmission()
        policy.bind(cost)
        compute = cost.config.cycles_to_us(cost.batch_cycles(1))
        pool = ArrayPool(1)
        pool.claim(0)
        pool.charge(0, 1, compute, now_us=0.0)  # busy until `compute`
        queue = RequestQueue()
        # Feasible only if the array were idle: deadline = now + 1.5*compute,
        # but the batch in flight frees the array at `compute`, so the
        # earliest completion is 2*compute.
        request = QueuedRequest(
            index=0, arrival_us=0.0, deadline_us=1.5 * compute
        )
        assert not policy.admit(request, 0.0, queue, pool)
        relaxed = QueuedRequest(
            index=1, arrival_us=0.0, deadline_us=2.5 * compute
        )
        assert policy.admit(relaxed, 0.0, queue, pool)

    def test_chained_admission_requires_all(self, cost):
        chained = ChainedAdmission((AdmitAll(), QueueLimitAdmission(0)))
        request = QueuedRequest(index=0, arrival_us=0.0)
        assert not chained.admit(request, 0.0, RequestQueue(), ArrayPool(1))
        assert "+" in chained.describe()

    def test_validation(self):
        with pytest.raises(ConfigError):
            QueueLimitAdmission(-1)
        with pytest.raises(ConfigError):
            DeadlineAdmission(slack_us=-1.0)
        with pytest.raises(ConfigError):
            ChainedAdmission(())


class TestDeadlineBatcher:
    def test_launches_early_before_deadline_violation(self, cost):
        """With a deadline tighter than the coalescing wait, the batcher is
        ready at deadline - predicted_compute, not at max_wait."""
        batcher = DeadlineBatcher(max_batch=8, max_wait_us=10_000.0)
        batcher.bind(cost)
        queue = RequestQueue()
        deadline = 500.0 + 2_000.0
        fill(queue, [500.0], deadline_us=deadline)
        launch_by = deadline - batcher.predicted_compute_us(1)
        assert batcher.next_deadline_us(queue) == pytest.approx(launch_by)
        assert not batcher.ready(queue, launch_by - 1.0)
        assert batcher.ready(queue, launch_by)

    def test_deadline_already_past_at_arrival_is_ready_immediately(self, cost):
        """A queued request whose deadline has already passed dispatches at
        once — waiting cannot help it."""
        batcher = DeadlineBatcher(max_batch=8, max_wait_us=10_000.0)
        batcher.bind(cost)
        queue = RequestQueue()
        fill(queue, [100.0], deadline_us=50.0)
        assert batcher.ready(queue, 100.0)

    def test_no_deadline_falls_back_to_max_wait(self, cost):
        batcher = DeadlineBatcher(max_batch=8, max_wait_us=300.0)
        batcher.bind(cost)
        queue = RequestQueue()
        fill(queue, [100.0])
        assert batcher.next_deadline_us(queue) == pytest.approx(400.0)
        assert not batcher.ready(queue, 399.0)
        assert batcher.ready(queue, 400.0)

    def test_full_batch_ready_and_fifo_take(self, cost):
        batcher = DeadlineBatcher(max_batch=2)
        queue = RequestQueue()
        fill(queue, [1.0, 2.0, 3.0])
        assert batcher.ready(queue, 3.0)
        taken = batcher.take(queue)
        assert [request.index for request in taken] == [0, 1]
        assert len(queue) == 1

    def test_unbound_predictor_defaults_to_zero(self):
        batcher = DeadlineBatcher(max_batch=8, max_wait_us=1e6)
        queue = RequestQueue()
        fill(queue, [0.0], deadline_us=700.0)
        assert batcher.predicted_compute_us(4) == 0.0
        assert batcher.next_deadline_us(queue) == pytest.approx(700.0)

    def test_empty_queue(self, cost):
        batcher = DeadlineBatcher()
        queue = RequestQueue()
        assert not batcher.ready(queue, 1e9)
        assert batcher.next_deadline_us(queue) is None
        with pytest.raises(ConfigError):
            batcher.take(queue)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DeadlineBatcher(max_batch=0)
        with pytest.raises(ConfigError):
            DeadlineBatcher(max_wait_us=float("inf"))
        with pytest.raises(ConfigError):
            DeadlineBatcher(slack_us=float("nan"))

    def test_simulated_early_launch_beats_max_wait_p99(self, cost):
        """Acceptance shape: at saturation, the deadline policy's early
        launches and shedding keep served p99 below the max-wait batcher's
        on the same trace."""
        trace = overload_trace(cost, count=64, multiplier=3.0)
        deadline_us = 4.0 * cost.config.cycles_to_us(cost.batch_cycles(1))
        fifo = ServingSimulator(
            trace,
            server=ServerConfig.from_policy(
                "fifo", cost, max_wait_us=2000.0, deadline_us=deadline_us
            ),
        ).run()
        deadline = ServingSimulator(
            trace,
            server=ServerConfig.from_policy(
                "deadline", cost, max_wait_us=2000.0, deadline_us=deadline_us
            ),
        ).run()
        assert deadline.shed_count > 0
        assert (
            deadline.latency_summary()["total"]["p99_us"]
            < fifo.latency_summary()["total"]["p99_us"]
        )
        assert deadline.deadline_miss_rate < fifo.deadline_miss_rate

    def test_deadline_trace_overrides_relative_sla(self, cost):
        """A finite per-request deadline carried by the trace wins over the
        server's relative SLA; a request without its own deadline falls
        back to the configured SLA instead of going unbounded."""
        trace = replay_trace([100.0, 200.0], deadlines_us=[50.0, math.inf])
        server = ServerConfig.from_policy("deadline", cost, deadline_us=50_000.0)
        report = ServingSimulator(trace, server=server).run()
        assert report.requests[0].shed
        assert report.requests[0].deadline_us == 50.0
        assert not report.requests[1].shed
        assert report.requests[1].deadline_us == pytest.approx(200.0 + 50_000.0)


class TestDispatchPolicies:
    @staticmethod
    def ctx(pool, now=0.0, size=1, pipeline=False, durations=None):
        durations = durations or {}
        return DispatchContext(
            pool=pool,
            now_us=now,
            batch_size=size,
            pipeline=pipeline,
            duration_us=lambda i: durations.get(i, 1.0),
        )

    def test_round_robin_rotates(self):
        pool = ArrayPool(3)
        policy = RoundRobinDispatch()
        order = []
        for _ in range(3):
            array = policy.select(self.ctx(pool))
            pool.claim(array)
            order.append(array)
        assert order == [0, 1, 2]
        pool.release(1, 10.0)
        assert policy.select(self.ctx(pool, now=10.0)) == 1

    def test_least_recent_prefers_longest_idle(self):
        pool = ArrayPool(2)
        array, _ = pool.select(0.0)
        pool.release(array, 5.0)
        # Array 1 has never run: it is the least recently released.
        assert LeastRecentDispatch().select(self.ctx(pool, now=5.0)) == 1

    def test_least_recent_prefers_warm_in_pipeline_mode(self):
        pool = ArrayPool(2)
        array, _ = pool.select(0.0)
        pool.release(array, 5.0)
        ctx = self.ctx(pool, now=5.0, pipeline=True)
        assert LeastRecentDispatch().select(ctx) == 0  # warm beats longer-idle

    def test_greedy_picks_fastest_idle(self):
        pool = ArrayPool(2)
        ctx = self.ctx(pool, durations={0: 9.0, 1: 3.0})
        assert GreedyWhenIdleDispatch().select(ctx) == 1

    def test_no_idle_array_raises(self):
        pool = ArrayPool(1)
        pool.claim(0)
        with pytest.raises(ConfigError):
            LeastRecentDispatch().select(self.ctx(pool))


class TestHeterogeneousPool:
    def test_small_array_wins_while_large_is_busy(self, cost, tiny_qnet):
        """Greedy dispatch on a {16x16, 4x4} pool: the first request takes
        the large (faster) array; a request arriving while it is busy goes
        to the idle small array immediately instead of queueing for the
        large one."""
        configs = (AcceleratorConfig(), AcceleratorConfig().with_array(4, 4))
        small_cost = ScheduledBatchCost(
            qnet=tiny_qnet, accel_config=configs[1]
        )
        large_us = cost.config.cycles_to_us(cost.batch_cycles(1))
        trace = replay_trace([0.0, large_us / 2.0])
        server = ServerConfig(
            cost=cost,
            batching=BatchPolicy(max_batch=1, max_wait_us=0.0),
            dispatch=GreedyWhenIdleDispatch(),
            array_configs=configs,
        )
        report = ServingSimulator(trace, server=server).run()
        assert [batch.array for batch in report.batches] == [0, 1]
        # The small array charged its own (slower) cycle figure...
        assert report.batches[1].cycles == small_cost.batch_cycles(1)
        assert report.batches[1].cycles > report.batches[0].cycles
        # ...and still finished before the large array would have freed.
        assert report.batches[1].dispatch_us == pytest.approx(large_us / 2.0)
        assert report.requests[1].queueing_us == pytest.approx(0.0)

    def test_greedy_prefers_large_array_when_both_idle(self, cost):
        configs = (AcceleratorConfig(), AcceleratorConfig().with_array(4, 4))
        server = ServerConfig(
            cost=cost,
            batching=BatchPolicy(max_batch=1, max_wait_us=0.0),
            dispatch=GreedyWhenIdleDispatch(),
            array_configs=configs,
        )
        report = ServingSimulator(replay_trace([0.0]), server=server).run()
        assert report.batches[0].array == 0
        assert report.batches[0].cycles == cost.batch_cycles(1)

    def test_cost_bank_memoizes_per_config(self, cost):
        bank = CostBank()
        small = AcceleratorConfig().with_array(8, 8)
        assert bank.resolve(cost, None) is cost
        assert bank.resolve(cost, cost.config) is cost
        rebuilt = bank.resolve(cost, small)
        assert rebuilt is not cost
        assert rebuilt.config == small
        # Two arrays with the same configuration share one model.
        assert bank.resolve(cost, AcceleratorConfig().with_array(8, 8)) is rebuilt

    def test_cost_bank_rebuilds_analytic(self):
        by_name = ScheduledBatchCost("tiny", integrity="checksum")
        small = AcceleratorConfig().with_array(8, 8)
        rebuilt = CostBank().resolve(by_name, small)
        assert isinstance(rebuilt, ScheduledBatchCost)
        assert rebuilt.config == small
        assert rebuilt.compiled is by_name.compiled
        assert rebuilt.integrity == "checksum"
        assert rebuilt.batch_cycles(1) != by_name.batch_cycles(1)

    def test_execute_mode_rejects_heterogeneous_pool(self, cost, tiny_images):
        configs = (AcceleratorConfig(), AcceleratorConfig().with_array(8, 8))
        server = ServerConfig(cost=cost, array_configs=configs)
        with pytest.raises(ConfigError):
            ServingSimulator(
                replay_trace(np.linspace(0, 10, len(tiny_images))),
                server=server,
                images=tiny_images,
                execute=True,
            )


class TestMultiTenant:
    def two_tenant_report(self, cost, weights=(1.0, 1.0), count=48):
        """Two tenants, each offered ~1x one array's capacity (2x total)."""
        by_name = ScheduledBatchCost("tiny")
        rate = cost.config.clock_mhz * 1e6 / cost.batch_cycles(1)
        rng = np.random.default_rng(5)
        tenants = [
            TenantSpec(
                name="a",
                trace=poisson_trace(rate, count, rng),
                weight=weights[0],
            ),
            TenantSpec(
                name="b",
                trace=poisson_trace(rate, count, rng),
                cost=by_name,
                weight=weights[1],
            ),
        ]
        server = ServerConfig(
            cost=cost, batching=BatchPolicy(max_batch=4, max_wait_us=50.0)
        )
        return ServingSimulator(server=server, tenants=tenants).run()

    def test_neither_tenant_starves_at_2x_saturation(self, cost):
        report = self.two_tenant_report(cost)
        assert report.tenants is not None
        by_name = {entry["tenant"]: entry for entry in report.tenants}
        assert by_name["a"]["served"] == 48
        assert by_name["b"]["served"] == 48
        # Weighted-fair service: both tenants dispatch throughout the run,
        # not one after the other drains.
        first = [batch.tenant for batch in report.batches[:10]]
        assert "a" in first and "b" in first
        # Equal weights: comparable latency (neither queue was parked).
        mean_a = by_name["a"]["latency_us"]["mean_us"]
        mean_b = by_name["b"]["latency_us"]["mean_us"]
        assert 0.5 < mean_a / mean_b < 2.0

    def test_weighted_tenant_gets_priority(self, cost):
        fair = self.two_tenant_report(cost, weights=(1.0, 1.0))
        skewed = self.two_tenant_report(cost, weights=(4.0, 1.0))
        fair_a = {e["tenant"]: e for e in fair.tenants}["a"]
        skewed_a = {e["tenant"]: e for e in skewed.tenants}["a"]
        assert (
            skewed_a["latency_us"]["mean_us"] < fair_a["latency_us"]["mean_us"]
        )

    def test_tenant_breakdown_in_report(self, cost):
        report = self.two_tenant_report(cost)
        payload = report.to_dict()
        assert payload["tenants"] == report.tenants
        assert "tenant a" in report.format_table()
        shares = [entry["served_share"] for entry in report.tenants]
        assert sum(shares) == pytest.approx(1.0)

    def test_tenant_validation(self, cost, tiny_config):
        trace = uniform_trace(100.0, 4)
        with pytest.raises(ConfigError):
            TenantSpec(name="a", trace=trace, weight=0.0)
        with pytest.raises(ConfigError):
            TenantSpec(name="a", trace=trace, deadline_us=-1.0)
        with pytest.raises(ConfigError):
            ServingSimulator(
                trace,
                server=ServerConfig(cost=cost),
                tenants=[TenantSpec(name="a", trace=trace)],
            )

    def test_shared_spec_policy_instance_not_cross_bound(self, cost):
        """One DeadlineBatcher instance reused by two TenantSpecs must not
        end up predicting from the last-bound tenant's cost model."""
        from repro.serve.core import TenantState

        shared = DeadlineBatcher(max_batch=4)
        other = ScheduledBatchCost("mlp")  # a different network
        server = ServerConfig(cost=cost)
        trace = uniform_trace(100.0, 4)
        first = TenantState(
            TenantSpec(name="a", trace=trace, batching=shared), 0, server
        )
        second = TenantState(
            TenantSpec(name="b", trace=trace, cost=other, batching=shared),
            1,
            server,
        )
        assert first.batching is not second.batching
        assert first.batching.predicted_compute_us(1) != (
            second.batching.predicted_compute_us(1)
        )

    def test_multi_tenant_rejects_execute(self, cost, tiny_images):
        trace = uniform_trace(100.0, 4)
        tenants = [
            TenantSpec(name="a", trace=trace),
            TenantSpec(name="b", trace=trace),
        ]
        with pytest.raises(ConfigError):
            ServingSimulator(
                server=ServerConfig(cost=cost),
                tenants=tenants,
                images=tiny_images,
                execute=True,
            )


class TestLegacyEquivalence:
    def test_classic_constructor_matches_fifo_server(self, cost):
        """The classic configuration — a ServerConfig holding only a cost
        model and a batching policy — and the fifo preset produce
        identical reports."""
        trace = overload_trace(cost, count=32)
        policy = BatchPolicy(max_batch=8, max_wait_us=30.0)
        classic = ServingSimulator(
            trace, server=ServerConfig(cost=cost, batching=policy)
        ).run()
        preset = ServerConfig.from_policy("fifo", cost, max_batch=8, max_wait_us=30.0)
        explicit = ServingSimulator(trace, server=preset).run()
        a, b = classic.to_dict(), explicit.to_dict()
        for key in ("wall_seconds", "wall_rps"):
            a.pop(key), b.pop(key)
        assert a == b

    def test_server_and_legacy_args_conflict(self, cost):
        """A ServerConfig is the only way to configure the simulator: the
        classic positional arguments and keywords no longer exist."""
        trace = uniform_trace(100.0, 4)
        server = ServerConfig(cost=cost)
        with pytest.raises(TypeError):
            ServingSimulator(trace, BatchPolicy(), cost)
        with pytest.raises(TypeError):
            ServingSimulator(trace, server=server, arrays=4)
        with pytest.raises(TypeError):
            ServingSimulator(trace)
        assert ServingSimulator(trace, server=server).run().completed == 4
        with pytest.raises(ConfigError):
            ServingSimulator(server=server)
        with pytest.raises(ConfigError):
            ServingSimulator(server=server, tenants=[])

    def test_repeated_runs_are_reproducible(self, cost):
        """Stateful dispatch policies (the round-robin pointer) reset per
        run: the same simulator produces identical placements twice."""
        trace = overload_trace(cost, count=17)
        server = ServerConfig.from_policy(
            "fifo", cost, arrays=2, dispatch="round-robin"
        )
        simulator = ServingSimulator(trace, server=server)
        first = [batch.array for batch in simulator.run().batches]
        second = [batch.array for batch in simulator.run().batches]
        assert first == second

    def test_tenants_do_not_share_chained_admission_state(self, cost):
        """Server-default policies are deep-copied per tenant: with a
        chained deadline+queue-limit admission, each tenant's deadline
        shedder keeps its own cost predictor instead of all tenants
        predicting from the last-bound tenant's network."""
        from repro.serve.core import TenantState

        other = ScheduledBatchCost(
            "tiny", accel_config=AcceleratorConfig().with_array(4, 4)
        )
        server = ServerConfig.from_policy(
            "deadline", cost, deadline_us=1000.0, queue_limit=5
        )
        trace = uniform_trace(100.0, 4)
        first = TenantState(TenantSpec(name="a", trace=trace), 0, server)
        second = TenantState(
            TenantSpec(name="b", trace=trace, cost=other), 1, server
        )
        shed_a = first.admission.policies[0]
        shed_b = second.admission.policies[0]
        assert shed_a is not shed_b
        queue, pool = RequestQueue(), ArrayPool(1)
        assert shed_a.earliest_done_us(0.0, queue, pool) != (
            shed_b.earliest_done_us(0.0, queue, pool)
        )
