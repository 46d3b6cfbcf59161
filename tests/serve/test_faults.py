"""Fault layer: plan parsing, deterministic injection, retry/quarantine.

Covers :mod:`repro.serve.faults` and the fault paths woven through the
serving core and both drivers: the seeded :class:`FaultInjector`'s
reproducibility, the bounded retry/requeue split, array quarantine with
timed readmission, goodput accounting, and the streaming fast path's
refusal of fault plans.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    load_fault_plan,
    poisson_trace,
)
from repro.serve.core import group_requeues


@pytest.fixture(scope="module")
def tiny_cost():
    return ScheduledBatchCost("tiny")


def fault_server(cost, plan=None, retry=None, **overrides):
    settings = dict(
        max_batch=8, max_wait_us=2000.0, arrays=2, network_name="tiny"
    )
    settings.update(overrides)
    return ServerConfig.from_policy(
        "fifo", cost, fault_plan=plan, retry=retry, **settings
    )


def saturating_trace(count=200, seed=7):
    return poisson_trace(
        rate_rps=5000.0, count=count, rng=np.random.default_rng(seed)
    )


class TestFaultPlan:
    def test_empty_detection(self):
        assert FaultPlan().empty
        assert not FaultPlan(crash_batches=(3,)).empty
        assert not FaultPlan(crash_rate=0.1).empty
        assert not FaultPlan(array_down=((0, 100.0, 200.0),)).empty

    def test_detect_delay_prefers_hang(self):
        assert FaultPlan(hang_us=150.0).detect_delay_us(900.0) == 150.0
        # Without a hang, the crash surfaces when the batch would finish.
        assert FaultPlan().detect_delay_us(900.0) == 900.0

    def test_round_trips_through_dict(self):
        plan = FaultPlan(
            crash_batches=(1, 4),
            crash_rate=0.05,
            max_crashes=3,
            hang_us=10.0,
            array_down=((1, 100.0, 500.0),),
            seed=9,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_inline_spec_parses(self):
        plan = load_fault_plan("crash_batches=1:4,crash_rate=0.02,seed=11")
        assert plan.crash_batches == (1, 4)
        assert plan.crash_rate == 0.02
        assert plan.seed == 11

    def test_inline_array_down_windows(self):
        plan = load_fault_plan("array_down=0@100:500+1@900:950")
        assert plan.array_down == ((0, 100.0, 500.0), (1, 900.0, 950.0))

    def test_json_spec_parses(self):
        plan = load_fault_plan('{"crash_batches": [2], "hang_us": 5.0}')
        assert plan.crash_batches == (2,)
        assert plan.hang_us == 5.0

    def test_file_spec_parses(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"crash_rate": 0.1, "seed": 3}')
        plan = load_fault_plan(str(path))
        assert plan.crash_rate == 0.1
        assert plan.seed == 3

    def test_bad_specs_raise(self):
        with pytest.raises(ConfigError):
            load_fault_plan("crash_rate=not-a-number")
        with pytest.raises(ConfigError):
            load_fault_plan("no_such_field=1")
        with pytest.raises(ConfigError):
            load_fault_plan('{"crash_rate": 2.0}')  # probability > 1
        with pytest.raises(ConfigError):
            load_fault_plan("array_down=0@500:100")  # window ends first

    #: Table of invalid plan specs: (id, spec, fragment the ConfigError
    #: must contain — every rejection names the offending field).
    INVALID_SPECS = [
        ("negative-crash-rate", '{"crash_rate": -0.5}', "crash_rate"),
        ("crash-rate-above-one", "crash_rate=1.5", "crash_rate"),
        ("negative-corrupt-rate", '{"corrupt_rate": -0.1}', "corrupt_rate"),
        ("corrupt-rate-above-one", "corrupt_rate=2", "corrupt_rate"),
        ("zero-corrupt-bits", '{"corrupt_bits": 0}', "corrupt_bits"),
        ("too-many-corrupt-bits", "corrupt_bits=17", "corrupt_bits"),
        ("bad-corrupt-target", "corrupt_target=bias", "corrupt_target"),
        ("negative-max-crashes", '{"max_crashes": -1}', "max_crashes"),
        ("negative-hang", "hang_us=-10", "hang_us"),
        ("infinite-hang", '{"hang_us": Infinity}', "hang_us"),
        ("unknown-key", '{"flip_rate": 0.1}', "flip_rate"),
        ("unknown-inline-key", "flip_rate=0.1", "flip_rate"),
        ("inverted-window", '{"array_down": [[0, 500.0, 100.0]]}', "array_down"),
        (
            "overlapping-windows",
            '{"array_down": [[0, 100.0, 500.0], [0, 400.0, 900.0]]}',
            "overlap",
        ),
        ("empty-failure-group", '{"failure_groups": [[[], 0.0, 10.0]]}', "arrays"),
        (
            "inverted-group-window",
            '{"failure_groups": [[[0, 1], 50.0, 10.0]]}',
            "failure_groups",
        ),
        ("malformed-window", "array_down=0-100-500", "array@start:end"),
        ("malformed-group", "failure_groups=0:1@", "array:array@start:end"),
        ("not-key-value", "crash_rate", "key=value"),
        ("json-not-object", "{", "JSON"),
    ]

    @pytest.mark.parametrize(
        ("spec", "fragment"),
        [entry[1:] for entry in INVALID_SPECS],
        ids=[entry[0] for entry in INVALID_SPECS],
    )
    def test_invalid_specs_name_the_field(self, spec, fragment):
        with pytest.raises(ConfigError) as excinfo:
            load_fault_plan(spec)
        assert fragment in str(excinfo.value)

    def test_adjacent_windows_do_not_overlap(self):
        # end == start of the next window is back-to-back, not overlap.
        plan = load_fault_plan(
            '{"array_down": [[0, 100.0, 500.0], [0, 500.0, 900.0]]}'
        )
        assert len(plan.array_down) == 2
        # Same windows on different arrays never conflict either.
        load_fault_plan('{"array_down": [[0, 0.0, 10.0], [1, 0.0, 10.0]]}')

    def test_corruption_round_trips_through_dict(self):
        plan = FaultPlan(
            corrupt_batches=(2, 7),
            corrupt_rate=0.1,
            corrupt_bits=3,
            corrupt_target="accumulator",
            failure_groups=(((0, 2), 100.0, 400.0),),
            seed=5,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_inline_corruption_and_groups_parse(self):
        plan = load_fault_plan(
            "corrupt_batches=2:7,corrupt_rate=0.1,corrupt_bits=3,"
            "corrupt_target=accumulator,failure_groups=0:2@100:400"
        )
        assert plan.corrupt_batches == (2, 7)
        assert plan.corrupt_rate == 0.1
        assert plan.corrupt_bits == 3
        assert plan.corrupt_target == "accumulator"
        assert plan.failure_groups == (((0, 2), 100.0, 400.0),)
        assert plan.corrupts and not plan.empty


class TestFaultInjector:
    def test_crash_batch_ordinals_match_once(self):
        # Ordinals are 0-based placement counts: (1,) dooms the second
        # batch the core places, exactly once.
        injector = FaultInjector(FaultPlan(crash_batches=(1,)))
        assert not injector.should_crash(0, 0.0, members=())
        assert injector.should_crash(0, 10.0, members=())
        assert not injector.should_crash(0, 20.0, members=())

    def test_crash_rate_is_seed_deterministic(self):
        plan = FaultPlan(crash_rate=0.3, seed=5)
        draws = []
        for _ in range(2):
            injector = FaultInjector(plan)
            draws.append(
                [injector.should_crash(0, float(i), ()) for i in range(50)]
            )
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_max_crashes_caps_injection(self):
        injector = FaultInjector(FaultPlan(crash_rate=1.0, max_crashes=2))
        hits = [injector.should_crash(0, float(i), ()) for i in range(10)]
        assert sum(hits) == 2

    def test_array_down_window(self):
        injector = FaultInjector(
            FaultPlan(array_down=((1, 100.0, 200.0),))
        )
        assert not injector.should_crash(0, 150.0, ())  # other array
        assert injector.should_crash(1, 150.0, ())
        assert not injector.should_crash(1, 250.0, ())  # window passed


def _request(attempts: int, deadline_us: float = float("inf")):
    return type(
        "Req", (), {"attempts": attempts, "deadline_us": deadline_us}
    )()


class TestRetryPolicy:
    def test_backoff_grows_per_attempt(self):
        retry = RetryPolicy(backoff_us=100.0, backoff_multiplier=2.0)
        assert retry.requeue_at_us(1000.0, _request(0)) == 1100.0
        assert retry.requeue_at_us(1000.0, _request(1)) == 1200.0
        assert retry.requeue_at_us(1000.0, _request(2)) == 1400.0

    def test_backoff_clamped_to_deadline(self):
        retry = RetryPolicy(backoff_us=10_000.0)
        # Backoff would overshoot the deadline: requeue at the deadline.
        assert retry.requeue_at_us(1000.0, _request(0, 4000.0)) == 4000.0
        # A deadline already in the past clamps to now (retry immediately).
        assert retry.requeue_at_us(1000.0, _request(0, 500.0)) == 1000.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_us=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(recovery_us=-5.0)


def test_group_requeues_coalesces_consecutive_instants():
    groups = group_requeues([("a", 10.0), ("b", 10.0), ("c", 25.0), ("d", 10.0)])
    assert groups == [
        (10.0, ("a", "b")),
        (25.0, ("c",)),
        (10.0, ("d",)),
    ]
    assert group_requeues([]) == []


class TestSimulatedFaults:
    def test_transient_crashes_all_requests_complete(self, tiny_cost):
        plan = FaultPlan(crash_batches=(1, 3), crash_rate=0.05, seed=3)
        report = ServingSimulator(
            saturating_trace(), server=fault_server(tiny_cost, plan)
        ).run()
        assert report.goodput == 1.0
        assert report.failed_count == 0
        faults = report.faults
        assert faults["crashes"] >= 2
        assert faults["retries"] > 0
        assert faults["failed"] == 0
        # Every quarantined array re-entered service within the bounded
        # readmission delay.
        assert faults["quarantines"] == faults["recoveries"] > 0
        assert faults["recovery_max_us"] <= RetryPolicy().recovery_us

    def test_exhausted_budget_fails_requests(self, tiny_cost):
        # Budget of one attempt: any crashed batch's members terminally
        # fail instead of retrying.
        plan = FaultPlan(crash_batches=(1,), seed=3)
        report = ServingSimulator(
            saturating_trace(),
            server=fault_server(
                tiny_cost, plan, retry=RetryPolicy(max_attempts=1)
            ),
        ).run()
        assert report.failed_count > 0
        assert report.goodput < 1.0
        assert report.faults["retries"] == 0
        assert report.faults["failed"] == report.failed_count
        # Failed requests are terminal in the record table too.
        failed = [r for r in report.requests if r.failed]
        assert len(failed) == report.failed_count
        assert all(not r.shed for r in failed)

    def test_crashed_batches_are_flagged_in_the_table(self, tiny_cost):
        plan = FaultPlan(crash_batches=(1,), seed=3)
        report = ServingSimulator(
            saturating_trace(), server=fault_server(tiny_cost, plan)
        ).run()
        crashed = [b for b in report.batches if b.crashed]
        assert len(crashed) == 1
        # The retried members reappear in a later, completing batch.
        members = set(crashed[0].request_indices)
        completing = [
            b
            for b in report.batches
            if not b.crashed and members & set(b.request_indices)
        ]
        assert completing

    def test_no_plan_attaches_no_fault_stats(self, tiny_cost):
        report = ServingSimulator(
            saturating_trace(), server=fault_server(tiny_cost)
        ).run()
        assert report.faults is None
        assert report.failed_count == 0
        assert report.goodput == 1.0

    def test_streaming_fast_path_refuses_fault_plans(self, tiny_cost):
        plan = FaultPlan(crash_batches=(1,))
        simulator = ServingSimulator(
            saturating_trace(count=40), server=fault_server(tiny_cost, plan)
        )
        with pytest.raises(ConfigError):
            simulator.run(record_requests=False)

    def test_deterministic_rerun(self, tiny_cost):
        plan = FaultPlan(crash_rate=0.1, seed=17)
        reports = [
            ServingSimulator(
                saturating_trace(), server=fault_server(tiny_cost, plan)
            ).run()
            for _ in range(2)
        ]
        first, second = (r.to_dict() for r in reports)
        for report in (first, second):
            report.pop("wall_seconds"), report.pop("wall_rps")
        assert first == second

