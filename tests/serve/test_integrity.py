"""Integrity layer: ABFT detection, canaries, degraded admission, pricing.

Covers :mod:`repro.serve.integrity` and the corruption paths woven
through the executor, the cost models, and both serving drivers: the
property that the ABFT column checksums detect *every* in-envelope bit
flip across zoo networks (hypothesis-driven), the equally important
non-property that output-target flips sail through (undetected path ==
no-check config), deterministic canary streams, the degraded-mode
admission policy, the streaming fast path's refusal of armed integrity,
the check-overhead pricing knob, and deterministic reruns under
corruption plans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serve import (
    CorruptionSpec,
    DegradedModeAdmission,
    DetectedCorruptionError,
    FaultPlan,
    IntegrityPolicy,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    poisson_trace,
)
from repro.serve.integrity import (
    CanaryStream,
    apply_corruption,
    batch_fingerprint,
    checksums_match,
    column_checksums,
    output_checksums,
)
from repro.serve.workers import CompiledStreamExecutor


# ---- fixtures ------------------------------------------------------------

#: Zoo entries the property tests sweep: a capsule network and a
#: conventional baseline, both small enough for per-example execution.
PROPERTY_NETWORKS = ("tiny", "mlp")

_EXECUTORS: dict[str, CompiledStreamExecutor] = {}


def executor_for(name: str) -> CompiledStreamExecutor:
    if name not in _EXECUTORS:
        _EXECUTORS[name] = CompiledStreamExecutor(name)
    return _EXECUTORS[name]


def images_for(executor: CompiledStreamExecutor, count: int = 2) -> np.ndarray:
    size = executor.image_size
    rng = np.random.default_rng(42)
    return rng.random((count, size, size))


@pytest.fixture(scope="module")
def tiny_cost():
    return ScheduledBatchCost("tiny")


def integrity_server(cost, plan=None, integrity=None, **overrides):
    settings = dict(
        max_batch=8, max_wait_us=2000.0, arrays=2, network_name="tiny"
    )
    settings.update(overrides)
    return ServerConfig.from_policy(
        "fifo", cost, fault_plan=plan, integrity=integrity, **settings
    )


def saturating_trace(count=200, seed=7):
    return poisson_trace(
        rate_rps=5000.0, count=count, rng=np.random.default_rng(seed)
    )


# ---- policy / spec validation --------------------------------------------


class TestIntegrityPolicy:
    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            IntegrityPolicy(mode="paranoid")
        with pytest.raises(ConfigError):
            IntegrityPolicy(canary_every=-1)

    def test_mode_semantics(self):
        off = IntegrityPolicy()
        assert not off.enabled and not off.checks and not off.canary
        checks = IntegrityPolicy(mode="checksum")
        assert checks.enabled and checks.checks and not checks.canary
        full = IntegrityPolicy(mode="checksum+canary")
        assert full.canary and full.canary_every > 0  # default period

    def test_detects_is_deterministic_per_target(self):
        policy = IntegrityPolicy(mode="checksum")
        assert policy.detects("weight")
        assert policy.detects("accumulator")
        assert not policy.detects("output")
        assert not IntegrityPolicy().detects("weight")


# ---- ABFT numerics properties --------------------------------------------


class TestApplyCorruption:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        bits=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_flip_is_single_element_and_bounded(self, seed, bits):
        clean = np.arange(24, dtype=np.int64).reshape(4, 6)
        spec = CorruptionSpec(target="weight", bits=bits, seed=seed)
        corrupted = apply_corruption(clean, spec)
        delta = corrupted - clean
        assert np.count_nonzero(delta) == 1
        assert 0 < abs(int(delta.sum())) <= 0xFFFF
        # Same seed, same flip: corruption is bit-reproducible.
        assert np.array_equal(corrupted, apply_corruption(clean, spec))

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_column_checksums_always_see_the_flip(self, seed):
        clean = np.arange(30, dtype=np.int64).reshape(5, 6)
        corrupted = apply_corruption(
            clean, CorruptionSpec(target="weight", bits=1, seed=seed)
        )
        assert not checksums_match(
            column_checksums(corrupted), column_checksums(clean)
        )
        assert not checksums_match(
            output_checksums(corrupted), output_checksums(clean)
        )

    def test_fingerprint_is_order_sensitive(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([3, 2, 1], dtype=np.int64)
        assert batch_fingerprint(a) != batch_fingerprint(b)
        assert batch_fingerprint(a) == batch_fingerprint(a.copy())


class TestStreamExecutorABFT:
    """The live detection path: corrupted numerics through real GEMMs."""

    @pytest.mark.parametrize("network", PROPERTY_NETWORKS)
    @pytest.mark.parametrize("target", ["weight", "accumulator"])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_checksums_detect_any_single_bit_flip(self, network, target, seed):
        executor = executor_for(network)
        spec = CorruptionSpec(target=target, bits=1, seed=seed)
        with pytest.raises(DetectedCorruptionError):
            executor.execute_corrupt(
                0, images_for(executor), spec, verify=True
            )

    @pytest.mark.parametrize("network", PROPERTY_NETWORKS)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_output_flips_sail_through_checks(self, network, seed):
        # The undetected path serves exactly what the no-check config
        # serves: verification changes nothing for out-of-envelope flips.
        executor = executor_for(network)
        spec = CorruptionSpec(target="output", bits=4, seed=seed)
        unchecked = executor.execute_corrupt(
            0, images_for(executor), spec, verify=False
        )
        checked = executor.execute_corrupt(
            0, images_for(executor), spec, verify=True
        )
        assert np.array_equal(unchecked, checked)

    @pytest.mark.parametrize("network", PROPERTY_NETWORKS)
    def test_unverified_corruption_completes(self, network):
        # Without checks a corrupted batch completes and returns
        # predictions shaped like a clean run — silent by design.
        executor = executor_for(network)
        images = images_for(executor)
        spec = CorruptionSpec(target="weight", bits=16, seed=99)
        corrupted = executor.execute_corrupt(0, images, spec, verify=False)
        clean = executor.execute(0, images)
        assert corrupted.shape == clean.shape

    @pytest.mark.parametrize("target", ["weight", "accumulator"])
    def test_victim_inside_a_fused_capsule_run(self, target):
        # The ClassCaps per-capsule GEMMs execute as one contraction; a
        # flip aimed at capsule i's GEMM must still hit that capsule's
        # own (K, N) tile or (B, 1, N) accumulator, exactly as the
        # instruction would on its own, and raise the same detection.
        import random

        from repro.capsnet.hwops import chunked_saturating_matmul
        from repro.compiler.isa import Opcode
        from repro.fixedpoint.arith import requantize

        stream = executor_for("tiny")._executor
        program = stream.program
        gemms = [
            pos
            for pos, instr in enumerate(program.instructions)
            if instr.opcode in (Opcode.GEMM, Opcode.GROUPED_GEMM)
        ]

        def victim(seed):
            return program.instructions[gemms[random.Random(seed).randrange(len(gemms))]]

        seed = next(s for s in range(1000) if victim(s).attrs.get("job") == "fc_capsule_5")
        spec = CorruptionSpec(target=target, bits=16, seed=seed)
        attrs = victim(seed).attrs
        images = images_for(executor_for("tiny"), count=3)[:, np.newaxis]
        clean = stream.run_batch(images)
        corrupted = stream.run_batch(images, corruption=spec)

        capsule = clean.primary_raw[:, 5]
        weights = stream.params["classcaps_w"][5]
        tile = weights.reshape(weights.shape[0] * weights.shape[1], -1).T
        rows = stream.accelerator.config.rows
        if target == "weight":
            tile = apply_corruption(tile, spec)
            acc = chunked_saturating_matmul(capsule, tile, attrs["acc_fmt"], rows)
        else:
            acc = chunked_saturating_matmul(capsule, tile, attrs["acc_fmt"], rows)
            acc = apply_corruption(acc[:, np.newaxis], spec)[:, 0]
        expected = clean.u_hat_raw.copy()
        expected[:, 5] = requantize(acc, attrs["acc_fmt"], attrs["requant_to"]).reshape(
            expected[:, 5].shape
        )
        assert not np.array_equal(expected, clean.u_hat_raw)
        assert np.array_equal(corrupted.u_hat_raw, expected)

        kind = "accumulator of classcaps_fc"
        if target == "weight":
            kind = f"weight tile {attrs['wreg']}"
        with pytest.raises(DetectedCorruptionError, match=f"on {kind} "):
            stream.run_batch(images, corruption=spec, verify_checksums=True)

    @pytest.mark.parametrize(
        "job",
        [
            "sum2", "update1", "primarycaps", "mnist:conv1", "mnist:primarycaps",
            "mnist:sum1", "mnist:sum3", "mnist:update2",
        ],
    )
    @pytest.mark.parametrize("target", ["weight", "accumulator"])
    def test_victim_on_a_staged_once_path(self, job, target):
        # The routing sums and updates read u_hat from the class-major
        # float panels the ClassCaps run writes once per batch (a sum
        # issues its product transposed); primarycaps gathers its
        # windows channels-last against weight rows permuted at staging.
        # On MNIST, PrimaryCaps is deep enough (9*256 rows per kernel
        # row, N = 256) to run one GEMM per kernel row, and Conv1 runs
        # its ReLU inside its epilogue.  A flip aimed at one must corrupt
        # what the instruction alone would.  The reference runs the same
        # program with each routing GEMM reading its own SLICE of u_hat
        # (so no panel is staged and ClassCaps keeps program order), the
        # patches stored as a register, so every GEMM reads a
        # materialized operand in program row order, and every GEMM
        # result stored, so no reader is fused into its epilogue.
        import random
        from dataclasses import replace

        from repro.compiler.executor import StreamExecutor
        from repro.compiler.isa import Instruction, Opcode

        network, _, job = job.rpartition(":")
        network = network or "tiny"
        stream = executor_for(network)._executor
        program = stream.program
        instructions = []
        for instr in program.instructions:
            if instr.opcode is Opcode.GROUPED_GEMM:
                data = instr.srcs[0]
                own = f"{data}.own.{instr.dest}"
                bounds = {"axis": 0, "start": 0, "stop": instr.attrs["groups"]}
                instructions.append(Instruction(Opcode.SLICE, own, (data,), attrs=bounds))
                instr = replace(instr, srcs=(own,) + instr.srcs[1:])
            instructions.append(instr)
            if instr.opcode in (Opcode.IM2COL, Opcode.GEMM) and instr.attrs.get("m") != 1:
                alias = {"alias": f"stored.{instr.dest}"}
                instructions.append(Instruction(Opcode.STORE, None, (instr.dest,), attrs=alias))
        unstaged = StreamExecutor(
            replace(program, instructions=instructions), stream.params,
            stream.activation.formats, luts=stream.activation.luts,
        )
        assert stream._gathers and not unstaged._gathers
        assert stream._fused and not unstaged._fused
        assert stream._panels and not unstaged._panels
        gemms = [
            pos
            for pos, instr in enumerate(program.instructions)
            if instr.opcode in (Opcode.GEMM, Opcode.GROUPED_GEMM)
        ]

        def victim(seed):
            return program.instructions[gemms[random.Random(seed).randrange(len(gemms))]]

        # Three images: on fewer, every seeded 16-bit flip of MNIST's
        # sum3 accumulator lands on a component the squash saturates, so
        # none reaches an output.
        count = 3
        images = images_for(executor_for(network), count=count)[:, np.newaxis]
        clean = stream.run_batch(images)

        def visible(spec):
            # The first seed on this job whose flips reach an output.
            corrupted = stream.run_batch(images, corruption=spec)
            return any(
                not np.array_equal(value, clean.outputs[alias])
                for alias, value in corrupted.outputs.items()
            )

        spec = next(
            spec
            for spec in (CorruptionSpec(target=target, bits=16, seed=s) for s in range(20000))
            if victim(spec.seed).attrs.get("job") == job and visible(spec)
        )
        instr = victim(spec.seed)
        corrupted = stream.run_batch(images, corruption=spec)
        reference = unstaged.run_batch(images, corruption=spec)
        for alias, value in corrupted.outputs.items():
            assert np.array_equal(value, reference.outputs[alias]), alias

        if target == "accumulator":
            kind = f"accumulator of {instr.layer}"
        elif instr.opcode is Opcode.GROUPED_GEMM:
            kind = f"weight tiles of {instr.layer}"
        else:
            kind = f"weight tile {instr.attrs['wreg']}"
        message = f"ABFT checksum mismatch on {kind} (target {target}, 16 bit flips)"
        for executor in (stream, unstaged):
            with pytest.raises(DetectedCorruptionError) as raised:
                executor.run_batch(images, corruption=spec, verify_checksums=True)
            assert str(raised.value) == message

    def test_no_corruption_is_bitwise_clean(self):
        executor = executor_for("tiny")
        images = images_for(executor)
        baseline = executor.execute(0, images)
        verified = executor._executor.run_batch(
            images[:, np.newaxis] if executor.channels != 1 else images,
            corruption=None,
            verify_checksums=True,
        ).predictions
        assert np.array_equal(baseline, verified)


# ---- canary stream -------------------------------------------------------


class TestCanaryStream:
    def test_probes_fire_on_placement_period(self):
        plan = FaultPlan(corrupt_rate=0.5, seed=3)
        policy = IntegrityPolicy(mode="checksum+canary", canary_every=4)
        stream = CanaryStream(plan, policy, arrays=2)
        stats = type("S", (), {"canaries": 0, "canary_detected": 0})()
        tracer = type("T", (), {"enabled": False})()
        for i in range(12):
            stream.on_placement(0, float(i), stats, tracer)
        assert stats.canaries == 3  # every 4th of 12 placements

    def test_detection_stream_is_seed_deterministic(self):
        plan = FaultPlan(corrupt_rate=0.5, seed=3)
        policy = IntegrityPolicy(mode="checksum+canary", canary_every=2)
        outcomes = []
        for _ in range(2):
            stream = CanaryStream(plan, policy, arrays=1)
            stats = type("S", (), {"canaries": 0, "canary_detected": 0})()
            tracer = type("T", (), {"enabled": False})()
            for i in range(40):
                stream.on_placement(0, float(i), stats, tracer)
            outcomes.append((stats.canaries, stats.canary_detected))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 0


# ---- degraded-mode admission ---------------------------------------------


class _Pool:
    def __init__(self, quarantined=()):
        self._quarantined = list(quarantined)

    def quarantined_ids(self):
        return list(self._quarantined)


class _Stats:
    def __init__(self, detected=0, canary_detected=0):
        self.detected = detected
        self.canary_detected = canary_detected


class TestDegradedModeAdmission:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DegradedModeAdmission(queue_limit=-1)
        with pytest.raises(ConfigError):
            DegradedModeAdmission(queue_limit=4, degraded_limit=8)
        with pytest.raises(ConfigError):
            DegradedModeAdmission(hold_us=-1.0)

    def test_healthy_pool_uses_full_limit(self):
        policy = DegradedModeAdmission(queue_limit=4, degraded_limit=1)
        queue = [object()] * 3
        assert policy.admit(None, 0.0, queue, _Pool())
        assert not policy.admit(None, 0.0, [object()] * 4, _Pool())

    def test_quarantine_tightens_the_limit(self):
        policy = DegradedModeAdmission(queue_limit=4, degraded_limit=1)
        queue = [object()] * 2
        assert policy.admit(None, 0.0, queue, _Pool())
        assert not policy.admit(None, 0.0, queue, _Pool(quarantined=[0]))

    def test_detections_open_a_hold_window(self):
        policy = DegradedModeAdmission(
            queue_limit=4, degraded_limit=1, hold_us=100.0
        )
        stats = _Stats()
        policy.bind_faults(stats)
        queue = [object()] * 2
        assert policy.admit(None, 0.0, queue, _Pool())
        stats.detected = 1  # new detection: degraded until 10 + 100
        assert not policy.admit(None, 10.0, queue, _Pool())
        assert not policy.admit(None, 100.0, queue, _Pool())
        assert policy.admit(None, 120.0, queue, _Pool())  # window passed

    def test_registered_in_the_policy_registry(self):
        from repro.serve import ADMISSION_POLICIES

        assert ADMISSION_POLICIES["degraded"] is DegradedModeAdmission

    def test_degraded_sim_sheds_under_detections(self, tiny_cost):
        plan = FaultPlan(corrupt_rate=0.3, seed=5)
        server = integrity_server(tiny_cost, plan, integrity="checksum")
        server.admission = DegradedModeAdmission(
            queue_limit=64, degraded_limit=0, hold_us=1e9
        )
        report = ServingSimulator(saturating_trace(), server=server).run()
        assert report.faults["detected"] > 0
        assert report.shed_count > 0  # post-detection arrivals shed


# ---- serving-path detection ----------------------------------------------


class TestSimulatedCorruption:
    def test_unchecked_corruption_is_served_silently(self, tiny_cost):
        plan = FaultPlan(corrupt_rate=0.2, seed=5)
        report = ServingSimulator(
            saturating_trace(), server=integrity_server(tiny_cost, plan)
        ).run()
        faults = report.faults
        assert faults["corruptions"] > 0
        assert faults["detected"] == 0
        assert faults["corrupted_served"] > 0
        assert report.goodput == 1.0  # silent: nothing fails

    def test_checksum_mode_serves_zero_corrupted(self, tiny_cost):
        cost = ScheduledBatchCost("tiny", integrity="checksum")
        plan = FaultPlan(corrupt_rate=0.2, seed=5)
        report = ServingSimulator(
            saturating_trace(),
            server=integrity_server(cost, plan, integrity="checksum"),
        ).run()
        faults = report.faults
        assert faults["corruptions"] > 0
        assert faults["detected"] == faults["corruptions"]
        assert faults["corrupted_served"] == 0
        assert faults["retries"] > 0  # detections feed the retry machinery

    def test_output_target_evades_checksums(self, tiny_cost):
        cost = ScheduledBatchCost("tiny", integrity="checksum")
        plan = FaultPlan(
            corrupt_rate=0.2, corrupt_target="output", seed=5
        )
        report = ServingSimulator(
            saturating_trace(),
            server=integrity_server(cost, plan, integrity="checksum"),
        ).run()
        faults = report.faults
        assert faults["corruptions"] > 0
        assert faults["detected"] == 0
        assert faults["corrupted_served"] > 0

    def test_canary_mode_probes_and_detects(self, tiny_cost):
        cost = ScheduledBatchCost("tiny", integrity="checksum+canary")
        plan = FaultPlan(corrupt_rate=0.3, seed=5)
        report = ServingSimulator(
            saturating_trace(),
            server=integrity_server(
                cost,
                plan,
                integrity=IntegrityPolicy(
                    mode="checksum+canary", canary_every=2
                ),
            ),
        ).run()
        faults = report.faults
        assert faults["canaries"] > 0
        assert faults["canary_detected"] > 0

    def test_crash_dominates_corruption(self, tiny_cost):
        # A batch the plan both crashes and corrupts crashes; the
        # corruption counters never double-count it.
        plan = FaultPlan(crash_rate=1.0, corrupt_rate=1.0, max_crashes=None, seed=5)
        report = ServingSimulator(
            saturating_trace(count=40),
            server=integrity_server(
                tiny_cost, plan, retry=None
            ),
        ).run()
        assert report.faults["corruptions"] == 0

    def test_streaming_fast_path_refuses_integrity(self, tiny_cost):
        simulator = ServingSimulator(
            saturating_trace(count=40),
            server=integrity_server(tiny_cost, integrity="checksum"),
        )
        with pytest.raises(ConfigError):
            simulator.run(record_requests=False)

    def test_correlated_group_takes_members_down_together(self, tiny_cost):
        plan = FaultPlan(failure_groups=(((0, 1), 0.0, 3000.0),), seed=5)
        report = ServingSimulator(
            saturating_trace(), server=integrity_server(tiny_cost, plan)
        ).run()
        faults = report.faults
        assert faults["correlated"] > 0
        assert faults["correlated"] == faults["crashes"]
        crashed_arrays = {b.array for b in report.batches if b.crashed}
        assert crashed_arrays == {0, 1}


class TestSimLiveIntegrityIdentity:
    def test_deterministic_rerun_with_corruption(self, tiny_cost):
        plan = FaultPlan(corrupt_rate=0.2, seed=17)
        reports = [
            ServingSimulator(
                saturating_trace(),
                server=integrity_server(tiny_cost, plan, "checksum"),
            ).run()
            for _ in range(2)
        ]
        first, second = (r.to_dict() for r in reports)
        for report in (first, second):
            report.pop("wall_seconds"), report.pop("wall_rps")
        assert first == second


# ---- cost pricing --------------------------------------------------------


class TestIntegrityPricing:
    def test_checksum_mode_prices_higher(self):
        plain = ScheduledBatchCost("tiny")
        checked = ScheduledBatchCost("tiny", integrity="checksum")
        for batch in (1, 4, 8):
            assert checked.batch_cycles(batch) > plain.batch_cycles(batch)
            assert checked.integrity_cycles(batch) > 0
            assert plain.integrity_cycles(batch) == 0

    def test_overhead_scales_with_batch(self):
        checked = ScheduledBatchCost("tiny", integrity="checksum")
        assert checked.integrity_cycles(8) > checked.integrity_cycles(1)

    def test_signature_distinguishes_modes(self):
        plain = ScheduledBatchCost("tiny")
        checked = ScheduledBatchCost("tiny", integrity="checksum")
        assert plain.signature() != checked.signature()

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            ScheduledBatchCost("tiny", integrity="everything")

    def test_capsnet_config_prices_checks(self, tiny_config):
        # A CapsNetConfig compiles to the same instruction stream as its
        # zoo entry, so it prices the same checksum overhead.
        by_config = ScheduledBatchCost(tiny_config, integrity="checksum")
        by_name = ScheduledBatchCost("tiny", integrity="checksum")
        assert by_config.integrity_cycles(4) == by_name.integrity_cycles(4) > 0
        assert by_config.batch_cycles(4) == by_name.batch_cycles(4)

    def test_overhead_within_ceiling_on_mnist(self):
        plain = ScheduledBatchCost("mnist")
        checked = ScheduledBatchCost("mnist", integrity="checksum")
        ratio = checked.batch_cycles(8) / plain.batch_cycles(8)
        assert 1.0 < ratio <= 1.10

    def test_server_config_normalizes_mode_strings(self):
        cost = ScheduledBatchCost("tiny", integrity="checksum")
        server = ServerConfig(cost=cost, integrity="checksum")
        assert isinstance(server.integrity, IntegrityPolicy)
        assert server.integrity.checks
        assert "integrity" in server.describe()
        assert server.policy_json()["integrity"] == "checksum"
