"""Live serving runtime: calibration, the asyncio path, failure modes.

Three layers under test, mirroring :mod:`repro.serve.runtime`:

* :class:`MeasuredBatchCost` — the calibrated live cost model's
  interpolation, validation, and cost-protocol conformance.
* :func:`replay_virtual` — its argument validation (the virtual-time
  loop itself is the simulator's recorded path, covered there).
* :class:`ServingRuntime` — real asyncio runs on the in-process engine:
  correct predictions, shutdown drain, backpressure sheds, worker
  crashes, the JSONL socket, and the process worker pool.
"""

import asyncio
import gc
import json
import math
import time

import numpy as np
import pytest

from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.data.synthetic import SyntheticDigits
from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig
from repro.serve import (
    MeasuredBatchCost,
    RequestShedError,
    ScheduledBatchCost,
    ServerConfig,
    ServingRuntime,
    TenantSpec,
    WorkerCrashError,
    poisson_trace,
    replay_virtual,
)
from repro.serve.workers import (
    CompiledStreamExecutor,
    PredictedExecutor,
    ProcessWorkerPool,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def tiny_cost():
    return ScheduledBatchCost("tiny")


@pytest.fixture(scope="module")
def live_images(tiny_config):
    generator = SyntheticDigits(size=tiny_config.image_size, seed=23)
    return generator.generate(64).images


@pytest.fixture(scope="module")
def offline_predictions(tiny_config, tiny_weights, live_images):
    qnet = QuantizedCapsuleNet(tiny_config, weights=tiny_weights)
    return qnet.predict_batch(live_images)


def request_line(request_id: int, image: np.ndarray) -> bytes:
    return (json.dumps({"id": request_id, "image": image.tolist()}) + "\n").encode()


def live_server(cost, **overrides):
    settings = dict(
        max_batch=8, max_wait_us=2000.0, arrays=1, network_name="tiny"
    )
    settings.update(overrides)
    return ServerConfig.from_policy("fifo", cost, **settings)


class TestMeasuredBatchCost:
    def test_interpolates_between_points(self):
        cost = MeasuredBatchCost(
            AcceleratorConfig(), [(1, 100.0), (8, 400.0), (16, 600.0)]
        )
        assert cost.predict_us(1) == 100.0
        assert cost.predict_us(8) == 400.0
        # Midway along the 8..16 segment.
        assert cost.predict_us(12) == pytest.approx(500.0)

    def test_extrapolates_from_nearest_segment(self):
        cost = MeasuredBatchCost(AcceleratorConfig(), [(8, 400.0), (16, 600.0)])
        assert cost.predict_us(32) == pytest.approx(600.0 + 16 * 25.0)
        assert cost.predict_us(4) == pytest.approx(400.0 - 4 * 25.0)

    def test_single_point_scales_proportionally(self):
        cost = MeasuredBatchCost(AcceleratorConfig(), [(8, 400.0)])
        assert cost.predict_us(16) == pytest.approx(800.0)
        assert cost.predict_us(2) == pytest.approx(100.0)

    def test_cycles_quantization_and_warm_equals_cold(self):
        config = AcceleratorConfig()
        cost = MeasuredBatchCost(config, [(1, 0.0001), (8, 250.0)])
        assert cost.batch_cycles(1) == 1  # floor: never zero cycles
        expected = int(round(cost.predict_us(8) * config.clock_mhz))
        assert cost.batch_cycles(8) == expected
        assert cost.warm_batch_cycles(8, prev_size=8) == cost.batch_cycles(8)
        assert cost.drain_saved_cycles(8, prev_size=8) == 0
        assert cost.pipeline is False
        assert cost.accounting == "measured"

    def test_rejects_bad_calibration_points(self):
        with pytest.raises(ConfigError):
            MeasuredBatchCost(AcceleratorConfig(), [])
        with pytest.raises(ConfigError):
            MeasuredBatchCost(AcceleratorConfig(), [(8, 100.0), (8, 200.0)])
        with pytest.raises(ConfigError):
            MeasuredBatchCost(AcceleratorConfig(), [(8, -5.0)])
        with pytest.raises(ConfigError):
            MeasuredBatchCost(AcceleratorConfig(), [(8, math.inf)])

    def test_calibrate_skips_sizes_beyond_the_image_set(self, tiny_config):
        executor = PredictedExecutor(tiny_config.image_size)
        images = np.zeros((4, tiny_config.image_size, tiny_config.image_size))
        cost = MeasuredBatchCost.calibrate(executor, images, sizes=(1, 2, 4, 8))
        assert [size for size, _ in cost.points] == [1, 2, 4]

    def test_from_report_prices_the_mean_duration(self, tiny_cost):
        # A saturated burst slows the first batches; the fit keeps that
        # work (mean 2000 us), where the median (1000 us) would drop it.
        from repro.serve.runtime import RuntimeEngine

        engine = RuntimeEngine(live_server(tiny_cost, max_batch=2, max_wait_us=0.0))
        now = 0.0
        for duration in (4000.0, 1000.0, 1000.0):
            engine.offer(now)
            engine.offer(now)
            (placed,) = engine.dispatch_ready(now)
            now += duration
            engine.complete(now, placed)
        cost = MeasuredBatchCost.from_report(engine.build_report())
        assert cost.points == [(2, 2000.0)]

    def test_from_report_requires_batches(self, tiny_cost):
        from repro.serve.runtime import RuntimeEngine

        empty = RuntimeEngine(live_server(tiny_cost)).build_report()
        assert empty.batch_count == 0
        with pytest.raises(ConfigError):
            MeasuredBatchCost.from_report(empty)


class TestReplayVirtual:
    def test_trace_and_tenants_are_exclusive(self, tiny_cost):
        trace = poisson_trace(
            rate_rps=100.0, count=5, rng=np.random.default_rng(1)
        )
        with pytest.raises(ConfigError):
            replay_virtual(live_server(tiny_cost))
        with pytest.raises(ConfigError):
            replay_virtual(
                live_server(tiny_cost),
                trace,
                tenants=[TenantSpec(name="x", trace=trace)],
            )


class FailingExecutor:
    """Executor that dies on its first batch (crash-path fixture)."""

    def __init__(self, image_size: int) -> None:
        self.image_size = image_size

    def execute(self, array, images):
        raise RuntimeError("engine exploded")

    def close(self):
        pass


class SlowExecutor(PredictedExecutor):
    """Instant predictions after a real delay (queue-buildup fixture)."""

    def __init__(self, image_size: int, delay_s: float) -> None:
        super().__init__(image_size)
        self.delay_s = delay_s

    def execute(self, array, images):
        time.sleep(self.delay_s)
        return super().execute(array, images)


class TestServingRuntimeLive:
    def test_submissions_return_engine_predictions(
        self, tiny_config, tiny_cost, live_images, offline_predictions
    ):
        async def scenario():
            runtime = ServingRuntime(
                live_server(tiny_cost),
                executor=CompiledStreamExecutor(tiny_config),
            )
            try:
                results = await asyncio.gather(
                    *(runtime.submit(image) for image in live_images)
                )
            finally:
                await runtime.stop()
            return results, runtime.report()

        results, report = asyncio.run(scenario())
        np.testing.assert_array_equal(results, offline_predictions)
        assert report.offered == len(live_images)
        assert report.completed == len(live_images)
        assert report.shed_count == 0
        assert sum(batch.size for batch in report.batches) == len(live_images)
        for request in report.served:
            assert request.done_us >= request.dispatch_us >= request.arrival_us

    def test_stop_flushes_a_waiting_remainder(self, tiny_config, tiny_cost):
        # Three requests, batch cap 8, a coalescing window far longer
        # than the test: only the shutdown drain's force-flush can
        # dispatch them.
        server = live_server(tiny_cost, max_batch=8, max_wait_us=30_000_000.0)

        async def scenario():
            runtime = ServingRuntime(
                server, executor=PredictedExecutor(tiny_config.image_size)
            )
            image = np.zeros((tiny_config.image_size, tiny_config.image_size))
            tasks = [
                asyncio.ensure_future(runtime.submit(image)) for _ in range(3)
            ]
            await asyncio.sleep(0.01)
            assert runtime.engine.queue_depth() == 3
            await runtime.stop()
            return await asyncio.gather(*tasks), runtime.report()

        results, report = asyncio.run(scenario())
        assert results == [-1, -1, -1]
        assert report.batch_count == 1
        assert report.batches[0].size == 3

    def test_a_batch_completes_when_the_loop_takes_it_back(self, tiny_config, tiny_cost):
        # The worker finishes while the loop is busy; the batch (and its
        # request) completes only when the loop frees the array, so the
        # hand-off counts in the array's busy time and the latency.
        import threading

        finished = threading.Event()

        class SignallingExecutor(PredictedExecutor):
            def execute(self, array, images):
                out = super().execute(array, images)
                finished.set()
                return out

        server = live_server(tiny_cost, max_batch=1)

        async def scenario():
            runtime = ServingRuntime(
                server, executor=SignallingExecutor(tiny_config.image_size)
            )
            image = np.zeros((tiny_config.image_size, tiny_config.image_size))
            task = asyncio.ensure_future(runtime.submit(image))
            await asyncio.sleep(0)
            assert finished.wait(5.0)
            time.sleep(0.02)  # the loop is busy after the worker is done
            busy_until = runtime.clock.now_us()
            await task
            await runtime.stop()
            return busy_until, runtime.report()

        busy_until, report = asyncio.run(scenario())
        (batch,) = report.batches
        assert batch.done_us >= busy_until
        assert report.served[0].done_us == batch.done_us

    def test_queue_limit_sheds_under_load(self, tiny_config, tiny_cost):
        server = live_server(
            tiny_cost, max_batch=1, max_wait_us=0.0, queue_limit=2
        )

        async def scenario():
            runtime = ServingRuntime(
                server,
                executor=SlowExecutor(tiny_config.image_size, delay_s=0.05),
            )
            image = np.zeros((tiny_config.image_size, tiny_config.image_size))
            outcomes = await asyncio.gather(
                *(runtime.submit(image) for _ in range(8)),
                return_exceptions=True,
            )
            await runtime.stop()
            return outcomes, runtime.report()

        outcomes, report = asyncio.run(scenario())
        sheds = [o for o in outcomes if isinstance(o, RequestShedError)]
        served = [o for o in outcomes if o == -1]
        assert sheds and served
        assert len(sheds) + len(served) == 8
        assert report.shed_count == len(sheds)
        assert report.completed == len(served)

    def test_worker_crash_fails_only_after_retry_budget(
        self, tiny_config, tiny_cost
    ):
        # A permanently-failing executor exhausts every request's retry
        # budget; the waiters then see WorkerCrashError — but the
        # runtime itself stays healthy (no sticky failure), so drain and
        # stop complete normally.
        server = live_server(tiny_cost, max_batch=4, max_wait_us=0.0)

        async def scenario():
            runtime = ServingRuntime(
                server, executor=FailingExecutor(tiny_config.image_size)
            )
            image = np.zeros((tiny_config.image_size, tiny_config.image_size))
            outcomes = await asyncio.gather(
                *(runtime.submit(image) for _ in range(4)),
                return_exceptions=True,
            )
            await runtime.drain()  # crashes are contained, not sticky
            report = runtime.report()
            await runtime.stop()
            return outcomes, report

        outcomes, report = asyncio.run(scenario())
        assert outcomes
        assert all(isinstance(o, WorkerCrashError) for o in outcomes)
        cause = outcomes[0].__cause__
        assert isinstance(cause, RuntimeError)
        assert report.failed_count == 4
        faults = report.faults
        # Default budget is 3 attempts: two retry rounds per request
        # before the terminal failure.
        assert faults["failed"] == 4
        assert faults["retries"] == 8
        assert faults["crashes"] >= 3

    def test_crash_fails_only_its_own_batch(self, tiny_config, tiny_cost):
        # Two arrays, one crash: the crashed batch's members retry and
        # complete; waiters on the other array never see an error.
        server = live_server(
            tiny_cost, max_batch=4, max_wait_us=0.0, arrays=2
        )

        class CrashOnceExecutor(PredictedExecutor):
            def __init__(self, image_size: int) -> None:
                super().__init__(image_size)
                self.crashed = False

            def execute(self, array, images):
                if array == 0 and not self.crashed:
                    self.crashed = True
                    raise RuntimeError("array 0 died once")
                return super().execute(array, images)

        async def scenario():
            runtime = ServingRuntime(
                server, executor=CrashOnceExecutor(tiny_config.image_size)
            )
            image = np.zeros((tiny_config.image_size, tiny_config.image_size))
            outcomes = await asyncio.gather(
                *(runtime.submit(image) for _ in range(8)),
                return_exceptions=True,
            )
            # Let the quarantine's timed readmission (recovery_us) fire.
            await asyncio.sleep(0.05)
            report = runtime.report()
            await runtime.stop()
            return outcomes, report

        outcomes, report = asyncio.run(scenario())
        assert outcomes == [-1] * 8
        assert report.completed == 8
        assert report.failed_count == 0
        faults = report.faults
        assert faults["crashes"] == 1
        # Exactly the crashed batch's members retried — nobody else.
        assert 1 <= faults["retries"] <= 4
        assert faults["failed"] == 0
        # The crashed array was quarantined and readmitted.
        assert faults["quarantines"] == 1
        assert faults["recoveries"] == 1
        crashed = [b for b in report.batches if b.crashed]
        assert len(crashed) == 1
        assert crashed[0].array == 0

    def test_injected_plan_completes_all_requests_live(
        self, tiny_config, tiny_cost
    ):
        # The seeded plan drives crashes through the real asyncio path:
        # every request still completes, and the fault counters match
        # the plan's two ordinals.
        from repro.serve import FaultPlan

        server = live_server(
            tiny_cost,
            max_batch=4,
            max_wait_us=0.0,
            arrays=2,
            fault_plan=FaultPlan(crash_batches=(0, 2), seed=3),
        )

        async def scenario():
            runtime = ServingRuntime(
                server, executor=PredictedExecutor(tiny_config.image_size)
            )
            image = np.zeros((tiny_config.image_size, tiny_config.image_size))
            outcomes = await asyncio.gather(
                *(runtime.submit(image) for _ in range(12)),
                return_exceptions=True,
            )
            # Each quarantine ends on a timer recovery_us after its crash;
            # the healthy array can finish the retries before that.
            pool = runtime.engine.core.pool
            for _ in range(400):
                if not pool.quarantined_ids():
                    break
                await asyncio.sleep(0.005)
            report = runtime.report()
            await runtime.stop()
            return outcomes, report

        outcomes, report = asyncio.run(scenario())
        assert outcomes == [-1] * 12
        assert report.completed == 12
        assert report.shed_count == 0
        assert report.failed_count == 0
        assert report.goodput == 1.0
        faults = report.faults
        assert faults["crashes"] == 2
        assert faults["injected"] == 2
        assert faults["recoveries"] == faults["quarantines"]

    def test_socket_roundtrip(self, tiny_config, tiny_cost, live_images):
        qnet = QuantizedCapsuleNet(tiny_config)
        expected = qnet.predict_batch(live_images[:3])
        # Malformed requests: no image, not JSON, wrong shape, bad deadline.
        malformed = [
            b'{"id": 99}\n',
            b"not json\n",
            (json.dumps({"id": 7, "image": [[0.0, 1.0]]}) + "\n").encode(),
            (json.dumps({"id": 8, "image": live_images[0].tolist(), "deadline_us": "soon"})
             + "\n").encode(),
        ]

        async def scenario():
            runtime = ServingRuntime(
                live_server(tiny_cost, max_wait_us=500.0),
                executor=CompiledStreamExecutor(tiny_config),
            )
            server = await runtime.serve_socket()
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for i, image in enumerate(live_images[:3]):
                writer.write(
                    (json.dumps({"id": i, "image": image.tolist()}) + "\n").encode()
                )
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            bad = []
            for line in malformed:
                writer.write(line)
                await writer.drain()
                bad.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await runtime.stop()
            return replies, bad, runtime.report()

        replies, bad, report = asyncio.run(scenario())
        for i, reply in enumerate(replies):
            assert reply["id"] == i
            assert reply["prediction"] == int(expected[i])
        assert [reply["id"] for reply in bad] == [99, None, 7, 8]
        assert all("bad request" in reply["error"] for reply in bad)
        # Rejected before admission: only the good requests are counted.
        assert report.offered == report.completed == 3

    @pytest.mark.parametrize("terminated", [True, False])
    def test_oversize_socket_line_gets_a_reply(
        self, tiny_config, tiny_cost, live_images, terminated
    ):
        # A line past the stream reader's 64 KiB limit is discarded through
        # its newline and answered; the connection then serves the next
        # request, and nothing about the oversize line is counted.
        qnet = QuantizedCapsuleNet(tiny_config)
        expected = int(qnet.predict_batch(live_images[:1])[0])
        oversize = json.dumps({"id": 1, "image": [[0.5] * 40_000]}).encode()
        if terminated:
            oversize += b"\n"
        good = (json.dumps({"id": 2, "image": live_images[0].tolist()}) + "\n").encode()

        async def scenario():
            runtime = ServingRuntime(
                live_server(tiny_cost, max_wait_us=500.0),
                executor=CompiledStreamExecutor(tiny_config),
            )
            server = await runtime.serve_socket()
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(oversize)
            await writer.drain()
            if not terminated:
                # The rest of the line arrives later, still oversize.
                writer.write(b" " * 70_000 + b"\n")
            writer.write(good)
            await writer.drain()
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                for _ in range(2)
            ]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await runtime.stop()
            return replies, runtime.report()

        replies, report = asyncio.run(scenario())
        assert replies[0] == {"id": None, "error": "bad request: line too long"}
        assert replies[1] == {"id": 2, "prediction": expected}
        assert report.offered == report.completed == 1

    def test_socket_connection_is_pipelined(self, tiny_config, tiny_cost):
        # One connection writes every request before it reads a reply: the
        # server must read ahead and batch them, reply to each id once
        # (in any order), and still answer the malformed and over-long
        # lines without counting them.
        images = SyntheticDigits(size=tiny_config.image_size, seed=41).generate(32).images
        expected = QuantizedCapsuleNet(tiny_config).predict_batch(images)
        lines = [request_line(i, image) for i, image in enumerate(images)]
        lines.insert(5, b"not json\n")
        lines.insert(20, json.dumps({"id": 99, "image": [[0.5] * 40_000]}).encode() + b"\n")

        async def scenario():
            runtime = ServingRuntime(
                live_server(tiny_cost, max_batch=16, max_wait_us=500.0),
                executor=CompiledStreamExecutor(tiny_config),
            )
            server = await runtime.serve_socket()
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"".join(lines))
            await writer.drain()
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), 30.0))
                for _ in lines
            ]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await runtime.stop()
            return replies, runtime.report()

        replies, report = asyncio.run(scenario())
        errors = [reply for reply in replies if "error" in reply]
        assert sorted(reply["error"] for reply in errors) == [
            "bad request: Expecting value: line 1 column 1 (char 0)",
            "bad request: line too long",
        ]
        predictions = {reply["id"]: reply["prediction"] for reply in replies if "error" not in reply}
        assert len(predictions) == len(replies) - 2 == 32
        assert predictions == {i: int(p) for i, p in enumerate(expected)}
        assert max(batch.size for batch in report.batches) > 1
        assert report.offered == report.completed == 32

    def test_socket_replies_failed_requests_and_keeps_the_connection(
        self, tiny_config, tiny_cost
    ):
        # Crashed batches with no retry budget fail their requests: each
        # such line is answered "failed: ..." on a connection that stays
        # open, and the failed replies are exactly the report's failures.
        from repro.serve import FaultPlan, RetryPolicy

        server = live_server(
            tiny_cost,
            max_batch=4,
            max_wait_us=0.0,
            arrays=2,
            fault_plan=FaultPlan(crash_batches=(0, 2), seed=3),
            retry=RetryPolicy(max_attempts=1),
        )
        image = np.zeros((tiny_config.image_size, tiny_config.image_size))
        count = 12

        async def scenario():
            runtime = ServingRuntime(server, executor=PredictedExecutor(tiny_config.image_size))
            socket_server = await runtime.serve_socket()
            port = socket_server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def exchange(ids):
                writer.write(b"".join(request_line(i, image) for i in ids))
                await writer.drain()
                return [
                    json.loads(await asyncio.wait_for(reader.readline(), 30.0))
                    for _ in ids
                ]

            replies = await exchange(range(count))
            pool = runtime.engine.core.pool
            for _ in range(400):
                if not pool.quarantined_ids():
                    break
                await asyncio.sleep(0.005)
            replies += await exchange([count])
            writer.close()
            await writer.wait_closed()
            socket_server.close()
            await socket_server.wait_closed()
            await runtime.stop()
            return replies, runtime.report()

        replies, report = asyncio.run(scenario())
        assert sorted(reply["id"] for reply in replies) == list(range(count + 1))
        failed = [reply for reply in replies if "error" in reply]
        assert all(reply["error"].startswith("failed: ") for reply in failed)
        assert len(failed) == report.failed_count > 0
        assert replies[-1] == {"id": count, "prediction": -1}
        assert report.offered == report.completed + report.failed_count == count + 1

    def test_socket_replies_failed_after_the_runtime_stops(self, tiny_config, tiny_cost):
        image = np.zeros((tiny_config.image_size, tiny_config.image_size))

        async def scenario():
            runtime = ServingRuntime(
                live_server(tiny_cost), executor=PredictedExecutor(tiny_config.image_size)
            )
            server = await runtime.serve_socket()
            port = server.sockets[0].getsockname()[1]
            await runtime.stop()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for request_id in (1, 2):
                writer.write(request_line(request_id, image))
                replies.append(json.loads(await asyncio.wait_for(reader.readline(), 10.0)))
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            return replies, runtime.report()

        replies, report = asyncio.run(scenario())
        assert replies == [
            {"id": 1, "error": "failed: runtime is stopped"},
            {"id": 2, "error": "failed: runtime is stopped"},
        ]
        assert report.offered == 0

    def test_socket_disconnect_and_shutdown_with_requests_in_flight(
        self, tiny_config, tiny_cost
    ):
        # The client writes its requests and hangs up without reading; the
        # server and runtime then shut down.  Every admitted request still
        # reaches one terminal event and no task error goes unretrieved.
        image = np.zeros((tiny_config.image_size, tiny_config.image_size))
        count = 24
        loop_errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            runtime = ServingRuntime(
                live_server(tiny_cost, max_batch=4, max_wait_us=0.0),
                executor=SlowExecutor(tiny_config.image_size, delay_s=0.005),
            )
            server = await runtime.serve_socket()
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"".join(request_line(i, image) for i in range(count)))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            for _ in range(2000):
                if runtime.engine.offered >= count:
                    break
                await asyncio.sleep(0.005)
            inflight = runtime._pending
            server.close()
            await runtime.stop()
            await server.wait_closed()
            await asyncio.sleep(0.05)
            gc.collect()
            return inflight, runtime.report(), runtime

        inflight, report, runtime = asyncio.run(scenario())
        assert inflight > 0
        assert report.offered == count
        assert report.offered == report.completed + report.shed_count + report.failed_count
        assert not runtime._futures
        assert not loop_errors, loop_errors

    def test_malformed_submit_is_rejected_before_admission(
        self, tiny_config, tiny_cost, live_images, offline_predictions
    ):
        size = tiny_config.image_size
        bad_images = [
            np.zeros((size - 1, size)),
            np.full((size, size), np.nan),
            np.full((size, size), "x"),
        ]

        async def scenario():
            runtime = ServingRuntime(
                live_server(tiny_cost),
                executor=CompiledStreamExecutor(tiny_config),
            )
            try:
                for image in bad_images:
                    with pytest.raises(ValueError):
                        await runtime.submit(image)
                results = await asyncio.gather(
                    *(runtime.submit(image) for image in live_images[:8])
                )
            finally:
                await runtime.stop()
            return results, runtime.report()

        results, report = asyncio.run(scenario())
        np.testing.assert_array_equal(results, offline_predictions[:8])
        assert report.offered == 8
        assert report.offered == (
            report.completed + report.shed_count + report.failed_count
        )

    @pytest.mark.parametrize("deadline", [math.nan, math.inf, -math.inf])
    def test_non_finite_deadline_submit_is_rejected_before_admission(
        self, tiny_config, tiny_cost, live_images, deadline
    ):
        server = ServerConfig.from_policy(
            "deadline", tiny_cost, max_wait_us=500.0, network_name="tiny"
        )

        async def scenario():
            runtime = ServingRuntime(
                server, executor=PredictedExecutor(tiny_config.image_size)
            )
            try:
                with pytest.raises(ValueError, match="not finite"):
                    await runtime.submit(live_images[0], deadline_us=deadline)
                await runtime.submit(live_images[1])
            finally:
                await runtime.stop()
            return runtime.report()

        report = asyncio.run(scenario())
        assert report.offered == report.completed == 1

    def test_non_finite_deadline_socket_lines_are_bad_requests(
        self, tiny_config, tiny_cost, live_images
    ):
        server = ServerConfig.from_policy(
            "deadline", tiny_cost, max_wait_us=500.0, network_name="tiny"
        )
        image = live_images[0].tolist()
        lines = [
            (json.dumps({"id": i, "image": image, "deadline_us": value}) + "\n").encode()
            for i, value in enumerate([math.nan, math.inf, -math.inf])
        ]

        async def scenario():
            runtime = ServingRuntime(
                server, executor=PredictedExecutor(tiny_config.image_size)
            )
            socket_server = await runtime.serve_socket()
            port = socket_server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for line in lines + [request_line(3, live_images[1])]:
                writer.write(line)
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            socket_server.close()
            await socket_server.wait_closed()
            await runtime.stop()
            return replies, runtime.report()

        replies, report = asyncio.run(scenario())
        for reply, value in zip(replies[:3], ["nan", "inf", "-inf"]):
            assert reply["error"] == f"bad request: deadline_us {value} is not finite"
        assert replies[3]["id"] == 3 and "prediction" in replies[3]
        # Rejected at the boundary: only the good line is counted.
        assert report.offered == report.completed == 1

    def test_run_load_rejects_bad_images_before_offering(
        self, tiny_config, tiny_cost
    ):
        size = tiny_config.image_size
        trace = poisson_trace(rate_rps=1000.0, count=4, rng=np.random.default_rng(5))
        images = np.zeros((4, size, size))
        images[2, 0, 0] = np.inf

        async def scenario():
            runtime = ServingRuntime(
                live_server(tiny_cost),
                executor=PredictedExecutor(size),
            )
            try:
                with pytest.raises(ValueError):
                    await runtime.run_load(trace, images)
                with pytest.raises(ValueError):
                    await runtime.run_load(trace, images[:3, :, :])
            finally:
                await runtime.stop()
            return runtime.report()

        assert asyncio.run(scenario()).offered == 0

    def test_default_executor_serves_the_named_zoo_network(self):
        from repro.compiler.golden import evaluate_graph
        from repro.compiler.zoo import get_network
        from repro.fixedpoint.quantize import to_raw

        net = get_network("mlp")
        images = SyntheticDigits(size=28, seed=31).generate(6).images
        expected = [
            int(evaluate_graph(net.graph, net.params, raw, net.formats, net.luts)["predictions"])
            for raw in to_raw(images[:, np.newaxis], net.program.input_fmt)
        ]
        cost = MeasuredBatchCost(AcceleratorConfig(), [(1, 100.0), (8, 400.0)])
        server = ServerConfig.from_policy(
            "fifo", cost, max_batch=8, max_wait_us=2000.0, network_name="mlp"
        )

        async def scenario():
            runtime = ServingRuntime(server)
            try:
                return await asyncio.gather(*(runtime.submit(i) for i in images))
            finally:
                await runtime.stop()

        assert asyncio.run(scenario()) == expected
        # A name outside the zoo has no default executor to fall back on.
        unknown = ServerConfig.from_policy("fifo", cost, max_batch=8, network_name="capsnet")
        with pytest.raises(ConfigError, match="set network_name to one of .*mlp"):
            ServingRuntime(unknown)

    def test_runtime_rejects_reuse_after_stop(self, tiny_config, tiny_cost):
        async def scenario():
            runtime = ServingRuntime(
                live_server(tiny_cost),
                executor=PredictedExecutor(tiny_config.image_size),
            )
            await runtime.stop()
            image = np.zeros((tiny_config.image_size, tiny_config.image_size))
            with pytest.raises(ConfigError):
                await runtime.submit(image)

        asyncio.run(scenario())


class TestProcessWorkerPool:
    def test_matches_inline_and_survives_a_crash(
        self, tiny_config, live_images, offline_predictions
    ):
        pool = ProcessWorkerPool(tiny_config, arrays=1, max_batch=8)
        try:
            predictions = pool.execute(0, live_images[:8])
            np.testing.assert_array_equal(predictions, offline_predictions[:8])
            pool.crash(0)
            with pytest.raises(WorkerCrashError):
                pool.execute(0, live_images[:8])
            # A respawned, health-probed worker serves again.
            pool.respawn(0)
            predictions = pool.execute(0, live_images[:8])
            np.testing.assert_array_equal(predictions, offline_predictions[:8])
        finally:
            pool.close()

    def test_workers_serve_any_zoo_network(self):
        from repro.compiler.golden import check_network

        images = SyntheticDigits(size=28, seed=37).generate(4).images
        expected = check_network("mlp", images)["predictions"]
        pool = ProcessWorkerPool("mlp", arrays=1, max_batch=4)
        try:
            assert pool.image_size == 28
            np.testing.assert_array_equal(pool.execute(0, images), expected)
        finally:
            pool.close()

    def test_crash_then_close_shuts_down_cleanly(self, tiny_config):
        # Closing a pool whose worker already died must not hang or
        # leak the shared-memory segments.
        pool = ProcessWorkerPool(tiny_config, arrays=1, max_batch=4)
        pool.crash(0)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigError):
            pool.respawn(0)
