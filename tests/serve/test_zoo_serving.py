"""Zoo networks through the serving stack: costs, simulator, executors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.cost import program_steady_cycles
from repro.compiler.executor import StreamExecutor
from repro.compiler.zoo import get_network, zoo_names
from repro.serve import (
    CompiledStreamExecutor,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    TenantSpec,
    uniform_trace,
)
from tests.compiler.conftest import zoo_images


class TestZooCosts:
    @pytest.mark.parametrize("name", ["tiny", "mlp", "cnn", "tiny-res"])
    def test_program_pricing_matches_scheduled(self, name):
        """Program pricing is bit-exact against real scheduling: cold
        cycles against an executed batch, warm cycles against the
        settled marginal of the pipelined stream schedule."""
        cost = ScheduledBatchCost(qnet=name, pipeline=True)
        images = zoo_images(name, count=4)
        executor = StreamExecutor.for_network(name)
        for batch in (1, 4):
            executed = executor.run_batch(images[:batch])
            steady = program_steady_cycles(
                executor.accelerator.config, executor.program, batch
            )
            assert cost.batch_cycles(batch) == executed.overlapped_cycles
            assert cost.warm_batch_cycles(batch, batch) == min(
                steady, executed.overlapped_cycles
            )

    def test_network_key_is_shared_across_cost_kinds(self, tiny_qnet, tiny_config):
        by_name = ScheduledBatchCost(qnet="tiny")
        by_qnet = ScheduledBatchCost(qnet=tiny_qnet)
        by_config = ScheduledBatchCost(qnet=tiny_config)
        assert by_name.network_key == by_qnet.network_key == by_config.network_key

    def test_every_zoo_network_prices(self):
        for name in zoo_names():
            cost = ScheduledBatchCost(name, pipeline=True)
            assert cost.batch_cycles(2) > 0


class TestZooSimulation:
    def test_multi_tenant_zoo_trace(self):
        """Mixed zoo tenants share one pool under weighted-fair service."""
        cost = ScheduledBatchCost("tiny", pipeline=True)
        server = ServerConfig.from_policy("fifo", cost, arrays=2, max_batch=4)
        tenants = [
            TenantSpec(name="caps", trace=uniform_trace(2000.0, 10)),
            TenantSpec(
                name="mlp",
                trace=uniform_trace(1500.0, 10),
                cost=ScheduledBatchCost("mlp", pipeline=True),
            ),
            TenantSpec(
                name="res",
                trace=uniform_trace(1000.0, 10),
                cost=ScheduledBatchCost("tiny-res", pipeline=True),
                weight=2.0,
            ),
        ]
        report = ServingSimulator(server=server, tenants=tenants).run()
        assert len(report.served) == 30
        assert {record.tenant for record in report.served} == {"caps", "mlp", "res"}
        assert {entry["tenant"] for entry in report.tenants} == {"caps", "mlp", "res"}

    def test_executed_simulation_serves_zoo_baseline(self):
        cost = ScheduledBatchCost(qnet="mlp")
        server = ServerConfig.from_policy("fifo", cost, max_batch=4)
        trace = uniform_trace(1000.0, 8)
        images = zoo_images("mlp", count=8)
        report = ServingSimulator(
            trace, server=server, images=images, execute=True
        ).run()
        assert len(report.served) == 8
        assert report.predictions is not None
        assert report.predictions.shape == (8,)


class TestCompiledStreamExecutor:
    def test_serves_non_capsnet_networks(self):
        network = get_network("mlp")
        executor = CompiledStreamExecutor(network)
        images = zoo_images("mlp", count=4)
        predictions = executor.execute(0, images)
        want = StreamExecutor.for_network("mlp").run_batch(images).predictions
        assert np.array_equal(predictions, want)
        executor.close()

    def test_tiles_channels_for_multi_channel_networks(self):
        executor = CompiledStreamExecutor(get_network("cifar"))
        images = zoo_images("cifar", count=1)[:, 0]  # grayscale (B, H, W)
        predictions = executor.execute(0, images)
        assert predictions.shape == (1,)
        executor.close()

    def test_concurrent_calls_share_one_executor(self):
        # The runtime's array threads call one executor with no lock: every
        # call must return clean predictions and no buffer count may be lost.
        import sys
        import threading

        executor = CompiledStreamExecutor("tiny")
        images = zoo_images("tiny", count=3)
        want = executor.execute(0, images)
        accelerator = executor._executor.accelerator
        accelerator.reset_counters()
        executor.execute(0, images)
        per_batch = accelerator.data_buffer.reads
        accelerator.reset_counters()
        threads, calls = 8, 25
        results: list[np.ndarray] = []

        def serve() -> None:
            for _ in range(calls):
                results.append(executor.execute(0, images))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=serve) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == threads * calls
        assert all(np.array_equal(result, want) for result in results)
        assert accelerator.data_buffer.reads == threads * calls * per_batch
