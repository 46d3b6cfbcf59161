"""The cost model: bit-exactness vs the batched engine, memoization."""

import pytest

from repro.compiler.executor import StreamExecutor
from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig
from repro.serve.costs import ScheduledBatchCost


@pytest.fixture(scope="module")
def scheduled_cost(tiny_qnet):
    return ScheduledBatchCost(qnet=tiny_qnet)


class TestScheduledBatchCost:
    def test_bit_identical_to_standalone_scheduler(
        self, scheduled_cost, tiny_qnet, tiny_images
    ):
        """The acceptance guarantee: serving charges exactly the cycles the
        batched engine reports when run standalone on the same batch."""
        for batch in (1, 2, len(tiny_images)):
            standalone = StreamExecutor.for_network(tiny_qnet).run_batch(tiny_images[:batch])
            assert scheduled_cost.batch_cycles(batch) == standalone.overlapped_cycles

    def test_memoized_probe_matches_real_batch_execution(
        self, scheduled_cost, tiny_qnet, tiny_images
    ):
        """Tiling is shape-driven: the memoized closed-form figure equals
        a real batch's executed cycles at the same size."""
        first = scheduled_cost.batch_cycles(3)
        result = StreamExecutor.for_network(tiny_qnet).run_batch(tiny_images[:3][::-1])
        assert first == result.overlapped_cycles
        assert scheduled_cost.batch_cycles(3) == first

    def test_monotone_and_memoized(self):
        cost = ScheduledBatchCost("tiny")
        assert cost.batch_cycles(8) > cost.batch_cycles(1)
        assert cost.batch_cycles(8) == cost.batch_cycles(8)

    def test_sequential_accounting(self, tiny_qnet, tiny_images):
        cost = ScheduledBatchCost(qnet=tiny_qnet, accounting="sequential")
        standalone = StreamExecutor.for_network(tiny_qnet).run_batch(tiny_images[:2])
        assert cost.batch_cycles(2) == standalone.total_cycles
        assert cost.batch_cycles(2) >= scheduled_cost_cycles(tiny_qnet, 2)

    def test_bad_inputs_rejected(self, scheduled_cost, tiny_qnet):
        with pytest.raises(ConfigError):
            scheduled_cost.batch_cycles(0)
        with pytest.raises(ConfigError):
            ScheduledBatchCost(qnet=tiny_qnet, accounting="imaginary")

    def test_respects_accelerator_config(self, tiny_qnet):
        bounded = ScheduledBatchCost(
            qnet=tiny_qnet, accel_config=AcceleratorConfig(acc_fifo_depth=8)
        )
        ideal = ScheduledBatchCost(qnet=tiny_qnet)
        assert bounded.batch_cycles(4) > ideal.batch_cycles(4)
        assert bounded.config.acc_fifo_depth == 8


def scheduled_cost_cycles(qnet, batch: int) -> int:
    return ScheduledBatchCost(qnet=qnet).batch_cycles(batch)
