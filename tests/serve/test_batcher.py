"""Batch policy behavior on a request queue: fill, timeout, FIFO order."""

import pytest

from repro.errors import ConfigError
from repro.serve.batcher import BatchPolicy, QueuedRequest, RequestQueue


def queued(arrivals: list[float]) -> RequestQueue:
    queue = RequestQueue()
    for index, arrival in enumerate(arrivals):
        queue.append(QueuedRequest(index=index, arrival_us=arrival))
    return queue


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigError):
            BatchPolicy(max_wait_us=-1.0)

    def test_non_finite_wait_rejected(self):
        """NaN/inf deadlines would never become ready and hang the loop."""
        with pytest.raises(ConfigError):
            BatchPolicy(max_wait_us=float("nan"))
        with pytest.raises(ConfigError):
            BatchPolicy(max_wait_us=float("inf"))

    def test_describe(self):
        assert BatchPolicy(max_batch=1).describe() == "batch-1"
        assert "8" in BatchPolicy(max_batch=8, max_wait_us=100.0).describe()


class TestTimeoutBeforeFill:
    """Light load: the coalescing wait expires before the batch fills."""

    def test_not_ready_before_deadline(self):
        policy = BatchPolicy(max_batch=8, max_wait_us=100.0)
        queue = queued([10.0, 50.0])
        assert not policy.ready(queue, 10.0)
        assert not policy.ready(queue, 109.9)

    def test_partial_batch_at_deadline(self):
        policy = BatchPolicy(max_batch=8, max_wait_us=100.0)
        queue = queued([10.0, 50.0])
        assert policy.next_deadline_us(queue) == 110.0
        assert policy.ready(queue, 110.0)
        batch = policy.take(queue)
        assert [request.index for request in batch] == [0, 1]
        assert len(queue) == 0

    def test_zero_wait_dispatches_immediately(self):
        policy = BatchPolicy(max_batch=8, max_wait_us=0.0)
        queue = queued([10.0])
        assert policy.ready(queue, 10.0)


class TestBurstFillsInstantly:
    """A burst of max_batch simultaneous arrivals is ready with no wait."""

    def test_full_batch_ready_at_arrival_instant(self):
        policy = BatchPolicy(max_batch=8, max_wait_us=1e6)
        queue = queued([42.0] * 8)
        assert policy.ready(queue, 42.0)
        batch = policy.take(queue)
        assert len(batch) == 8
        assert len(queue) == 0

    def test_overfull_queue_leaves_remainder_in_fifo_order(self):
        policy = BatchPolicy(max_batch=4, max_wait_us=1e6)
        queue = queued([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        batch = policy.take(queue)
        assert [request.index for request in batch] == [0, 1, 2, 3]
        assert len(queue) == 2
        assert policy.next_deadline_us(queue) == pytest.approx(5.0 + 1e6)

    def test_batch_one_policy_always_ready(self):
        policy = BatchPolicy(max_batch=1, max_wait_us=1e6)
        queue = queued([7.0])
        assert policy.ready(queue, 7.0)
        assert len(policy.take(queue)) == 1


class TestEmpty:
    def test_empty_not_ready_and_take_raises(self):
        policy, queue = BatchPolicy(), RequestQueue()
        assert not policy.ready(queue, 1e9)
        assert policy.next_deadline_us(queue) is None
        with pytest.raises(ConfigError):
            policy.take(queue)
