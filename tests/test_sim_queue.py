"""Tests for repro.sim.queue: backend semantics the runner relies on."""

import pytest

import repro.sim.runner as runner_module
from repro.sim import SweepRunner, SweepSpec
from repro.sim.queue import InProcessQueue, MultiprocessingQueue


def double(payload):
    """Module-level work function (picklable for the process backend)."""
    return payload["x"] * 2


def explode(payload):
    """Module-level failing work function."""
    raise RuntimeError(f"boom-{payload['x']}")


class TestInProcessQueue:
    def test_fifo_order_and_tags(self):
        queue = InProcessQueue()
        for x in range(3):
            queue.submit(double, {"x": x}, tag=f"t{x}")
        assert queue.pending() == 3
        assert queue.next_result() == ("t0", 0)
        assert queue.next_result() == ("t1", 2)
        assert queue.pending() == 1
        queue.close()
        assert queue.pending() == 0

    def test_lazy_execution(self):
        # Nothing runs at submit time: early stopping decisions made
        # between submit and next_result still spare the work.
        calls = []
        queue = InProcessQueue()
        queue.submit(lambda payload: calls.append(payload), {"x": 1})
        assert calls == []
        queue.next_result()
        assert calls == [{"x": 1}]

    def test_exception_propagates(self):
        queue = InProcessQueue()
        queue.submit(explode, {"x": 7})
        with pytest.raises(RuntimeError, match="boom-7"):
            queue.next_result()

    def test_next_result_without_work_raises(self):
        with pytest.raises(RuntimeError):
            InProcessQueue().next_result()


class TestMultiprocessingQueue:
    def test_results_come_back_tagged(self):
        with MultiprocessingQueue(n_workers=2) as queue:
            for x in range(4):
                queue.submit(double, {"x": x}, tag=x)
            results = dict(queue.next_result() for _ in range(4))
        assert results == {0: 0, 1: 2, 2: 4, 3: 6}

    def test_worker_exception_reraises_in_caller(self):
        with MultiprocessingQueue(n_workers=1) as queue:
            queue.submit(explode, {"x": 3}, tag="bad")
            queue.submit(double, {"x": 5}, tag="good")
            outcomes = {}
            for _ in range(2):
                try:
                    tag, value = queue.next_result()
                    outcomes[tag] = value
                except RuntimeError as error:
                    outcomes["error"] = str(error)
            assert outcomes["error"] == "boom-3"
            assert outcomes["good"] == 10  # the pool survives a failure

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiprocessingQueue(n_workers=0)


@pytest.mark.parametrize(
    "n_workers, backend, capacity",
    [(1, InProcessQueue, 1), (2, MultiprocessingQueue, 4)],
)
def test_runner_picks_the_queue_from_the_worker_count(
    monkeypatch, n_workers, backend, capacity
):
    # One worker drains inline; more drain through a pool keeping two tasks
    # per worker in flight.  The worker count is the only selector.
    opened = []
    for cls in (InProcessQueue, MultiprocessingQueue):
        def recording(*args, cls=cls):
            queue = cls(*args)
            opened.append(queue)
            return queue

        monkeypatch.setattr(runner_module, cls.__name__, recording)
    spec = SweepSpec(
        snr_db=(30.0,),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=64,
        n_bursts=1,
        target_errors=None,
    )
    SweepRunner(spec, n_workers=n_workers, cache=False).run()
    assert [type(queue) for queue in opened] == [backend]
    assert opened[0].capacity == capacity
