"""Store-backed sweep execution over an in-process queue or a worker pool.

:class:`SweepRunner` turns a :class:`~repro.sim.spec.SweepSpec` into a
:class:`~repro.sim.spec.SweepResult`:

1. **Resume first** — every grid point hashes to a stable
   :meth:`~repro.sim.spec.SweepPoint.content_key`; points with a finished
   record in the sharded :class:`~repro.sim.store.ResultStore` are loaded
   without simulating a burst.  An interrupted sweep therefore re-runs
   only its missing remainder, and overlapping grids share their
   intersection.  Passing ``cache=False`` runs with no store at all.
2. **Batches over a work queue** — each pending point's burst budget is
   split into fixed-size batches and drained through
   :class:`~repro.sim.queue.InProcessQueue` for one worker or
   :class:`~repro.sim.queue.MultiprocessingQueue` otherwise.  Every burst
   owns a deterministic RNG stream seeded by the point's content and the
   burst index, so the simulated physics is bit-identical for any worker
   count, batch size or completion order.
3. **Early stopping + atomic commits** — batches report per-burst counts
   and the runner folds each point's burst sequence in order, truncating
   at the exact burst whose cumulative bit errors cross
   ``spec.target_errors``.  The moment a point folds, its record is
   committed to the store (one atomic appended line), so a crash loses at
   most the in-flight points.
4. **Adaptive refinement** (:meth:`SweepRunner.run_adaptive`) — after the
   base sweep, extra bursts are allocated round by round to the points
   whose BER confidence intervals are widest (see :mod:`repro.sim.stats`),
   extending each point's deterministic burst stream with the same batch
   builder and fold; refined records are stored under budget-extended keys
   so a re-run replays the allocation from the store without simulating.

Statistics never depend on the worker count or batch size (which is why
neither participates in the point keys).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Union

from repro.sim.engine import simulate_batch
from repro.sim.queue import InProcessQueue, MultiprocessingQueue
from repro.sim.spec import SweepPoint, SweepPointResult, SweepResult, SweepSpec
from repro.sim.stats import allocate_bursts
from repro.sim.store import ResultStore

StoreLike = Union[None, bool, str, "os.PathLike[str]", ResultStore]


def _resolve_store(cache: StoreLike) -> Optional[ResultStore]:
    """Normalise the ``cache`` argument into a :class:`ResultStore` or ``None``."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultStore()
    if isinstance(cache, ResultStore):
        return cache
    return ResultStore(cache)


class SweepRunner:
    """Execute a sweep spec over a work queue, with per-point persistence.

    Parameters
    ----------
    spec:
        The sweep to run.
    n_workers:
        Pool size; ``None`` uses every CPU.  ``1`` runs inline with no pool
        (no fork overhead — the right choice on single-core hosts and under
        benchmarks).  Zero or negative raises :class:`ValueError`.
    batch_size:
        Bursts per work unit.  Smaller batches give early stopping a finer
        trigger; larger batches amortise task overhead.  The default of 10
        (clamped to the burst budget) works well for both.
    cache:
        ``True`` (default) for the shared per-point store, ``False``/``None``
        for no store, or a directory /
        :class:`~repro.sim.store.ResultStore` selecting a specific store.
        With a store, finished points are read from it instead of
        simulated, each point is re-checked right before its first batch is
        dispatched, and every folded point is committed to it.  Without
        one, everything is simulated and nothing is written.
    """

    def __init__(
        self,
        spec: SweepSpec,
        n_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        cache: StoreLike = True,
    ) -> None:
        self.spec = spec
        if n_workers is not None and n_workers <= 0:
            raise ValueError("n_workers must be positive or None")
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = min(batch_size or 10, spec.n_bursts)
        self.store = _resolve_store(cache)

    # ------------------------------------------------------------------
    def run(self) -> SweepResult:
        """Run (or resume) the sweep and return its result."""
        start = time.perf_counter()
        points = self.spec.points()
        loaded = self._adopt({point.content_key(self.spec): point for point in points})
        pending = [point for point in points if point.index not in loaded]
        simulated: Dict[int, SweepPointResult] = {}
        computed = 0
        if pending:
            simulated, computed = self._simulate(pending)
        return SweepResult(
            spec=self.spec,
            points=[
                loaded[p.index] if p.index in loaded else simulated[p.index]
                for p in points
            ],
            elapsed_s=time.perf_counter() - start,
            from_cache=self.store is not None and not pending,
            n_bursts_simulated=computed,
        )

    def _open_queue(self) -> Union[InProcessQueue, MultiprocessingQueue]:
        """The in-process queue for one worker, the process pool otherwise."""
        if self.n_workers == 1:
            return InProcessQueue()
        return MultiprocessingQueue(self.n_workers)

    # ------------------------------------------------------------------
    # Store round-trips
    def _adopt(self, wanted: Dict[str, SweepPoint]) -> Dict[int, SweepPointResult]:
        """Results of the ``key -> point`` entries with an intact store record.

        Keyed by point index; empty without a store.  Each shard is read
        once, so a warm re-run of a whole grid costs a few file reads.
        """
        if self.store is None:
            return {}
        adopted = {}
        for key, payload in self.store.get_many(wanted).items():
            point = wanted[key]
            try:
                adopted[point.index] = SweepPointResult(
                    point=point,
                    bit_errors=int(payload["bit_errors"]),
                    total_bits=int(payload["total_bits"]),
                    frame_errors=int(payload["frame_errors"]),
                    n_bursts=int(payload["n_bursts"]),
                    early_stopped=bool(payload["early_stopped"]),
                    decode_failures=int(payload.get("decode_failures", 0)),
                )
            except (KeyError, TypeError, ValueError):
                continue  # a corrupt record is a miss
        return adopted

    def _commit(
        self, result: SweepPointResult, batch_stats: List[dict], extra_bursts: int = 0
    ) -> None:
        """Commit one folded point to the store (atomic appended record)."""
        if self.store is None:
            return
        self.store.put(
            result.point.content_key(self.spec, extra_bursts=extra_bursts),
            {
                "bit_errors": result.bit_errors,
                "total_bits": result.total_bits,
                "frame_errors": result.frame_errors,
                "n_bursts": result.n_bursts,
                "early_stopped": result.early_stopped,
                "decode_failures": result.decode_failures,
                "elapsed_s": sum(s.get("elapsed_s", 0.0) for s in batch_stats),
                "point": result.point.to_dict(),
            },
        )

    # ------------------------------------------------------------------
    # Task building and folding
    def _tasks_for(
        self,
        point: SweepPoint,
        spec: Optional[SweepSpec] = None,
        start_burst: int = 0,
        count: Optional[int] = None,
    ) -> List[dict]:
        """Batch payloads covering ``count`` bursts of one point from ``start_burst``.

        The defaults cover the point's whole base budget under the runner's
        spec; refinement passes a spec without an error target and the
        extension's first burst and size.
        """
        spec = spec if spec is not None else self.spec
        end_burst = start_burst + (count if count is not None else spec.n_bursts)
        spec_payload = spec.to_dict()
        point_payload = point.to_dict()
        tasks = []
        while start_burst < end_burst:
            n_bursts = min(self.batch_size, end_burst - start_burst)
            tasks.append(
                {
                    "spec": spec_payload,
                    "point": point_payload,
                    "start_burst": start_burst,
                    "n_bursts": n_bursts,
                    "batch_index": len(tasks),
                }
            )
            start_burst += n_bursts
        return tasks

    def _fold(
        self,
        point: SweepPoint,
        batch_stats: List[dict],
        start: Optional[SweepPointResult] = None,
    ) -> SweepPointResult:
        """Accumulate the global burst sequence, stopping at the error target.

        Batches report per-burst counts; folding them in batch order and
        truncating at the exact burst whose cumulative bit errors cross
        ``target_errors`` makes the reported statistics a pure function of
        the spec — independent of batch size, worker count and completion
        order.  (Parallel runs may have *computed* bursts past the crossing
        point; they are discarded here.)

        A refinement fold passes the point's current result as ``start``:
        the extension bursts are added to it with no error target, and the
        refined point is never reported as early-stopped.
        """
        if start is None:
            target = self.spec.target_errors
            bit_errors = total_bits = frame_errors = decode_failures = n_bursts = 0
        else:
            target = None
            bit_errors, total_bits = start.bit_errors, start.total_bits
            frame_errors, decode_failures = start.frame_errors, start.decode_failures
            n_bursts = start.n_bursts
        stopped = False
        for stats in sorted(batch_stats, key=lambda s: s["batch_index"]):
            for burst in stats["bursts"]:
                bit_errors += burst["bit_errors"]
                total_bits += burst["total_bits"]
                frame_errors += burst["frame_error"]
                decode_failures += burst["decode_failure"]
                n_bursts += 1
                if target is not None and bit_errors >= target:
                    stopped = True
                    break
            if stopped:
                break
        return SweepPointResult(
            point=point,
            bit_errors=bit_errors,
            total_bits=total_bits,
            frame_errors=frame_errors,
            n_bursts=n_bursts,
            early_stopped=start is None and n_bursts < self.spec.n_bursts,
            decode_failures=decode_failures,
        )

    def _target_reached(self, bit_errors: int) -> bool:
        """Whether a running per-point error total crossed the stop target."""
        target = self.spec.target_errors
        return target is not None and bit_errors >= target

    @staticmethod
    def _batch_errors(stats: dict) -> int:
        """Total bit errors of one batch report."""
        return sum(burst["bit_errors"] for burst in stats["bursts"])

    # ------------------------------------------------------------------
    # Queue-driven execution
    def _simulate(self, points: List[SweepPoint]):
        """Drain the pending points through the work queue.

        Returns ``(results_by_index, computed_bursts)`` where the second
        item counts every burst actually simulated — including any the
        fold later discards past the early-stopping point.

        Scheduling: whenever the queue has capacity, one batch is submitted
        from the point with the fewest batches in flight (ties to the
        fewest dispatched, then the lowest index), which round-robins the
        frontier across every unfinished point — the pool stays saturated
        even when early stopping collapses most points to a single batch.
        A point whose running error total crosses the target stops
        submitting; its in-flight surplus is discarded by the fold.  Every
        point is committed to the store the moment it folds, so an
        interrupted run keeps its finished points.

        With a store, a point is re-checked against it right before its
        *first* batch is dispatched: a concurrent runner that committed the
        point after this run's initial scan is honoured, bounding double
        simulation to the points genuinely in flight at the same moment.
        """
        tasks = {point.index: self._tasks_for(point) for point in points}
        cursors = {point.index: 0 for point in points}
        in_flight = {point.index: 0 for point in points}
        collected: Dict[int, List[dict]] = {point.index: [] for point in points}
        errors = {point.index: 0 for point in points}
        by_index = {point.index: point for point in points}
        results: Dict[int, SweepPointResult] = {}
        computed = 0
        with self._open_queue() as queue:
            def wants_work(index: int) -> bool:
                return (
                    index not in results
                    and cursors[index] < len(tasks[index])
                    and not self._target_reached(errors[index])
                )

            def maybe_finish(index: int) -> None:
                if index in results or in_flight[index] > 0:
                    return
                if cursors[index] < len(tasks[index]) and not self._target_reached(
                    errors[index]
                ):
                    return
                result = self._fold(by_index[index], collected[index])
                results[index] = result
                self._commit(result, collected[index])

            def submit_next() -> bool:
                candidates = [index for index in by_index if wants_work(index)]
                while candidates:
                    index = min(
                        candidates,
                        key=lambda i: (in_flight[i], cursors[i], i),
                    )
                    if cursors[index] == 0:
                        point = by_index[index]
                        adopted = self._adopt({point.content_key(self.spec): point})
                        if adopted:
                            # A concurrent runner finished this point since
                            # our initial scan: adopt its record, skip the
                            # simulation entirely.
                            results.update(adopted)
                            candidates.remove(index)
                            continue
                    queue.submit(simulate_batch, tasks[index][cursors[index]], tag=index)
                    cursors[index] += 1
                    in_flight[index] += 1
                    return True
                return False

            while True:
                while queue.pending() < queue.capacity and submit_next():
                    pass
                if queue.pending() == 0:
                    break
                index, stats = queue.next_result()
                in_flight[index] -= 1
                collected[index].append(stats)
                errors[index] += self._batch_errors(stats)
                computed += len(stats["bursts"])
                maybe_finish(index)
            for index in by_index:
                maybe_finish(index)
        return results, computed

    # ------------------------------------------------------------------
    # Adaptive refinement
    def run_adaptive(
        self,
        extra_bursts: int,
        rounds: int = 4,
        confidence: float = 0.95,
        method: str = "wilson",
    ) -> SweepResult:
        """Run the base sweep, then spend ``extra_bursts`` where CIs are widest.

        Each round allocates ``extra_bursts / rounds`` additional bursts
        across the grid with :func:`repro.sim.stats.allocate_bursts`:
        greedily, to the points whose BER confidence intervals
        (``confidence``/``method``, see :mod:`repro.sim.stats`) are
        predicted widest.  Extension bursts continue each point's
        deterministic content-keyed stream right after its last folded
        burst — no re-rolling, no early stopping — and the refined record
        is committed under the point's budget-extended key
        (``content_key(spec, extra_bursts=...)``).

        The allocation is a pure function of the base results, so a re-run
        of the same adaptive call replays it exactly and is served entirely
        from the store.  Returned points carry heterogeneous burst counts;
        ``early_stopped`` is False for every refined point (it ran its full
        refined budget).
        """
        if extra_bursts <= 0:
            raise ValueError("extra_bursts must be positive")
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        start = time.perf_counter()
        base = self.run()
        current: Dict[int, SweepPointResult] = {
            result.point.index: result for result in base.points
        }
        extras = {index: 0 for index in current}
        computed = base.n_bursts_simulated
        per_round = -(-extra_bursts // rounds)  # ceil
        remaining = extra_bursts
        while remaining > 0:
            budget = min(per_round, remaining)
            remaining -= budget
            allocation = allocate_bursts(
                widths={
                    index: result.ber_interval_width(confidence, method)
                    for index, result in current.items()
                },
                observations={
                    index: result.total_bits for index, result in current.items()
                },
                per_burst={
                    index: max(
                        result.total_bits // max(result.n_bursts, 1),
                        self.spec.n_info_bits,
                    )
                    for index, result in current.items()
                },
                budget=budget,
            )
            if not allocation:
                break
            computed += self._extend_points(current, extras, allocation)
        return SweepResult(
            spec=self.spec,
            points=[current[index] for index in sorted(current)],
            elapsed_s=time.perf_counter() - start,
            from_cache=self.store is not None and computed == 0,
            n_bursts_simulated=computed,
        )

    def _extend_points(
        self,
        current: Dict[int, SweepPointResult],
        extras: Dict[int, int],
        allocation: Dict[int, int],
    ) -> int:
        """Apply one refinement round's allocation in place; returns bursts simulated.

        For every allocated point, the refined record (base + all
        extensions so far) is first looked up in the store under the
        extended-budget key; hits are adopted without simulating.  Misses
        simulate the extension bursts — seeded by absolute burst index, they
        are the exact bursts an uninterrupted run would have drawn — fold
        them onto the current result and commit the refined record.
        """
        pending = []
        for index in sorted(allocation):
            extras[index] += allocation[index]
            point = current[index].point
            adopted = self._adopt(
                {point.content_key(self.spec, extra_bursts=extras[index]): point}
            )
            if adopted:
                current.update(adopted)
            else:
                pending.append(index)
        if not pending:
            return 0

        refined_spec = self.spec.subset(target_errors=None)
        batches: Dict[int, List[dict]] = {index: [] for index in pending}
        computed = 0
        with self._open_queue() as queue:
            for index in pending:
                for task in self._tasks_for(
                    current[index].point,
                    refined_spec,
                    start_burst=current[index].n_bursts,
                    count=allocation[index],
                ):
                    queue.submit(simulate_batch, task, tag=index)
            while queue.pending() > 0:
                index, stats = queue.next_result()
                batches[index].append(stats)
                computed += len(stats["bursts"])

        for index, stats_list in batches.items():
            current[index] = self._fold(
                current[index].point, stats_list, start=current[index]
            )
            self._commit(current[index], stats_list, extra_bursts=extras[index])
        return computed


def run_sweep(spec: SweepSpec, **runner_kwargs) -> SweepResult:
    """One-call convenience wrapper: ``SweepRunner(spec, **kwargs).run()``."""
    return SweepRunner(spec, **runner_kwargs).run()
