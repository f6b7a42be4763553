"""The three benchmark workloads, driven through the program's public entry points.

Each workload turns a :class:`numpy.random.SeedSequence` into one call of
its entry point, times that call alone, checks the output and returns an
:class:`Outcome`.  Inputs come only from the seed, so a seed replays the
same calls.

* ``burst_long`` -- closed loop, one caller: ``MimoTransceiver.run_burst``
  at 4096 info bits per stream, 4x4 16-QAM rate 1/2, hard ZF, flat Rayleigh
  at 30 dB, a fresh seeded channel per burst built outside the timed call.
  Codec-bound, so it shows encoder/Viterbi/scrambler changes and should not
  move for FFT or QR changes.
* ``sweep_grid`` -- a cold ``SweepRunner.run`` over SNR {5, 15, 25} dB x
  {qpsk, 16qam, 64qam} x {zf, mmse}, frequency-selective, soft decision,
  256 bits per stream, early stopping at 100 bit errors, a process pool of
  up to 2 workers and a fresh ``ResultStore`` directory per call.  Short
  soft-decision bursts load demapping and detection differently from
  ``burst_long``, and the engine, queue and store add their own overhead.
* ``stream_downlink`` -- closed loop, one caller: ``DownlinkScheduler.run``
  in weighted mode over 32 users, frequency-selective at 25 dB with a
  normalised CFO of 0.01, 256 bits per frame.  The only workload through
  the frame detector, the window receive path and the CFO estimator; with
  short frames channel estimation (Givens QR) is a large share.

An *op* (what ``ops_per_s`` counts) is a burst for ``burst_long``, a burst
folded into the sweep's results for ``sweep_grid`` and a frame served for
``stream_downlink``.  ``latencies_ms`` holds the host time of one op: the
``run_burst`` call; a grid point's worker busy time (its store record's
``elapsed_s``) per folded burst; the interval between two consecutive
frames entering the streaming receiver.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.transceiver import MimoTransceiver
from repro.sim import ResultStore, SweepRunner, SweepSpec
from repro.sim.spec import ImpairmentSpec
from repro.stream.scheduler import DownlinkScheduler

#: Seed of the fixed reference calls whose results are the recorded digest;
#: independent of ``--seed`` so every run checks the same outputs.
REFERENCE_SEED = 20121


@dataclass
class Outcome:
    """One timed entry-point call."""

    ops: int
    wall_s: float
    latencies_ms: List[float]
    record: object
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


class BurstLong:
    """``MimoTransceiver.run_burst`` on long 4x4 16-QAM bursts."""

    name = "burst_long"
    tag = 1
    n_info_bits = 4096
    n_streams = 4
    info_bits_per_op = n_streams * n_info_bits
    reference_calls = 3

    def __init__(self, scratch: str) -> None:
        self.transceiver = MimoTransceiver(
            TransceiverConfig(modulation="16qam", code_rate="1/2", detector="zf")
        )

    def warm_up(self) -> None:
        self.call(np.random.SeedSequence(REFERENCE_SEED))

    def call(self, seed: np.random.SeedSequence) -> Outcome:
        payload, fading, noise = seed.spawn(3)
        self.transceiver.set_channel(
            MimoChannel(
                fading=FlatRayleighChannel(
                    self.n_streams, self.n_streams, rng=np.random.default_rng(fading)
                ),
                snr_db=30.0,
                rng=np.random.default_rng(noise),
            )
        )
        rng = np.random.default_rng(payload)
        start = time.perf_counter()
        result = self.transceiver.run_burst(self.n_info_bits, rng=rng)
        wall = time.perf_counter() - start

        problems = []
        decoded = [stream.decoded_bits for stream in result.receive_result.streams]
        if [bits.shape for bits in decoded] != [(self.n_info_bits,)] * self.n_streams:
            problems.append("decoded streams have the wrong shape")
        else:
            recount = sum(
                int(np.count_nonzero(np.asarray(ref) != bits))
                for ref, bits in zip(result.burst.info_bits, decoded)
            )
            if recount != result.bit_errors:
                problems.append(f"bit_errors {result.bit_errors} != recount {recount}")
        if result.total_bits != self.info_bits_per_op:
            problems.append(f"total_bits {result.total_bits} != {self.info_bits_per_op}")
        return Outcome(
            ops=1,
            wall_s=wall,
            latencies_ms=[wall * 1e3],
            record=[int(result.bit_errors), int(result.total_bits)],
            problems=problems,
        )

    @staticmethod
    def digest(records: List[object]) -> dict:
        return {"bursts": records}

    @staticmethod
    def rates(digest: dict) -> Dict[str, Tuple[int, int]]:
        """(errors, trials) per checked rate: the BER over the reference bursts."""
        return {
            "ber": (
                sum(errors for errors, _ in digest["bursts"]),
                sum(total for _, total in digest["bursts"]),
            )
        }


class SweepGrid:
    """A cold ``SweepRunner.run`` over an 18-point soft-decision grid."""

    name = "sweep_grid"
    tag = 2
    n_info_bits = 256
    n_streams = 4
    info_bits_per_op = n_streams * n_info_bits
    n_bursts = 20
    target_errors = 100
    reference_calls = 1
    grid = dict(
        snr_db=(5.0, 15.0, 25.0),
        modulations=("qpsk", "16qam", "64qam"),
        detectors=("zf", "mmse"),
        channels=("frequency_selective",),
        soft_decision=True,
    )

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch
        self.n_workers = min(2, os.cpu_count() or 1)

    def spec(self, seed: np.random.SeedSequence) -> SweepSpec:
        return SweepSpec(
            n_info_bits=self.n_info_bits,
            n_bursts=self.n_bursts,
            target_errors=self.target_errors,
            base_seed=int(seed.generate_state(1)[0]),
            **self.grid,
        )

    def warm_up(self) -> None:
        """A cold one-point, one-burst sweep through the pool."""
        spec = self.spec(np.random.SeedSequence(REFERENCE_SEED)).subset(
            snr_db=(25.0,), modulations=("16qam",), detectors=("zf",), n_bursts=1
        )
        with tempfile.TemporaryDirectory(prefix="store-", dir=self.scratch) as directory:
            SweepRunner(spec, n_workers=self.n_workers, cache=ResultStore(directory)).run()

    def call(self, seed: np.random.SeedSequence, n_workers: int = 0) -> Outcome:
        spec = self.spec(seed)
        directory = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            store = ResultStore(directory)
            runner = SweepRunner(spec, n_workers=n_workers or self.n_workers, cache=store)
            start = time.perf_counter()
            result = runner.run()
            wall = time.perf_counter() - start
            stored = store.get_many([p.point.content_key(spec) for p in result.points])
        finally:
            shutil.rmtree(directory, ignore_errors=True)

        problems = []
        folded = sum(p.n_bursts for p in result.points)
        if len(result.points) != spec.n_points or result.from_cache:
            problems.append("sweep returned the wrong number of points or a cached result")
        if result.n_bursts_simulated < folded:
            problems.append("fewer bursts simulated than folded")
        latencies = []
        for p in result.points:
            if not 1 <= p.n_bursts <= self.n_bursts:
                problems.append(f"point {p.point.index}: n_bursts {p.n_bursts}")
            if p.total_bits != p.n_bursts * self.info_bits_per_op:
                problems.append(f"point {p.point.index}: total_bits {p.total_bits}")
            if not 0 <= p.bit_errors <= p.total_bits:
                problems.append(f"point {p.point.index}: bit_errors {p.bit_errors}")
            if p.early_stopped != (p.n_bursts < self.n_bursts) or (
                p.early_stopped and p.bit_errors < self.target_errors
            ):
                problems.append(f"point {p.point.index}: early stop without the error target")
            record = stored.get(p.point.content_key(spec))
            if record is None or int(record["n_bursts"]) != p.n_bursts:
                problems.append(f"point {p.point.index}: store record missing or stale")
            else:
                latencies.append(float(record["elapsed_s"]) / p.n_bursts * 1e3)
        table = [
            [
                p.point.snr_db,
                p.point.modulation,
                p.point.detector,
                int(p.n_bursts),
                int(p.bit_errors),
                int(p.total_bits),
                int(p.frame_errors),
                int(p.decode_failures),
            ]
            for p in result.points
        ]
        return Outcome(
            ops=folded,
            wall_s=wall,
            latencies_ms=latencies,
            record=table,
            problems=problems,
            extra={"bursts_simulated": float(result.n_bursts_simulated)},
        )

    @staticmethod
    def digest(records: List[object]) -> dict:
        return {"points": records[0]}

    @staticmethod
    def rates(digest: dict) -> Dict[str, Tuple[int, int]]:
        """(errors, trials) per checked rate: the BER of every grid point."""
        return {
            f"ber@{snr:g}dB/{modulation}/{detector}": (errors, total)
            for snr, modulation, detector, _, errors, total, _, _ in digest["points"]
        }


class _FrameClock:
    """Stands in for a scheduler's streaming receiver and stamps each frame.

    One ``perf_counter`` read per pushed frame; everything else is
    forwarded to the real :class:`~repro.stream.pipeline.StreamingReceiver`.
    """

    def __init__(self, pipeline) -> None:
        self._pipeline = pipeline
        self.marks: List[float] = []

    def push(self, chunk):
        self.marks.append(time.perf_counter())
        return self._pipeline.push(chunk)

    def flush(self):
        return self._pipeline.flush()


class StreamDownlink:
    """``DownlinkScheduler.run`` in weighted mode over a CFO-impaired channel."""

    name = "stream_downlink"
    tag = 3
    n_info_bits = 256
    n_streams = 4
    info_bits_per_op = n_streams * n_info_bits
    n_users = 32
    frames_per_user = 1
    reference_calls = 1

    def __init__(self, scratch: str) -> None:
        self.weights = 1.0 + np.arange(self.n_users) % 4
        self.impairment = ImpairmentSpec(cfo_normalized=0.01)

    def scheduler(self, seed: np.random.SeedSequence, n_users: int) -> DownlinkScheduler:
        return DownlinkScheduler(
            n_users=n_users,
            frames_per_user=self.frames_per_user,
            mode="weighted",
            weights=self.weights[:n_users],
            n_info_bits=self.n_info_bits,
            channel="frequency_selective",
            snr_db=25.0,
            impairment=self.impairment,
            base_seed=int(seed.generate_state(1)[0]),
        )

    def warm_up(self) -> None:
        """One user, one frame."""
        self.scheduler(np.random.SeedSequence(REFERENCE_SEED), n_users=1).run()

    def call(self, seed: np.random.SeedSequence) -> Outcome:
        scheduler = self.scheduler(seed, self.n_users)
        clock = _FrameClock(scheduler.pipeline)
        scheduler.pipeline = clock
        start = time.perf_counter()
        report = scheduler.run()
        wall = time.perf_counter() - start

        problems = []
        expected = self.n_users * self.frames_per_user
        if report.frames_served != expected or len(clock.marks) != expected:
            problems.append(f"served {report.frames_served} frames, expected {expected}")
        if report.frames_delivered + report.frames_lost != report.frames_served:
            problems.append("delivered + lost != served")
        if report.latency.n > report.frames_served:
            problems.append("more latency samples than frames served")
        bit_errors = sum(user.bit_errors for user in report.users.values())
        latency = report.latency
        record = {
            "frames_served": int(report.frames_served),
            "frames_delivered": int(report.frames_delivered),
            "frames_lost": int(report.frames_lost),
            "spurious": int(report.spurious_detections),
            "bit_errors": int(bit_errors),
            "latency_s": {
                "n": int(latency.n),
                "p50": float(latency.p50),
                "p95": float(latency.p95),
                "p99": float(latency.p99),
                "mean": float(latency.mean),
                "worst": float(latency.worst),
            },
        }
        return Outcome(
            ops=int(report.frames_served),
            wall_s=wall,
            latencies_ms=list(np.diff(clock.marks) * 1e3),
            record=record,
            problems=problems,
            extra={
                "frames_lost": float(report.frames_lost),
                "spurious": float(report.spurious_detections),
            },
        )

    @staticmethod
    def digest(records: List[object]) -> dict:
        return records[0]

    @staticmethod
    def rates(digest: dict) -> Dict[str, Tuple[int, int]]:
        """(errors, trials) per checked rate: the frame-loss rate."""
        return {"frame_loss": (digest["frames_lost"], digest["frames_served"])}


WORKLOADS = {w.name: w for w in (BurstLong, SweepGrid, StreamDownlink)}


def op_seed(seed: int, workload, index: int) -> np.random.SeedSequence:
    """Seed of the ``index``-th call of ``workload`` under run seed ``seed``."""
    return np.random.SeedSequence([seed, workload.tag, index])
