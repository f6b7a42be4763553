"""Whole-burst receiver datapath — batched chain vs the per-symbol loop.

The paper's Fig. 5 receive chain (per-antenna FFT, per-subcarrier MIMO
detection, pilot phase/timing correction) used to run one OFDM symbol at a
time.  The batched path gathers every data window of the burst into one
``(n_rx, n_symbols, fft_size)`` block, runs a single planned FFT
(:class:`repro.dsp.fft.FftPlan` caches the bit-reverse permutation and
per-stage twiddles per size), detects with one einsum and pilot-corrects
with one block pass — bit-identically (see
``tests/test_hot_path_agreement.py``).  The per-symbol loop is the
reference in ``tests/reference_paths.py``.

This benchmark measures the burst-level speedup of that chain on the
paper's synthesised 4x4, 64-point configuration and asserts the acceptance
threshold (>= 3x).  A second table reports the end-to-end effect through
the sweep engine's serial backbone, where Viterbi decoding bounds the
total — the chain's share of burst time is what shrinks.
"""

import time

import numpy as np
import pytest

from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import MimoTransceiver
from repro.core.transmitter import MimoTransmitter
from repro.sim.engine import simulate_point
from reference_paths import equalize_burst, reference_receiver

N_INFO_BITS = 4800  # ~51 data OFDM symbols per stream at 16-QAM rate 1/2
MIN_SPEEDUP = 3.0


def _best_of(callable_, repeats=5):
    """Best (minimum) wall-clock of several runs — robust on loaded hosts."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def synced_burst():
    """One transmitted burst plus the receiver-side sync/estimation prologue."""
    config = TransceiverConfig.paper_default()
    transmitter = MimoTransmitter(config)
    burst = transmitter.transmit_random(N_INFO_BITS, rng=np.random.default_rng(42))
    receiver = MimoReceiver(config)
    lts_start = 160
    estimate = receiver.estimate_channel(burst.samples, lts_start)
    layout = receiver.preamble.layout(config.n_antennas)
    data_start = lts_start + config.n_antennas * layout.lts_slot_length
    coded = receiver._encoder.coded_length(N_INFO_BITS, terminate=True)
    n_symbols = -(-coded // config.coded_bits_per_symbol)
    return config, burst, estimate, data_start, n_symbols


@pytest.mark.benchmark(group="rx-datapath")
def test_batched_chain_speedup_over_per_symbol_loop(
    benchmark, table_printer, synced_burst
):
    config, burst, estimate, data_start, n_symbols = synced_burst
    receiver = MimoReceiver(config)
    args = (burst.samples, estimate, data_start, n_symbols)

    def run_batched():
        return receiver.equalize_burst(*args)

    def run_scalar():
        return equalize_burst(receiver, *args)

    eq_batched, phases_batched = run_batched()
    eq_scalar, phases_scalar = run_scalar()
    np.testing.assert_array_equal(eq_batched, eq_scalar)
    np.testing.assert_array_equal(phases_batched, phases_scalar)

    batched_s = benchmark.pedantic(
        lambda: _best_of(run_batched), rounds=1, iterations=1
    )
    scalar_s = _best_of(run_scalar)
    speedup = scalar_s / batched_s

    table_printer(
        f"Receive chain (FFT -> detect -> pilots), 4x4 64-pt, "
        f"{n_symbols} OFDM symbols/burst",
        ["path", "per burst", "speedup"],
        [
            ("per-symbol loop", f"{scalar_s * 1e3:.2f} ms", "1.0x"),
            ("batched", f"{batched_s * 1e3:.2f} ms", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched receive chain only {speedup:.1f}x faster than the "
        f"per-symbol loop (required {MIN_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="rx-datapath")
def test_burst_simulation_through_the_engine_backbone(benchmark, table_printer):
    """End-to-end effect: identical physics, receiver path as the only knob."""
    config = TransceiverConfig.paper_default()
    rows = []
    results = {}
    elapsed = {}
    for vectorized in (False, True):
        transceiver = MimoTransceiver(config)
        if not vectorized:
            transceiver.receiver = reference_receiver(transceiver.receiver)

        def run(t=transceiver):
            return simulate_point(
                t, n_info_bits=1200, n_bursts=3, rng=7, known_timing=True
            )

        if vectorized:
            results[vectorized] = benchmark.pedantic(run, rounds=1, iterations=1)
            elapsed[vectorized] = _best_of(run, repeats=2)
        else:
            results[vectorized] = run()
            elapsed[vectorized] = _best_of(run, repeats=2)
        label = "batched" if vectorized else "per-symbol"
        rows.append(
            (
                label,
                f"{elapsed[vectorized] * 1e3:.1f} ms",
                results[vectorized]["bit_errors"],
            )
        )
    table_printer(
        "simulate_point, 3 bursts x 1200 info bits (Viterbi-bound end to end)",
        ["receiver path", "3 bursts", "bit errors"],
        rows,
    )
    # Same physics bit for bit, whichever path the receiver takes.
    assert results[True] == results[False]
