"""Whole-burst transmit + channel datapath — batched/fused vs the references.

The receive half of the link went whole-burst first (see
``test_rx_datapath.py``); this benchmark covers the other half.  The
batched transmit chain interleaves and LUT-maps every stream's coded bits
in one pass, scatters them into one ``(n_streams, n_symbols, fft_size)``
block, pilot-inserts with one block pass, runs a single planned IFFT and
cyclic-prefixes with one strided gather; the fused channel applies fading,
delay, CFO, noise, IQ imbalance and quantisation to a single
observation-window buffer in place.  Both are bit-identical to their
per-symbol/stage-at-a-time references in ``tests/reference_paths.py``
(see ``tests/test_hot_path_agreement.py``), so speed is the only degree of
freedom — measured here on the paper's synthesised 4x4, 64-point
configuration and gated at the acceptance threshold (>= 3x).

The gate covers the stages the batching touches: interleave/map -> pilots
-> IFFT -> cyclic prefix -> channel.  The convolutional encoder in front
is the same bit-serial loop on both paths (as Viterbi is on the receive
side), so it appears only in the second, engine-backbone table where it —
like Viterbi — bounds the end-to-end total.
"""

import time

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.transceiver import MimoTransceiver
from repro.core.transmitter import MimoTransmitter
from repro.sim.engine import simulate_point
from reference_paths import (
    map_stream,
    modulate_stream,
    reference_channel,
    reference_transmitter,
)

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
def encoded_burst():
    """One encoded payload (per-stream padded coded bits) plus its burst."""
    config = TransceiverConfig.paper_default()
    transmitter = MimoTransmitter(config)
    rng = np.random.default_rng(42)
    bits = [
        rng.integers(0, 2, size=N_INFO_BITS, dtype=np.uint8)
        for _ in range(config.n_streams)
    ]
    encoded = [transmitter._encode_stream(b) for b in bits]
    n_symbols = max(count for _, count in encoded)
    n_cbps = config.coded_bits_per_symbol
    padded = []
    for coded, _ in encoded:
        full = np.zeros(n_symbols * n_cbps, dtype=np.uint8)
        full[: coded.size] = coded
        padded.append(full)
    burst = transmitter.transmit(bits)
    return config, padded, np.stack(padded), n_symbols, burst


def _impaired_channel():
    """A fully-loaded channel, freshly seeded so both paths draw identically."""
    return MimoChannel(
        FlatRayleighChannel(4, 4, rng=np.random.default_rng(7)),
        snr_db=18.0,
        cfo_normalized=1e-4,
        sample_delay=25,
        iq_amplitude_db=0.5,
        iq_phase_deg=2.0,
        rng=np.random.default_rng(8),
    )


@pytest.mark.benchmark(group="link-datapath")
def test_batched_tx_and_channel_speedup(benchmark, table_printer, encoded_burst):
    config, padded, stacked, n_symbols, burst = encoded_burst
    transmitter = MimoTransmitter(config)

    def run_batched():
        frequency = transmitter._map_block(stacked, n_symbols)
        samples = transmitter._modulate_block(frequency)
        return frequency, samples, _impaired_channel().transmit(burst.samples)

    def run_scalar():
        frequency = np.stack(
            [map_stream(transmitter, bits, n_symbols) for bits in padded]
        )
        samples = np.stack(
            [modulate_stream(transmitter, symbols) for symbols in frequency]
        )
        channel = reference_channel(_impaired_channel())
        return frequency, samples, channel.transmit(burst.samples)

    freq_b, samples_b, out_b = run_batched()
    freq_s, samples_s, out_s = run_scalar()
    np.testing.assert_array_equal(freq_b, freq_s)
    np.testing.assert_array_equal(samples_b, samples_s)
    np.testing.assert_array_equal(out_b.samples, out_s.samples)
    assert out_b.noise_variance == out_s.noise_variance

    batched_s = benchmark.pedantic(
        lambda: _best_of(run_batched), rounds=1, iterations=1
    )
    scalar_s = _best_of(run_scalar)
    speedup = scalar_s / batched_s

    table_printer(
        f"Transmit stages + channel (map -> pilots -> IFFT -> CP -> "
        f"fading/CFO/noise/IQ), 4x4 64-pt, {n_symbols} OFDM symbols/burst",
        ["path", "per burst", "speedup"],
        [
            ("per-symbol + staged", f"{scalar_s * 1e3:.2f} ms", "1.0x"),
            ("batched + fused", f"{batched_s * 1e3:.2f} ms", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched transmit + fused channel only {speedup:.1f}x faster than "
        f"the per-symbol references (required {MIN_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="link-datapath")
def test_burst_simulation_through_the_engine_backbone(benchmark, table_printer):
    """End-to-end effect: identical physics, transmit path as the only knob."""
    config = TransceiverConfig.paper_default()
    rows = []
    results = {}
    for vectorized in (False, True):
        transceiver = MimoTransceiver(
            config, channel=MimoChannel(snr_db=22.0, rng=9)
        )
        if not vectorized:
            transceiver.transmitter = reference_transmitter(transceiver.transmitter)
            transceiver.channel = reference_channel(transceiver.channel)

        def run(t=transceiver):
            t.channel.rng = np.random.default_rng(10)
            return simulate_point(
                t, n_info_bits=1200, n_bursts=3, rng=7, known_timing=True
            )

        if vectorized:
            results[vectorized] = benchmark.pedantic(run, rounds=1, iterations=1)
        else:
            results[vectorized] = run()
        elapsed = _best_of(run, repeats=2)
        label = "batched + fused" if vectorized else "per-symbol + staged"
        rows.append(
            (label, f"{elapsed * 1e3:.1f} ms", results[vectorized]["bit_errors"])
        )
    table_printer(
        "simulate_point, 3 bursts x 1200 info bits (encoder/Viterbi-bound "
        "end to end)",
        ["transmit/channel path", "3 bursts", "bit errors"],
        rows,
    )
    # Same physics bit for bit, whichever paths the link takes.
    assert results[True] == results[False]
