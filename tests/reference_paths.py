"""Per-symbol and stage-at-a-time reference paths for the link datapath.

The transmitter, receiver, channel, Viterbi decoder and symbol demapper in
``src/`` run one batched datapath.  The loops they replaced live here,
unchanged, as the bit-exact oracles that
``tests/test_hot_path_agreement.py`` compares against and that the
``benchmarks/test_rx_datapath.py`` / ``benchmarks/test_link_datapath.py``
speedup gates time.  Every function takes the production object whose
configuration it reads.

:func:`reference_transmitter`, :func:`reference_receiver`,
:func:`reference_channel` and :func:`reference_decoder` return a copy of a
production object whose batched stages are replaced by these references,
so a whole burst can run through either path with everything else shared.
"""

from __future__ import annotations

import copy
import functools
from typing import Optional

import numpy as np

from repro.channel.awgn import awgn_noise
from repro.channel.impairments import (
    apply_carrier_frequency_offset,
    apply_iq_imbalance,
)
from repro.channel.model import MimoChannel
from repro.coding.interleaver import interleave
from repro.coding.viterbi import _METRIC_INF, ViterbiDecoder
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.dsp.fft import fft, ofdm_modulate
from repro.mimo.channel_estimation import ChannelEstimate
from repro.mimo.detector import MmseDetector, zf_detect
from repro.modulation.demapper import SymbolDemapper
from repro.utils.bits import unpack_bits


# ----------------------------------------------------------------------
# transmitter
# ----------------------------------------------------------------------
def map_stream(
    transmitter: MimoTransmitter, coded_bits: np.ndarray, n_symbols: int
) -> np.ndarray:
    """Interleave and map one stream; returns frequency-domain symbols.

    Output shape is ``(n_symbols, fft_size)`` with pilots inserted.
    """
    config = transmitter.config
    n_cbps = config.coded_bits_per_symbol
    n_bpsc = config.bits_per_subcarrier
    fft_size = config.fft_size
    data_bins = list(transmitter.numerology.data_bins)
    symbols = np.zeros((n_symbols, fft_size), dtype=np.complex128)
    for n in range(n_symbols):
        block = coded_bits[n * n_cbps : (n + 1) * n_cbps]
        interleaved = interleave(block, n_cbps, n_bpsc)
        constellation_points = transmitter.mapper.map_bits(interleaved)
        frequency = np.zeros(fft_size, dtype=np.complex128)
        frequency[data_bins] = constellation_points
        symbols[n] = transmitter.pilots.insert(frequency, n)
    return symbols


def modulate_stream(
    transmitter: MimoTransmitter, frequency_symbols: np.ndarray
) -> np.ndarray:
    """IFFT + cyclic prefix for every OFDM symbol of one stream."""
    cp = transmitter.config.cyclic_prefix_length
    waveform = [
        ofdm_modulate(frequency_symbols[n], cp)
        for n in range(frequency_symbols.shape[0])
    ]
    if not waveform:
        return np.zeros(0, dtype=np.complex128)
    return np.concatenate(waveform)


def reference_transmitter(transmitter: MimoTransmitter) -> MimoTransmitter:
    """Copy of ``transmitter`` that maps and modulates stream by stream."""
    reference = copy.copy(transmitter)

    def map_block(padded_bits: np.ndarray, n_symbols: int) -> np.ndarray:
        return np.stack(
            [map_stream(reference, bits, n_symbols) for bits in padded_bits]
        )

    def modulate_block(frequency_block: np.ndarray) -> np.ndarray:
        return np.stack(
            [modulate_stream(reference, symbols) for symbols in frequency_block]
        )

    reference._map_block = map_block
    reference._modulate_block = modulate_block
    return reference


# ----------------------------------------------------------------------
# receiver
# ----------------------------------------------------------------------
def estimate_channel(
    receiver: MimoReceiver, samples: np.ndarray, lts_start: int
) -> ChannelEstimate:
    """Channel estimate from the staggered LTS slots, one FFT per window."""
    streams = np.asarray(samples, dtype=np.complex128)
    n_rx = streams.shape[0]
    n_tx = receiver.config.n_antennas
    fft_size = receiver.config.fft_size
    layout = receiver.preamble.layout(n_tx)
    slot_starts = (
        int(lts_start)
        + np.arange(n_tx) * layout.lts_slot_length
        + receiver.preamble.lts_cp_length
        - receiver.timing_advance
    )
    received_lts = np.zeros((n_tx, n_rx, fft_size), dtype=np.complex128)
    for slot in range(n_tx):
        first_end = int(slot_starts[slot]) + fft_size
        second_end = first_end + fft_size
        for rx in range(n_rx):
            first = receiver._quantize_multiplier(
                fft(streams[rx, int(slot_starts[slot]) : first_end])
            )
            second = receiver._quantize_multiplier(
                fft(streams[rx, first_end:second_end])
            )
            # Averaged with an adder and right shift in hardware.
            received_lts[slot, rx] = (first + second) / 2.0
    return receiver.channel_estimator.estimate(received_lts)


def equalize_burst(
    receiver: MimoReceiver,
    streams: np.ndarray,
    estimate: ChannelEstimate,
    data_start: int,
    n_symbols: int,
    noise_variance: float = 1.0,
):
    """FFT, detect and pilot-correct every data OFDM symbol, one at a time.

    Returns ``(equalized, pilot_phases)`` exactly as
    :meth:`~repro.core.receiver.MimoReceiver.equalize_burst` does.
    """
    config = receiver.config
    n_tx = config.n_antennas
    fft_size = config.fft_size
    data_bins = list(receiver.numerology.data_bins)
    starts = (
        data_start
        + np.arange(n_symbols) * config.samples_per_symbol
        + config.cyclic_prefix_length
        - receiver.timing_advance
    )

    if config.detector == "mmse":
        mmse = MmseDetector(estimate, noise_variance)
        detect = mmse.detect
    else:
        def detect(frequency: np.ndarray) -> np.ndarray:
            return zf_detect(frequency, estimate.inverses)

    equalized = np.zeros((n_tx, n_symbols, len(data_bins)), dtype=np.complex128)
    phases = []
    for n in range(n_symbols):
        start = int(starts[n])
        block = streams[:, start : start + fft_size]
        frequency = receiver._quantize_multiplier(fft(block))
        detected = detect(frequency)
        for stream in range(n_tx):
            corrected, diag = receiver.pilots.correct(detected[stream], n)
            phases.append(diag.common_phase)
            equalized[stream, n] = corrected[data_bins]
    pilot_phases = np.array(phases, dtype=np.float64)
    return equalized, pilot_phases


def reference_receiver(receiver: MimoReceiver) -> MimoReceiver:
    """Copy of ``receiver`` that estimates and equalises symbol by symbol."""
    reference = copy.copy(receiver)
    reference.estimate_channel = functools.partial(estimate_channel, reference)
    reference.equalize_burst = functools.partial(equalize_burst, reference)
    return reference


# ----------------------------------------------------------------------
# channel
# ----------------------------------------------------------------------
def transmit_stages(
    channel: MimoChannel, x: np.ndarray
) -> tuple[np.ndarray, Optional[float]]:
    """Stage-at-a-time channel pipeline (bit-exact vs the fused path)."""
    y = channel.fading.apply(x)
    if channel.sample_delay:
        # The receiver keeps listening while the burst arrives late:
        # the observation window grows by the delay and every
        # transmitted sample survives the shift.  (The length-preserving
        # apply_sample_delay alone would truncate the burst tail.)
        pad = np.zeros(y.shape[:-1] + (channel.sample_delay,), dtype=np.complex128)
        y = np.concatenate([pad, y], axis=-1)
    if channel.cfo_normalized:
        y = apply_carrier_frequency_offset(y, channel.cfo_normalized)
    noise_variance = channel._noise_variance_for(y)
    if noise_variance:
        y = y + awgn_noise(y.shape, noise_variance, channel.rng)
    if channel.iq_amplitude_db or channel.iq_phase_deg:
        y = apply_iq_imbalance(y, channel.iq_amplitude_db, channel.iq_phase_deg)
    if channel.rx_quantization is not None:
        y = channel.rx_quantization.quantize_complex(y)
    return y, noise_variance


def reference_channel(channel: MimoChannel) -> MimoChannel:
    """Copy of ``channel`` that applies its stages one at a time.

    The copy shares the noise generator; compare against a freshly seeded
    channel, not against the one it was copied from.
    """
    reference = copy.copy(channel)
    reference._transmit_fused = functools.partial(transmit_stages, reference)
    return reference


# ----------------------------------------------------------------------
# Viterbi decoder
# ----------------------------------------------------------------------
def branch_metrics(
    decoder: ViterbiDecoder, observation: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Metric of each (state, input) branch for one trellis step.

    Lower is better.  ``observation`` and ``mask`` have length
    ``n_outputs``.
    """
    if decoder.decision == "hard":
        # Hamming distance over non-erased positions.
        diff = np.abs(decoder._output_bits - observation[None, None, :])
        return (diff * mask[None, None, :]).sum(axis=-1)
    # Soft decision: LLR convention is positive => bit 0 more likely.
    # Metric = sum over outputs of (bit ? +LLR : -LLR), lower better.
    signs = 1.0 - 2.0 * decoder._output_bits  # bit0 -> +1, bit1 -> -1
    return -(signs * (observation * mask)[None, None, :]).sum(axis=-1)


def acs_scalar(
    decoder: ViterbiDecoder, observations: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference per-branch ACS (the original implementation)."""
    n_steps = observations.shape[0]
    n_states = decoder.code.n_states
    metrics = np.full(n_states, _METRIC_INF)
    metrics[0] = 0.0
    survivors = np.zeros((n_steps, n_states), dtype=np.int64)
    survivor_bits = np.zeros((n_steps, n_states), dtype=np.uint8)

    next_states = decoder._next_states
    for step in range(n_steps):
        branch = branch_metrics(decoder, observations[step], mask[step])
        candidate = metrics[:, None] + branch  # (state, bit)
        new_metrics = np.full(n_states, _METRIC_INF)
        best_prev = np.zeros(n_states, dtype=np.int64)
        best_bit = np.zeros(n_states, dtype=np.uint8)
        flat_next = next_states.ravel()
        flat_metric = candidate.ravel()
        order = np.argsort(flat_metric, kind="stable")
        seen = np.zeros(n_states, dtype=bool)
        for idx in order:
            ns = flat_next[idx]
            if seen[ns]:
                continue
            seen[ns] = True
            new_metrics[ns] = flat_metric[idx]
            best_prev[ns] = idx // 2
            best_bit[ns] = idx % 2
            if seen.all():
                break
        metrics = new_metrics
        survivors[step] = best_prev
        survivor_bits[step] = best_bit
    return metrics, survivors, survivor_bits


def reference_decoder(decoder: ViterbiDecoder) -> ViterbiDecoder:
    """Copy of ``decoder`` that runs the per-branch scalar ACS."""
    reference = copy.copy(decoder)
    reference._acs = functools.partial(acs_scalar, reference)
    return reference


# ----------------------------------------------------------------------
# symbol demapper
# ----------------------------------------------------------------------
def hard_decisions_scalar(demapper: SymbolDemapper, symbols) -> np.ndarray:
    """Per-symbol reference hard demapper (one symbol at a time)."""
    received = np.asarray(symbols, dtype=np.complex128).ravel()
    bits = []
    for symbol in received:
        distances = np.abs(symbol - demapper.constellation.points) ** 2
        bits.append(unpack_bits([int(np.argmin(distances))], demapper.bits_per_symbol))
    if not bits:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(bits)


def soft_decisions_scalar(
    demapper: SymbolDemapper, symbols: np.ndarray, noise_variance: float = 1.0
) -> np.ndarray:
    """Per-symbol, per-bit reference soft demapper."""
    if noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    received = np.asarray(symbols, dtype=np.complex128).ravel()
    k = demapper.bits_per_symbol
    llrs = np.zeros((received.size, k), dtype=np.float64)
    for index, symbol in enumerate(received):
        distances = np.abs(symbol - demapper.constellation.points) ** 2
        for bit in range(k):
            mask_zero = demapper._bit_table[:, bit] == 0
            d_zero = distances[mask_zero].min()
            d_one = distances[~mask_zero].min()
            llrs[index, bit] = (d_one - d_zero) / noise_variance
    return llrs.ravel()
