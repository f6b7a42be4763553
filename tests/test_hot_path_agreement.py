"""Bit-exact agreement between the vectorised hot paths and their scalar references.

The :mod:`repro.sim` engine leans on the vectorised inner loops — the
Viterbi add-compare-select in :mod:`repro.coding.viterbi`, the batched
symbol demapper in :mod:`repro.modulation.demapper`, the whole-burst
receive chain in :mod:`repro.core.receiver` (planned FFT gather, batched
ZF/MMSE detection and block pilot correction), the whole-burst transmit
chain in :mod:`repro.core.transmitter` (block interleave/map, block pilot
insertion, one planned IFFT, strided cyclic-prefix gather) and the fused
channel pipeline in :mod:`repro.channel.model`.  Every scalar reference
lives in ``tests/reference_paths.py``.  These
property-style tests assert exact equality across random codewords,
constellations, noise levels, puncturing patterns, impairment combinations
and full transceiver configurations.
"""

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.model import MimoChannel
from repro.coding.convolutional import CodeRate, ConvolutionalCode, ConvolutionalEncoder
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import TransceiverConfig
from repro.core.pilots import PilotProcessor
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.dsp.fixedpoint import MULTIPLIER_FORMAT_18BIT
from repro.modulation.constellations import Modulation
from repro.modulation.demapper import SymbolDemapper
from reference_paths import (
    acs_scalar,
    estimate_channel,
    hard_decisions_scalar,
    reference_channel,
    reference_decoder,
    reference_receiver,
    reference_transmitter,
    soft_decisions_scalar,
)

ALL_RATES = [CodeRate.RATE_1_2, CodeRate.RATE_2_3, CodeRate.RATE_3_4]
ALL_MODULATIONS = [
    Modulation.BPSK,
    Modulation.QPSK,
    Modulation.QAM16,
    Modulation.QAM64,
]


class TestViterbiAcsAgreement:
    """Vectorised vs scalar add-compare-select across the code grid."""

    @pytest.mark.parametrize("rate", ALL_RATES)
    @pytest.mark.parametrize("decision", ["hard", "soft"])
    def test_random_codewords_decode_identically(self, rate, decision):
        rng = np.random.default_rng(hash((rate.value, decision)) % 2**32)
        code = ConvolutionalCode.ieee80211a(rate)
        encoder = ConvolutionalEncoder(code)
        vectorized = ViterbiDecoder(code, decision=decision)
        scalar = reference_decoder(ViterbiDecoder(code, decision=decision))

        for _ in range(12):
            n_bits = int(rng.integers(4, 240))
            info = rng.integers(0, 2, n_bits).astype(np.uint8)
            coded = encoder.encode(info, terminate=True).astype(np.float64)
            if decision == "hard":
                # Flip a random fraction of the coded bits.
                flips = rng.random(coded.size) < rng.uniform(0.0, 0.12)
                received = np.where(flips, 1.0 - coded, coded)
            else:
                # Noisy LLRs around the +-1 antipodal mapping (0 -> +1).
                received = (1.0 - 2.0 * coded) + rng.normal(
                    0.0, rng.uniform(0.3, 1.2), coded.size
                )
            out_vec = vectorized.decode(received, n_info_bits=n_bits, terminated=True)
            out_sca = scalar.decode(received, n_info_bits=n_bits, terminated=True)
            np.testing.assert_array_equal(out_vec, out_sca)

    @pytest.mark.parametrize("rate", ALL_RATES)
    def test_unterminated_blocks_decode_identically(self, rate):
        rng = np.random.default_rng(99)
        code = ConvolutionalCode.ieee80211a(rate)
        encoder = ConvolutionalEncoder(code)
        vectorized = ViterbiDecoder(code)
        scalar = reference_decoder(ViterbiDecoder(code))
        for _ in range(6):
            n_bits = int(rng.integers(8, 120))
            info = rng.integers(0, 2, n_bits).astype(np.uint8)
            coded = encoder.encode(info, terminate=False).astype(np.float64)
            flips = rng.random(coded.size) < 0.05
            received = np.where(flips, 1.0 - coded, coded)
            np.testing.assert_array_equal(
                vectorized.decode(received, n_info_bits=n_bits, terminated=False),
                scalar.decode(received, n_info_bits=n_bits, terminated=False),
            )

    def test_tie_break_matches_on_degenerate_input(self):
        # An all-zero received block produces many equal path metrics; the
        # vectorised argmin must resolve every tie exactly like the scalar
        # stable sort does.
        code = ConvolutionalCode.ieee80211a()
        vectorized = ViterbiDecoder(code)
        scalar = reference_decoder(ViterbiDecoder(code))
        received = np.zeros(2 * 40, dtype=np.float64)
        np.testing.assert_array_equal(
            vectorized.decode(received, n_info_bits=34, terminated=True),
            scalar.decode(received, n_info_bits=34, terminated=True),
        )

    @pytest.mark.parametrize("rate", ALL_RATES)
    def test_depuncture_matches_serial_reference(self, rate):
        decoder = ViterbiDecoder(ConvolutionalCode.ieee80211a(rate))
        code = decoder.code
        rng = np.random.default_rng(7)
        for _ in range(5):
            n_steps = int(rng.integers(code.puncture_period, 60))
            # Serial reference: walk the puncture pattern bit by bit.
            kept = [
                (step, out)
                for step in range(n_steps)
                for out in range(code.n_outputs)
                if code.puncture_pattern[out, step % code.puncture_period]
            ]
            values = rng.normal(size=len(kept))
            expected_full = np.zeros((n_steps, code.n_outputs))
            expected_mask = np.zeros((n_steps, code.n_outputs))
            for value, (step, out) in zip(values, kept):
                expected_full[step, out] = value
                expected_mask[step, out] = 1.0
            full, mask = decoder.depuncture(values, n_steps)
            np.testing.assert_array_equal(full, expected_full)
            np.testing.assert_array_equal(mask, expected_mask)

    def test_depuncture_length_validation(self):
        decoder = ViterbiDecoder(ConvolutionalCode.ieee80211a(CodeRate.RATE_3_4))
        with pytest.raises(ValueError):
            decoder.depuncture(np.zeros(3), 6)
        with pytest.raises(ValueError):
            decoder.depuncture(np.zeros(100), 6)


class TestDemapperBatchAgreement:
    """Batched demapping vs the per-symbol scalar reference."""

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_hard_decisions_agree(self, modulation):
        rng = np.random.default_rng(modulation.bits_per_symbol)
        demapper = SymbolDemapper(modulation)
        for _ in range(8):
            n_symbols = int(rng.integers(1, 200))
            symbols = rng.normal(size=n_symbols) + 1j * rng.normal(size=n_symbols)
            np.testing.assert_array_equal(
                demapper.hard_decisions(symbols),
                hard_decisions_scalar(demapper, symbols),
            )

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_soft_decisions_agree(self, modulation):
        rng = np.random.default_rng(100 + modulation.bits_per_symbol)
        demapper = SymbolDemapper(modulation)
        for _ in range(8):
            n_symbols = int(rng.integers(1, 120))
            noise_variance = float(rng.uniform(0.05, 2.0))
            symbols = rng.normal(size=n_symbols) + 1j * rng.normal(size=n_symbols)
            np.testing.assert_array_equal(
                demapper.soft_decisions(symbols, noise_variance=noise_variance),
                soft_decisions_scalar(demapper, symbols, noise_variance=noise_variance),
            )

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_2d_block_demap_equals_per_symbol_loop(self, modulation):
        # The receiver hands the demapper a whole (n_symbols, n_subcarriers)
        # block; the result must equal demapping row by row and concatenating.
        rng = np.random.default_rng(17)
        demapper = SymbolDemapper(modulation)
        block = rng.normal(size=(5, 12)) + 1j * rng.normal(size=(5, 12))
        for soft in (False, True):
            batched = demapper.demap(block, soft=soft, noise_variance=0.5)
            rowwise = np.concatenate(
                [demapper.demap(row, soft=soft, noise_variance=0.5) for row in block]
            )
            np.testing.assert_array_equal(batched, rowwise)

    def test_empty_input(self):
        demapper = SymbolDemapper("qpsk")
        assert demapper.hard_decisions(np.zeros(0)).size == 0
        assert hard_decisions_scalar(demapper, np.zeros(0)).size == 0
        assert demapper.soft_decisions(np.zeros(0)).size == 0


def _receive_both_ways(config, channel, n_info_bits=360, seed=0, noise_variance=0.05):
    """Decode one faded burst with the batched and the per-symbol receivers."""
    transmitter = MimoTransmitter(config)
    burst = transmitter.transmit_random(n_info_bits, rng=np.random.default_rng(seed))
    samples = channel.transmit(burst.samples).samples if channel is not None else burst.samples
    receiver = MimoReceiver(config)
    return [
        path.receive(samples, n_info_bits=n_info_bits, noise_variance=noise_variance)
        for path in (receiver, reference_receiver(receiver))
    ]


def _assert_results_identical(batched, scalar):
    assert batched.lts_start == scalar.lts_start
    assert batched.diagnostics == scalar.diagnostics
    np.testing.assert_array_equal(
        batched.channel_estimate.matrices, scalar.channel_estimate.matrices
    )
    np.testing.assert_array_equal(
        batched.channel_estimate.inverses, scalar.channel_estimate.inverses
    )
    for stream_b, stream_s in zip(batched.streams, scalar.streams):
        np.testing.assert_array_equal(
            stream_b.equalized_symbols, stream_s.equalized_symbols
        )
        np.testing.assert_array_equal(stream_b.decoded_bits, stream_s.decoded_bits)


class TestReceiverBatchAgreement:
    """Whole-burst receive chain vs the retained per-symbol reference.

    The full matrix the tentpole claims: hard and soft decisions, ZF and
    MMSE detection, with and without the 18-bit multiplier quantisation
    between the FFT and the detector — every decoded bit, equalised symbol,
    channel-estimate entry and diagnostic must be bit-identical.
    """

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    @pytest.mark.parametrize("soft_decision", [False, True])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_full_matrix_agrees_bit_exactly(self, detector, soft_decision, quantized):
        config = TransceiverConfig(
            detector=detector,
            soft_decision=soft_decision,
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT if quantized else None,
        )
        # Deterministic per-cell seed (hash() is randomised per process).
        seed = (
            400 * int(detector == "mmse")
            + 200 * int(soft_decision)
            + 100 * int(quantized)
            + 80
        )
        channel = MimoChannel(
            FlatRayleighChannel(rng=seed), snr_db=14.0, rng=seed + 1
        )
        batched, scalar = _receive_both_ways(config, channel, seed=seed + 2)
        _assert_results_identical(batched, scalar)

    def test_frequency_selective_channel_agrees(self):
        config = TransceiverConfig(soft_decision=True)
        channel = MimoChannel(
            FrequencySelectiveChannel(n_taps=4, rng=50), snr_db=20.0, rng=51
        )
        batched, scalar = _receive_both_ways(config, channel, seed=52)
        _assert_results_identical(batched, scalar)

    def test_ideal_channel_agrees(self):
        config = TransceiverConfig()
        batched, scalar = _receive_both_ways(config, channel=None, seed=53)
        _assert_results_identical(batched, scalar)
        assert all(s.bit_errors in (None, 0) for s in batched.streams)

    @pytest.mark.parametrize("rate", ALL_RATES)
    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_code_grid_agrees(self, modulation, rate):
        # The receiver's block demap/deinterleave/decode must track the
        # per-symbol reference for every constellation and puncturing.
        config = TransceiverConfig(
            modulation=modulation, code_rate=rate, soft_decision=True
        )
        seed = 2000 + 10 * modulation.bits_per_symbol + ALL_RATES.index(rate)
        channel = MimoChannel(
            FlatRayleighChannel(rng=seed), snr_db=24.0, rng=seed + 1
        )
        batched, scalar = _receive_both_ways(config, channel, seed=seed + 2)
        _assert_results_identical(batched, scalar)

    @pytest.mark.parametrize("n_streams", [2, 4])
    def test_channel_estimation_agrees(self, n_streams):
        config = TransceiverConfig(n_antennas=n_streams)
        transmitter = MimoTransmitter(config)
        burst = transmitter.transmit_random(120, rng=np.random.default_rng(60))
        channel = MimoChannel(
            FlatRayleighChannel(n_streams, n_streams, rng=61), snr_db=25.0, rng=62
        )
        samples = channel.transmit(burst.samples).samples
        receiver = MimoReceiver(config)
        lts_start = receiver.synchronize(samples)
        est_b = receiver.estimate_channel(samples, lts_start)
        est_s = estimate_channel(receiver, samples, lts_start)
        np.testing.assert_array_equal(est_b.matrices, est_s.matrices)
        np.testing.assert_array_equal(est_b.inverses, est_s.inverses)


class TestTransmitterBatchAgreement:
    """Whole-burst transmit chain vs the retained per-symbol reference."""

    @pytest.mark.parametrize("rate", ALL_RATES)
    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_bursts_identical_across_the_code_grid(self, modulation, rate):
        config = TransceiverConfig(modulation=modulation, code_rate=rate)
        seed = 1000 + 10 * modulation.bits_per_symbol + ALL_RATES.index(rate)
        rng = np.random.default_rng(seed)
        bits = [
            rng.integers(0, 2, size=int(rng.integers(40, 700)), dtype=np.uint8)
            for _ in range(config.n_streams)
        ]
        transmitter = MimoTransmitter(config)
        batched = transmitter.transmit(bits)
        scalar = reference_transmitter(transmitter).transmit(bits)
        np.testing.assert_array_equal(batched.samples, scalar.samples)
        np.testing.assert_array_equal(
            batched.frequency_symbols, scalar.frequency_symbols
        )
        for coded_b, coded_s in zip(batched.coded_bits, scalar.coded_bits):
            np.testing.assert_array_equal(coded_b, coded_s)

    @pytest.mark.parametrize("n_streams", [2, 4])
    def test_antenna_counts_agree(self, n_streams):
        config = TransceiverConfig(n_antennas=n_streams)
        rng = np.random.default_rng(90 + n_streams)
        bits = [
            rng.integers(0, 2, size=300, dtype=np.uint8) for _ in range(n_streams)
        ]
        transmitter = MimoTransmitter(config)
        batched = transmitter.transmit(bits)
        scalar = reference_transmitter(transmitter).transmit(bits)
        np.testing.assert_array_equal(batched.samples, scalar.samples)

    def test_pilot_insert_block_matches_per_symbol_insert(self):
        numerology = TransceiverConfig().numerology
        processor = PilotProcessor(numerology)
        rng = np.random.default_rng(91)
        block = rng.normal(size=(4, 7, 64)) + 1j * rng.normal(size=(4, 7, 64))
        inserted = processor.insert_block(block, start_index=3)
        for stream in range(4):
            for n in range(7):
                np.testing.assert_array_equal(
                    inserted[stream, n], processor.insert(block[stream, n], 3 + n)
                )

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    @pytest.mark.parametrize("soft_decision", [False, True])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_full_link_matrix_decodes_identically(
        self, detector, soft_decision, quantized
    ):
        # The transmit path is the only knob: both bursts cross the same
        # channel realisation and the same (batched) receiver, so every
        # decoded bit and equalised symbol must be bit-identical.
        config = TransceiverConfig(
            detector=detector,
            soft_decision=soft_decision,
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT if quantized else None,
        )
        seed = (
            800 * int(detector == "mmse")
            + 400 * int(soft_decision)
            + 200 * int(quantized)
            + 3000
        )
        rng = np.random.default_rng(seed)
        bits = [
            rng.integers(0, 2, size=360, dtype=np.uint8)
            for _ in range(config.n_streams)
        ]
        receiver = MimoReceiver(config)
        transmitter = MimoTransmitter(config)
        results = []
        for path in (transmitter, reference_transmitter(transmitter)):
            burst = path.transmit(bits)
            channel = MimoChannel(
                FlatRayleighChannel(rng=seed + 1), snr_db=16.0, rng=seed + 2
            )
            output = channel.transmit(burst.samples)
            results.append(
                receiver.receive(
                    output.samples,
                    n_info_bits=360,
                    noise_variance=output.noise_variance,
                )
            )
        _assert_results_identical(*results)


CHANNEL_IMPAIRMENT_CASES = [
    {},
    {"snr_db": 12.0},
    {"cfo_normalized": 2e-4},
    {"sample_delay": 23},
    {"iq_amplitude_db": 0.5, "iq_phase_deg": 2.0},
    {"snr_db": 8.0, "sample_delay": 11, "iq_amplitude_db": 0.3, "iq_phase_deg": -3.0},
    {
        "snr_db": 15.0,
        "cfo_normalized": 1e-4,
        "sample_delay": 17,
        "iq_amplitude_db": 1.0,
        "iq_phase_deg": 4.0,
    },
]


class TestChannelFusedAgreement:
    """Fused whole-burst channel pipeline vs the stage-at-a-time reference.

    Noise consumes the generator, so each compared path gets a freshly
    seeded channel — identical seeds, identical draws.
    """

    @pytest.mark.parametrize("case", CHANNEL_IMPAIRMENT_CASES)
    @pytest.mark.parametrize("fading", ["ideal", "flat", "selective"])
    def test_every_impairment_combination_agrees(self, fading, case):
        from repro.dsp.fixedpoint import SAMPLE_FORMAT_16BIT

        rng = np.random.default_rng(5000)
        x = rng.normal(size=(4, 1500)) + 1j * rng.normal(size=(4, 1500))
        kwargs = dict(case)
        kwargs["tx_quantization"] = SAMPLE_FORMAT_16BIT
        kwargs["rx_quantization"] = SAMPLE_FORMAT_16BIT

        def build():
            if fading == "flat":
                model = FlatRayleighChannel(4, 4, rng=np.random.default_rng(5001))
            elif fading == "selective":
                model = FrequencySelectiveChannel(4, 4, rng=np.random.default_rng(5001))
            else:
                model = None
            return MimoChannel(model, rng=np.random.default_rng(5002), **kwargs)

        fused = build().transmit(x)
        staged = reference_channel(build()).transmit(x)
        np.testing.assert_array_equal(fused.samples, staged.samples)
        assert fused.noise_variance == staged.noise_variance


    @pytest.mark.parametrize("n_antennas", [1, 2])
    def test_smaller_arrays_agree(self, n_antennas):
        rng = np.random.default_rng(5100 + n_antennas)
        x = rng.normal(size=(n_antennas, 900)) + 1j * rng.normal(size=(n_antennas, 900))

        def build():
            model = FrequencySelectiveChannel(
                n_antennas, n_antennas, rng=np.random.default_rng(5103)
            )
            return MimoChannel(
                model,
                snr_db=10.0,
                cfo_normalized=5e-5,
                sample_delay=9,
                rng=np.random.default_rng(5104),
            )

        fused = build().transmit(x)
        staged = reference_channel(build()).transmit(x)
        np.testing.assert_array_equal(fused.samples, staged.samples)
        assert fused.noise_variance == staged.noise_variance


class TestReferenceCopiesAreIsolated:
    """The reference builders return copies and leave the original batched.

    If a builder patched the object it was given, every agreement test
    above would compare the reference against itself and pass vacuously.
    """

    def test_transmitter_original_keeps_its_block_stages(self, paper_config):
        transmitter = MimoTransmitter(paper_config)
        reference = reference_transmitter(transmitter)
        assert reference is not transmitter
        assert "_map_block" not in vars(transmitter)
        assert "_modulate_block" not in vars(transmitter)
        assert "_map_block" in vars(reference)
        assert "_modulate_block" in vars(reference)

    def test_receiver_original_keeps_its_block_stages(self, paper_config):
        receiver = MimoReceiver(paper_config)
        reference = reference_receiver(receiver)
        assert reference is not receiver
        assert "estimate_channel" not in vars(receiver)
        assert "equalize_burst" not in vars(receiver)
        assert reference.estimate_channel.func is estimate_channel
        assert reference.estimate_channel.args == (reference,)

    def test_channel_original_keeps_its_fused_pipeline(self):
        channel = MimoChannel(snr_db=10.0, rng=5200)
        reference = reference_channel(channel)
        assert reference is not channel
        assert "_transmit_fused" not in vars(channel)
        assert reference._transmit_fused.args == (reference,)

    def test_decoder_original_keeps_its_vectorised_acs(self):
        decoder = ViterbiDecoder(ConvolutionalCode.ieee80211a())
        reference = reference_decoder(decoder)
        assert reference is not decoder
        assert "_acs" not in vars(decoder)
        assert reference._acs.func is acs_scalar
        assert reference._acs.args == (reference,)


class TestPilotBlockAgreement:
    """PilotProcessor.correct_block vs per-symbol correct."""

    def test_random_blocks_agree(self):
        numerology = TransceiverConfig().numerology
        processor = PilotProcessor(numerology)
        rng = np.random.default_rng(70)
        block = rng.normal(size=(4, 9, 64)) + 1j * rng.normal(size=(4, 9, 64))
        corrected, diag = processor.correct_block(block)
        for stream in range(4):
            for n in range(9):
                expected, expected_diag = processor.correct(block[stream, n], n)
                np.testing.assert_array_equal(corrected[stream, n], expected)
                assert diag.common_phase[stream, n] == expected_diag.common_phase
                assert diag.tau[stream, n] == expected_diag.tau
                assert diag.pilot_magnitude[stream, n] == expected_diag.pilot_magnitude

    def test_start_index_selects_polarity(self):
        numerology = TransceiverConfig().numerology
        processor = PilotProcessor(numerology)
        rng = np.random.default_rng(71)
        block = rng.normal(size=(2, 3, 64)) + 1j * rng.normal(size=(2, 3, 64))
        corrected, _ = processor.correct_block(block, start_index=5)
        for stream in range(2):
            for n in range(3):
                expected, _ = processor.correct(block[stream, n], 5 + n)
                np.testing.assert_array_equal(corrected[stream, n], expected)

    def test_zero_pilot_symbol_left_untouched(self):
        # A symbol whose pilot correlation is exactly zero takes the scalar
        # early-return; the block path must reproduce it with zeroed
        # diagnostics and unchanged data values.
        numerology = TransceiverConfig().numerology
        processor = PilotProcessor(numerology)
        rng = np.random.default_rng(72)
        block = rng.normal(size=(1, 2, 64)) + 1j * rng.normal(size=(1, 2, 64))
        block[0, 1, list(numerology.pilot_bins)] = 0.0
        corrected, diag = processor.correct_block(block)
        expected, expected_diag = processor.correct(block[0, 1], 1)
        np.testing.assert_array_equal(corrected[0, 1], expected)
        assert diag.common_phase[0, 1] == expected_diag.common_phase == 0.0
        assert diag.tau[0, 1] == expected_diag.tau == 0.0
        assert diag.pilot_magnitude[0, 1] == expected_diag.pilot_magnitude == 0.0

    def test_shape_validation(self):
        processor = PilotProcessor(TransceiverConfig().numerology)
        with pytest.raises(ValueError):
            processor.correct_block(np.zeros(64, dtype=complex))
        with pytest.raises(ValueError):
            processor.correct_block(np.zeros((3, 32), dtype=complex))


class TestShapeContractsOnTheHotPath:
    """The batched hot path carries declared ``@shaped`` contracts.

    The agreement tests above prove the batched and per-symbol paths are
    bit-identical; these prove the *shape contracts* guarding that hot
    path are actually attached and enforced at runtime, so a refactor
    that silently drops a decorator (or reorders burst axes) fails here
    rather than in a sweep.
    """

    def test_equalize_burst_declares_its_burst_layout(self):
        contract = MimoReceiver.equalize_burst.__shape_contract__
        assert "streams" in contract

    def test_block_tx_path_declares_its_block_layout(self):
        assert "return" in MimoTransmitter._map_block.__shape_contract__
        assert (
            "frequency_block"
            in MimoTransmitter._modulate_block.__shape_contract__
        )

    def test_equalize_burst_rejects_a_transposed_burst(self, paper_config):
        receiver = MimoReceiver(paper_config)
        from repro.contracts import ShapeContractError

        with pytest.raises(ShapeContractError):
            # rank-3 where the contract demands (n_rx, n_samples); the
            # contract rejects the burst before the body ever runs, so
            # the placeholder estimate is never touched.
            receiver.equalize_burst(
                np.zeros((4, 2, 64), dtype=np.complex128),
                estimate=None,
                data_start=0,
                n_symbols=1,
            )

    def test_modulate_block_rejects_a_flattened_block(self, paper_config):
        transmitter = MimoTransmitter(paper_config)
        from repro.contracts import ShapeContractError

        with pytest.raises(ShapeContractError):
            # rank-2 where the contract demands (n_streams, n_symbols, fft_size)
            transmitter._modulate_block(
                np.zeros((4, 64), dtype=np.complex128)
            )
