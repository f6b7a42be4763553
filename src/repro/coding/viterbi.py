"""Viterbi decoder (hard and soft decision) with depuncturing.

The paper performs error correction with a Viterbi decoder per receive
channel (Table 4 lists its resource cost).  The decoder here supports the
same generic :class:`~repro.coding.convolutional.ConvolutionalCode` the
encoder uses, hard- or soft-decision branch metrics, and depuncturing of the
802.11a punctured rates.

The add-compare-select recursion is vectorised: every trellis step is
resolved with a handful of NumPy gather/argmin operations over a
precomputed predecessor table, breaking ties toward the smaller
``(state, bit)`` flat index.  The original per-branch scalar recursion
lives with the agreement tests (``tests/reference_paths.py``) as the
bit-exact reference.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.coding.convolutional import ConvolutionalCode
from repro.utils.bits import BitArray

_METRIC_INF = 1e18


class ViterbiDecoder:
    """Maximum-likelihood sequence decoder for convolutional codes.

    Parameters
    ----------
    code:
        Code definition shared with the encoder (defaults to 802.11a K=7).
    decision:
        ``"hard"`` — the input is coded bits (0/1) and branch metrics are
        Hamming distances; ``"soft"`` — the input is log-likelihood ratios
        (positive LLR means the coded bit is more likely a 0, the convention
        produced by :mod:`repro.modulation.demapper`) and branch metrics are
        correlations.
    traceback_length:
        Kept for API completeness / resource modelling; this software decoder
        always runs full-block traceback, which upper-bounds the hardware's
        windowed traceback performance.
    """

    def __init__(
        self,
        code: Optional[ConvolutionalCode] = None,
        decision: str = "hard",
        traceback_length: int = 96,
    ) -> None:
        if decision not in ("hard", "soft"):
            raise ValueError("decision must be 'hard' or 'soft'")
        self.code = code if code is not None else ConvolutionalCode.ieee80211a()
        self.decision = decision
        self.traceback_length = traceback_length
        self._next_states, self._outputs = self.code.build_trellis()
        n = self.code.n_outputs
        # outputs unpacked to individual bits, shape (n_states, 2, n_outputs)
        shifts = np.arange(n - 1, -1, -1)
        self._output_bits = ((self._outputs[..., None] >> shifts) & 1).astype(np.float64)
        self._predecessors = self._build_predecessor_table()

    def _build_predecessor_table(self) -> np.ndarray:
        """Flat ``(state, bit)`` indices feeding each next state.

        Row ``ns`` lists every flat index ``prev * 2 + bit`` whose branch
        lands in state ``ns``, sorted ascending so that ``argmin`` (which
        returns the first minimum) breaks ties toward the smaller flat
        index.  The next state is a pure shift of the input bit into the
        register, so every state has exactly two predecessors.
        """
        order = np.argsort(self._next_states.ravel(), kind="stable")
        return order.reshape(self.code.n_states, 2)

    # ------------------------------------------------------------------
    # depuncturing
    # ------------------------------------------------------------------
    def depuncture(
        self, values: np.ndarray, n_input_bits: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Re-insert erasures removed by the puncturer.

        Parameters
        ----------
        values:
            Received coded values (hard bits or LLRs) in transmission order.
        n_input_bits:
            Number of trellis steps (information + tail bits) the block
            represents.

        Returns
        -------
        (full_values, erasure_mask):
            ``full_values`` has shape ``(n_input_bits, n_outputs)`` with
            zeros in erased positions, and ``erasure_mask`` is 1 where a real
            received value is present and 0 where the puncturer deleted the
            bit.
        """
        pattern = self.code.puncture_pattern
        period = self.code.puncture_period
        n_out = self.code.n_outputs
        received = np.asarray(values, dtype=np.float64).ravel()
        # Tile the puncture pattern across trellis steps; filling the boolean
        # mask in C order (step-major, output-minor) reproduces exactly the
        # transmission order the serial depuncturer consumed values in.
        columns = np.arange(n_input_bits) % period
        present = pattern[:, columns].T.astype(bool)
        consumed = int(np.count_nonzero(present))
        if received.size < consumed:
            raise ValueError(
                "received stream too short for the requested block length"
            )
        if received.size > consumed:
            raise ValueError(
                f"received stream has {received.size} values but the block "
                f"consumes {consumed}"
            )
        full = np.zeros((n_input_bits, n_out), dtype=np.float64)
        full[present] = received
        return full, present.astype(np.float64)

    # ------------------------------------------------------------------
    # branch metrics
    # ------------------------------------------------------------------
    def _branch_metrics_block(
        self, observations: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Branch metrics for every trellis step at once.

        ``observations`` and ``mask`` have shape ``(n_steps, n_outputs)``;
        the result has shape ``(n_steps, n_states, 2)``.  Lower is better:
        hard decisions score the Hamming distance over non-erased positions,
        soft decisions (positive LLR means bit 0 more likely) the sum over
        outputs of ``bit ? +LLR : -LLR``.
        """
        if self.decision == "hard":
            diff = np.abs(self._output_bits[None] - observations[:, None, None, :])
            return (diff * mask[:, None, None, :]).sum(axis=-1)
        signs = 1.0 - 2.0 * self._output_bits
        return -(signs[None] * (observations * mask)[:, None, None, :]).sum(axis=-1)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode(
        self,
        received: Sequence[float] | np.ndarray,
        n_info_bits: Optional[int] = None,
        terminated: bool = True,
    ) -> BitArray:
        """Decode a received block back to information bits.

        Parameters
        ----------
        received:
            Hard bits or LLRs, in the (punctured) order the encoder emitted.
        n_info_bits:
            Number of information bits to return.  Required when puncturing
            makes the count ambiguous; when omitted it is inferred assuming
            an unpunctured, terminated block.
        terminated:
            Whether the encoder appended tail bits forcing the final state to
            zero; when True the decoder both exploits that and strips the
            tail from its output.
        """
        values = np.asarray(received, dtype=np.float64).ravel()
        tail = self.code.memory if terminated else 0
        if n_info_bits is None:
            pattern_sum = int(self.code.puncture_pattern.sum())
            period = self.code.puncture_period
            if values.size * period % pattern_sum != 0:
                raise ValueError(
                    "cannot infer block length; pass n_info_bits explicitly"
                )
            n_steps = values.size * period // pattern_sum
            n_info_bits = n_steps - tail
        n_steps = n_info_bits + tail
        if n_info_bits < 0:
            raise ValueError("n_info_bits must be non-negative")
        if n_steps == 0:
            return np.zeros(0, dtype=np.uint8)

        observations, mask = self.depuncture(values, n_steps)

        metrics, survivors, survivor_bits = self._acs(observations, mask)

        end_state = 0 if terminated else int(np.argmin(metrics))
        decoded = np.zeros(n_steps, dtype=np.uint8)
        state = end_state
        for step in range(n_steps - 1, -1, -1):
            decoded[step] = survivor_bits[step, state]
            state = survivors[step, state]
        return decoded[:n_info_bits]

    # ------------------------------------------------------------------
    # add-compare-select
    # ------------------------------------------------------------------
    def _acs(
        self, observations: np.ndarray, mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised ACS recursion over the whole block.

        The per-step work is a gather of each state's incoming candidate
        metrics through the precomputed predecessor table followed by a
        row-wise ``argmin`` — no Python loop over states or branches.
        ``argmin`` returns the first minimum and the predecessor rows are
        sorted by flat ``(state, bit)`` index, matching the scalar
        reference's stable tie-break exactly.
        """
        n_steps = observations.shape[0]
        n_states = self.code.n_states
        predecessors = self._predecessors
        rows = np.arange(n_states)
        branch_all = self._branch_metrics_block(observations, mask)

        metrics = np.full(n_states, _METRIC_INF)
        metrics[0] = 0.0
        survivors = np.zeros((n_steps, n_states), dtype=np.int64)
        survivor_bits = np.zeros((n_steps, n_states), dtype=np.uint8)
        for step in range(n_steps):
            candidate = metrics[:, None] + branch_all[step]  # (state, bit)
            contenders = candidate.ravel()[predecessors]  # (state, n_branches)
            choice = np.argmin(contenders, axis=1)
            winners = predecessors[rows, choice]
            metrics = contenders[rows, choice]
            survivors[step] = winners >> 1
            survivor_bits[step] = (winners & 1).astype(np.uint8)
        return metrics, survivors, survivor_bits
