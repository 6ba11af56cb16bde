"""Logical-failure determination for |0...0>_L runs (paper Sec. V.B).

After the protocol, the paper applies a perfect EC round with lookup-table
decoding and destructively measures all data qubits in the Z basis; a run
is a logical error when the resulting bitstring anticommutes with a logical
operator of the prepared eigenstate — for |0...0>_L, when any logical-Z
parity is odd. Z-type residuals are invisible to a Z-basis readout of a Z
eigenstate, so only the X-type residual (after perfect X-correction) can
flip a logical-Z parity.
"""

from __future__ import annotations

import numpy as np

from ..codes.css import CSSCode
from .bitplane import WORD, pack_shots, row_csr, unpack_shots, xor_rows
from .decoder import LookupDecoder
from .frame import RunResult

__all__ = ["LogicalJudge"]


class LogicalJudge:
    """Decides logical failure of protocol runs for one code.

    ``x_decoder`` defaults to the paper's lookup table over the Z checks
    (Z checks detect X errors); any decoder exposing ``checks`` and
    ``decode(syndrome)`` — e.g.
    :class:`~repro.sim.matching.MatchingDecoder` for matchable codes at
    larger distance — plugs into both the per-shot and the batched path.
    """

    def __init__(self, code: CSSCode, x_decoder=None):
        self.code = code
        self.x_decoder = (
            LookupDecoder(code.hz) if x_decoder is None else x_decoder
        )
        self.logical_z = code.logical_z
        checks = self.x_decoder.checks
        self._num_checks = checks.shape[0]
        # One CSR over the check rows, then the logical-Z rows.
        self._rows = row_csr(np.vstack([checks, self.logical_z]))
        # (decoded syndrome ids, sorted behind a sentinel no id reaches;
        # the logical-Z parity id of each one's correction), replaced as
        # one tuple so a judge shared across threads never pairs the ids
        # of one update with the parities of another.
        self._memo = (
            np.asarray([np.iinfo(np.int64).max], dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )

    @classmethod
    def with_matching(cls, code: CSSCode) -> "LogicalJudge":
        """Judge backed by the MWPM decoder (requires a matchable ``hz``)."""
        from .matching import MatchingDecoder

        return cls(code, x_decoder=MatchingDecoder(code.hz))

    def is_logical_failure(self, result: RunResult) -> bool:
        """Perfect EC + destructive Z readout: did a logical-Z parity flip?"""
        residual = self.x_decoder.correct(result.data_x)
        parities = self.logical_z @ residual % 2
        return bool(parities.any())

    def failure_mask(
        self, data_x: np.ndarray, num_shots: int | None = None
    ) -> np.ndarray:
        """Vectorized :meth:`is_logical_failure` over a batch of shots.

        ``data_x`` is the packed ``(n, words)`` X plane of ``num_shots``
        shots (bit ``s`` of word ``s // 64`` is shot ``s``) or, with
        ``num_shots`` omitted, a ``(shots, n)`` 0/1 batch that is packed
        first. Syndromes and raw logical parities are word XORs over the
        plane; the decoder is the only non-linear step, and it runs once
        per *distinct* syndrome over the judge's lifetime. This makes even
        an expensive decoder (MWPM) cost O(unique syndromes), not O(shots).
        """
        if num_shots is None:
            data_x = np.asarray(data_x, dtype=np.uint8)
            if data_x.ndim != 2:
                raise ValueError("expected a (shots, n) batch of X residuals")
            num_shots = data_x.shape[0]
            data_x = pack_shots(data_x)
        if num_shots == 0:
            return np.zeros(0, dtype=bool)
        planes = np.concatenate(
            [data_x, np.zeros((1, data_x.shape[1]), dtype=WORD)]
        )
        bits = unpack_shots(xor_rows(planes, *self._rows), num_shots)
        m = self._num_checks
        syndromes = _bit_weights(m) @ bits[:m]
        raw_parity = _bit_weights(bits.shape[0] - m) @ bits[m:]
        return self._correction_parity(syndromes) != raw_parity

    def _correction_parity(self, syndromes: np.ndarray) -> np.ndarray:
        """Logical-Z parity id of the decoder's correction, per shot."""
        known, parity = self._memo
        at = np.searchsorted(known, syndromes)
        fresh = known[at] != syndromes
        if fresh.any():
            new = np.unique(syndromes[fresh])
            weights = _bit_weights(self.logical_z.shape[0])
            new_parity = [
                int(
                    weights
                    @ (self.logical_z @ self.x_decoder.decode(self._bits(s)) % 2)
                )
                for s in new.tolist()
            ]
            known = np.concatenate([known, new])
            order = np.argsort(known)
            known = known[order]
            parity = np.concatenate([parity, new_parity])[order]
            self._memo = (known, parity)
            at = np.searchsorted(known, syndromes)
        return parity[at]

    def _bits(self, syndrome_id: int) -> np.ndarray:
        return (
            (syndrome_id >> np.arange(self._num_checks)) & 1
        ).astype(np.uint8)


def _bit_weights(count: int) -> np.ndarray:
    return np.left_shift(np.int64(1), np.arange(count, dtype=np.int64))
