"""Lookup-table decoding for the perfect error-correction round.

The paper follows every protocol run by one noiseless EC round with
lookup-table decoding before the destructive readout. For an error of one
type with syndrome ``s`` (parities against the opposite-type checks), the
table stores a minimum-weight error producing ``s``; applying it returns
the state to the code space, and the run fails logically iff the residual
loop (error + correction) acts as a logical operator.

Tables are built breadth-first over error weights, so entries are always
minimum-weight representatives; all ``2^rank`` syndromes of the d < 5
catalog codes fit comfortably. A table is built once per check matrix and
shared by every decoder of that matrix.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from ..pauli.symplectic import as_bit_matrix

__all__ = ["LookupDecoder"]


class LookupDecoder:
    """Min-weight lookup decoder against a fixed check matrix.

    ``checks`` has one row per measured check; an error ``e`` (same type as
    what the checks detect) has syndrome ``checks @ e mod 2``.
    """

    def __init__(self, checks):
        self.checks = as_bit_matrix(checks)
        self.m, self.n = self.checks.shape
        self._table = _lookup_table(self.checks.shape, self.checks.tobytes())

    def syndrome(self, error) -> np.ndarray:
        error = np.asarray(error, dtype=np.uint8)
        return (self.checks @ error % 2).astype(np.uint8)

    def decode(self, syndrome) -> np.ndarray:
        """Minimum-weight error consistent with ``syndrome``."""
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        key = syndrome.tobytes()
        try:
            return self._table[key].copy()
        except KeyError:
            raise ValueError("syndrome outside the decodable set") from None

    def correct(self, error) -> np.ndarray:
        """``error + decode(syndrome(error))`` — the post-EC residual."""
        error = np.asarray(error, dtype=np.uint8)
        return error ^ self.decode(self.syndrome(error))


@lru_cache(maxsize=64)
def _lookup_table(shape: tuple[int, int], data: bytes) -> dict[bytes, np.ndarray]:
    """Syndrome bytes -> minimum-weight error, breadth-first by weight
    (read-only entries; ``decode`` hands out copies)."""
    checks = np.frombuffer(data, dtype=np.uint8).reshape(shape)
    m, n = shape
    table: dict[bytes, np.ndarray] = {}
    total = 1 << m
    for weight in range(n + 1):
        if len(table) == total:
            break
        for support in itertools.combinations(range(n), weight):
            error = np.zeros(n, dtype=np.uint8)
            error[list(support)] = 1
            key = (checks @ error % 2).astype(np.uint8).tobytes()
            if key not in table:
                error.setflags(write=False)
                table[key] = error
    # Some syndromes may be unreachable if checks are dependent; that is
    # fine — decode() raises only if asked for one of those.
    return table
