"""Packed shot planes shared by the batched engine and the logical judge.

A *plane* is one frame component (or check, or measured bit) across a
batch of shots: bit ``s`` of word ``s // 64`` (little bit order) is shot
``s``, so byte views match ``np.packbits(..., bitorder="little")`` on
little-endian hosts. Every F2-linear map the engine applies is a CSR over
plane indices (:func:`row_csr`) applied with one gather and one
``reduceat`` (:func:`xor_rows`).
"""

from __future__ import annotations

import numpy as np

WORD = np.uint64


def num_words(num_shots: int) -> int:
    return (num_shots + 63) // 64


def pack_shots(bits: np.ndarray) -> np.ndarray:
    """``(shots, rows)`` 0/1 array -> ``(rows, words)`` uint64 planes."""
    bits = np.asarray(bits, dtype=np.uint8)
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    out = np.zeros((bits.shape[1], num_words(bits.shape[0]) * 8), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view(WORD)


def unpack_shots(planes: np.ndarray, num_shots: int) -> np.ndarray:
    """``(rows, words)`` uint64 planes -> ``(rows, shots)`` uint8."""
    return np.unpackbits(
        np.ascontiguousarray(planes).view(np.uint8),
        axis=1,
        bitorder="little",
        count=num_shots,
    )


def row_csr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` 0/1 matrix -> ``(indptr, indices)`` CSR of its rows.

    An empty row lists column ``cols`` instead: callers append one zero
    plane after their ``cols`` input planes, so every row reduces over at
    least one plane and :func:`xor_rows` needs no empty-row case.
    """
    matrix = np.asarray(matrix, dtype=bool)
    padded = np.concatenate(
        [matrix, ~matrix.any(axis=1, keepdims=True)], axis=1
    )
    indices = np.nonzero(padded)[1].astype(np.int64)
    indptr = np.concatenate(([0], np.cumsum(padded.sum(axis=1)))).astype(np.int64)
    return indptr, indices


def xor_rows(planes: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Row ``r`` = XOR of ``planes[indices[indptr[r]:indptr[r + 1]]]``."""
    return np.bitwise_xor.reduceat(planes[indices], indptr[:-1], axis=0)
