"""Persistent SAT solve transcripts (``repro.store`` artifact class).

The synthesis pipeline drives the CDCL solver in deterministic call
sequences: build a CNF, ``solve()``, then tighten a cardinality bound
with ``solve(assumptions=...)`` until UNSAT (``synth.verification``,
``core.correction``), or re-solve after adding a blocking clause
(``enumerate_optimal_verifications``). Because the solver itself is
deterministic, the full sequence of ``(assumptions, result)`` pairs for
one CNF is a pure function of the formula — so it can be recorded once
and replayed from disk.

:class:`CachedSolver` wraps :class:`repro.sat.solver.Solver` with exactly
that transcript cache, keyed by :func:`transcript_key` (the CNF digest
and the solver's ``SEARCH_REVISION``, so a transcript recorded by an
older search is never mixed into a newer one):

* **Replay** — while the caller's assumption sequence matches the
  recorded one (it always does for an unchanged pipeline), results come
  straight from the transcript; no solver is ever built.
* **Rebuild** — on transcript exhaustion (a previous run recorded only a
  prefix) or divergence, a real solver is constructed and the consumed
  prefix is *re-solved* on it first, so its internal state (learnt
  clauses, phase saving, activities) is exactly what an uncached run
  would carry at this point — later answers are bit-identical with the
  cache hot, cold, or absent.
* **Record** — every live solve appends to the transcript, which is
  re-written to the store after each call (transcripts are small: a few
  dozen packed models).

With the store disabled this is a zero-overhead pass-through to
:class:`~repro.sat.solver.Solver`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .cnf import CNF
from .solver import SEARCH_REVISION, Solver, SolveResult

__all__ = ["CachedSolver", "transcript_key"]

#: Store entry kind for SAT transcripts.
_KIND = "sat"


def transcript_key(cnf: CNF) -> str:
    """Store key of ``cnf``'s transcript under the current search."""
    from ..store.keys import cnf_digest

    text = f"search-r{SEARCH_REVISION}:{cnf_digest(cnf)}"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _pack(assumptions: tuple, result: SolveResult) -> tuple:
    model_bytes = None
    model_bits = 0
    if result.model is not None:
        bits = np.asarray(result.model, dtype=np.uint8)
        model_bits = bits.size
        model_bytes = np.packbits(bits).tobytes()
    return (
        assumptions,
        result.sat,
        model_bytes,
        model_bits,
        result.conflicts,
        result.decisions,
        result.propagations,
    )


def _unpack(record: tuple) -> SolveResult:
    _, sat, model_bytes, model_bits, conflicts, decisions, propagations = record
    model = None
    if model_bytes is not None:
        model = (
            np.unpackbits(
                np.frombuffer(model_bytes, dtype=np.uint8), count=model_bits
            )
            .astype(bool)
            .tolist()
        )
    return SolveResult(sat, model, conflicts, decisions, propagations)


class CachedSolver:
    """Drop-in for :class:`~repro.sat.solver.Solver` with disk replay.

    ``store`` follows the shared convention (None = ambient
    ``REPRO_STORE`` resolution, False = disabled, or an explicit
    :class:`~repro.store.ArtifactStore`).
    """

    def __init__(self, cnf: CNF, *, store=None):
        from ..store import resolve_store

        self._cnf = cnf
        self._store = resolve_store(store)
        self._solver: Solver | None = None
        self._records: list[tuple] = []
        self._position = 0
        self._key: str | None = None
        if self._store is None:
            self._solver = Solver(cnf)
        else:
            self._key = transcript_key(cnf)
            cached = self._store.get_object(_KIND, self._key)
            if isinstance(cached, list):
                self._records = cached

    def solve(self, assumptions: list[int] | None = None) -> SolveResult:
        asm = tuple(assumptions) if assumptions else ()
        if self._solver is None:
            if self._position < len(self._records):
                record = self._records[self._position]
                if tuple(record[0]) == asm:
                    self._position += 1
                    return _unpack(record)
                # The caller diverged from the recorded sequence: the
                # remaining transcript is for a different driving loop.
                self._records = self._records[: self._position]
            self._materialize()
        result = self._solver.solve(list(asm) if asm else None)
        self._records.append(_pack(asm, result))
        self._position = len(self._records)
        if self._store is not None and self._key is not None:
            self._store.put_object(_KIND, self._key, self._records)
        return result

    def _materialize(self) -> None:
        """Build the real solver and re-drive the replayed prefix through
        it, so the live continuation is state-identical to an uncached
        run (learnt clauses, phases, activities)."""
        solver = Solver(self._cnf)
        replayed = self._records[: self._position]
        self._records = []
        for record in replayed:
            asm = tuple(record[0])
            result = solver.solve(list(asm) if asm else None)
            self._records.append(_pack(asm, result))
        self._position = len(self._records)
        self._solver = solver
