"""The ``u * w_min`` floor that ends both weight-tightening loops.

Every measurement the verification and correction encoders select is
``x @ G`` for a non-zero selector ``x``, so ``u`` measurements weigh at
least ``u * w_min``. The loops stop tightening once they reach it; these
tests check that such a stop is always a proof, i.e. that the probe the
loop skipped would have been UNSAT.
"""

import itertools

import numpy as np

from repro.core import correction
from repro.pauli.group import CosetReducer
from repro.pauli.symplectic import min_selector_weight, span_matrix
from repro.sat.solver import Solver
from repro.synth import verification


def brute_force_selector_weight(basis) -> int:
    basis = np.asarray(basis, dtype=np.uint8)
    return min(
        int(((np.array(x, dtype=np.uint8) @ basis) % 2).sum())
        for x in itertools.product((0, 1), repeat=basis.shape[0])
        if any(x)
    )


class TestMinSelectorWeight:
    def test_dependent_rows_give_zero(self):
        basis = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]]
        assert min_selector_weight(basis) == 0

    def test_not_the_span_minimum(self):
        # Rows 0 and 2 are equal: the span's lightest non-zero vector has
        # weight 2, yet the selector (1, 0, 1) measures nothing.
        basis = [[1, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 0]]
        span_min = min(int(v.sum()) for v in span_matrix(basis) if v.any())
        assert span_min == 2
        assert min_selector_weight(basis) == 0

    def test_steane_generators(self):
        hamming = [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ]
        assert min_selector_weight(hamming) == 4

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            basis = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
            assert min_selector_weight(basis) == brute_force_selector_weight(
                basis
            )


def _random_basis(rng, n):
    r = int(rng.integers(2, 5))
    while True:
        basis = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
        if basis.any(axis=1).all():
            return basis


class TestFloorIsAProof:
    """Every returned weight ``v`` is optimal: ``at_most(v - 1)`` is UNSAT
    on a fresh solver over the same CNF, in particular whenever the loop
    stopped at ``v = u * w_min`` without probing (some instances must)."""

    def test_verification(self):
        rng = np.random.default_rng(2024)
        floor_stops = 0
        for _ in range(60):
            n = int(rng.integers(5, 9))
            basis = _random_basis(rng, n)
            errors = [
                e
                for e in rng.integers(0, 2, size=(int(rng.integers(1, 7)), n),
                                      dtype=np.uint8)
                if ((basis @ e) % 2).any()
            ]
            if not errors:
                continue
            result = verification.synthesize_verification_optimal(basis, errors)
            u = result.num_ancillas
            floor = max(1, min_selector_weight(basis))
            assert result.total_weight >= u * floor
            encoder = verification._VerificationEncoder(basis, errors, u)
            probe = Solver(encoder.cnf).solve(
                encoder.totalizer.at_most(result.total_weight - 1)
            )
            assert not probe.sat
            floor_stops += floor > 1 and result.total_weight == u * floor
        assert floor_stops > 0

    def test_correction(self):
        rng = np.random.default_rng(7)
        floor_stops = 0
        for _ in range(60):
            n = int(rng.integers(5, 8))
            basis = _random_basis(rng, n)
            reducer = CosetReducer(
                rng.integers(0, 2, size=(1, n), dtype=np.uint8), n
            )
            raw = rng.integers(0, 2, size=(int(rng.integers(2, 6)), n),
                               dtype=np.uint8)
            try:
                circuit = correction.synthesize_correction(
                    raw, basis, reducer, max_measurements=3
                )
            except correction.CorrectionInfeasible:
                continue
            u = circuit.num_ancillas
            floor = max(1, min_selector_weight(basis))
            if u == 0:
                continue
            assert circuit.cnot_count >= u * floor
            errors = correction._dedupe_by_coset(raw, reducer)
            candidates, ok = correction._candidate_pool(errors, reducer)
            encoder = correction._CorrectionEncoder(
                basis, errors, candidates, ok, u
            )
            probe = Solver(encoder.cnf).solve(
                encoder.totalizer.at_most(circuit.cnot_count - 1)
            )
            assert not probe.sat
            floor_stops += floor > 1 and circuit.cnot_count == u * floor
        assert floor_stops > 0
