"""Correctness tests for the CDCL solver (the Z3 substitute).

The decisive test is the random cross-check: thousands of small random
CNFs whose satisfiability is decided independently by brute force.
"""

import itertools

import numpy as np
import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import Solver, solve_cnf


def brute_force_sat(cnf: CNF) -> bool:
    for assignment in itertools.product((False, True), repeat=cnf.num_vars):
        values = (None,) + assignment
        if all(
            any(
                values[abs(lit)] == (lit > 0)
                for lit in clause
            )
            for clause in cnf.clauses
        ):
            return True
    return False


def model_satisfies(cnf: CNF, model) -> bool:
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in cnf.clauses
    )


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver(CNF()).solve().sat

    def test_single_unit(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        result = Solver(cnf).solve()
        assert result.sat
        assert result.value(v) is True

    def test_contradictory_units(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        cnf.add_unit(-v)
        assert not Solver(cnf).solve().sat

    def test_empty_clause_unsat(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([])
        assert not Solver(cnf).solve().sat

    def test_implication_chain(self):
        cnf = CNF()
        vs = cnf.new_vars(20)
        cnf.add_unit(vs[0])
        for a, b in zip(vs, vs[1:]):
            cnf.add_clause([-a, b])
        result = Solver(cnf).solve()
        assert result.sat
        assert all(result.value(v) for v in vs)

    def test_model_unavailable_on_unsat(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        cnf.add_unit(-v)
        result = Solver(cnf).solve()
        with pytest.raises(ValueError):
            result.value(v)

    def test_bool_protocol(self):
        cnf = CNF()
        cnf.new_var()
        assert bool(Solver(cnf).solve())


class TestPigeonhole:
    """PHP(n+1, n) is UNSAT and exercises the conflict-analysis machinery."""

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_unsat(self, holes):
        pigeons = holes + 1
        cnf = CNF()
        var = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            cnf.add_clause([var[p][h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause([-var[p1][h], -var[p2][h]])
        assert not Solver(cnf).solve().sat

    def test_exact_fit_sat(self):
        holes = pigeons = 4
        cnf = CNF()
        var = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            cnf.add_clause([var[p][h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause([-var[p1][h], -var[p2][h]])
        result = Solver(cnf).solve()
        assert result.sat
        assert model_satisfies(cnf, result.model)


class TestRandomCrossCheck:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_3sat_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            num_vars = int(rng.integers(3, 10))
            num_clauses = int(rng.integers(1, int(5 * num_vars)))
            cnf = CNF()
            cnf.new_vars(num_vars)
            for _ in range(num_clauses):
                width = int(rng.integers(1, 4))
                clause_vars = rng.choice(num_vars, size=width, replace=False)
                clause = [
                    int(v + 1) * (1 if rng.integers(0, 2) else -1)
                    for v in clause_vars
                ]
                cnf.add_clause(clause)
            expected = brute_force_sat(cnf)
            result = Solver(cnf).solve()
            assert result.sat == expected
            if result.sat:
                assert model_satisfies(cnf, result.model)

    def test_random_xor_systems(self):
        # XOR chains stress propagation-heavy instances.
        from repro.sat.encode import add_xor_constraint

        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            mat = rng.integers(0, 2, size=(n - 1, n), dtype=np.uint8)
            rhs = rng.integers(0, 2, size=n - 1, dtype=np.uint8)
            cnf = CNF()
            vs = cnf.new_vars(n)
            for row, b in zip(mat, rhs):
                lits = [vs[j] for j in range(n) if row[j]]
                add_xor_constraint(cnf, lits, int(b))
            result = Solver(cnf).solve()
            # Solvable iff rhs is in the column space — cross-check by brute force.
            assert result.sat == brute_force_sat(cnf)


class TestAssumptions:
    def build(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, b])
        cnf.add_clause([-a, c])
        return cnf, (a, b, c)

    def test_assumption_forces_value(self):
        cnf, (a, b, c) = self.build()
        solver = Solver(cnf)
        result = solver.solve(assumptions=[a])
        assert result.sat
        assert result.value(a) and result.value(c)

    def test_conflicting_assumptions_unsat(self):
        cnf, (a, b, c) = self.build()
        solver = Solver(cnf)
        assert not solver.solve(assumptions=[a, -c]).sat

    def test_solver_reusable_after_assumption_unsat(self):
        cnf, (a, b, c) = self.build()
        solver = Solver(cnf)
        assert not solver.solve(assumptions=[a, -c]).sat
        assert solver.solve().sat
        assert solver.solve(assumptions=[-a]).sat

    def test_incremental_bound_tightening(self):
        # The optimality-loop usage pattern: one solver, shrinking bounds.
        from repro.sat.cardinality import Totalizer

        cnf = CNF()
        vs = cnf.new_vars(6)
        cnf.add_clause(vs)  # at least one true
        cnf.add_clause([vs[0], vs[1]])
        totalizer = Totalizer(cnf, vs)
        solver = Solver(cnf)
        for k in range(5, -1, -1):
            result = solver.solve(assumptions=totalizer.at_most(k))
            if k >= 1:
                assert result.sat
                assert sum(result.model[v] for v in vs) <= k
            else:
                assert not result.sat

    def test_statistics_accumulate(self):
        cnf, _ = self.build()
        solver = Solver(cnf)
        solver.solve()
        assert solver.propagations >= 0
        result = solver.solve()
        assert result.sat


class TestSolveCnfHelper:
    def test_one_shot(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        assert solve_cnf(cnf).sat


# -- trajectory pins ---------------------------------------------------------
#
# Real synthesis CNFs driven through the assumption sequences the weight
# loops issued when these values were recorded. Each solve is pinned as
# (assumptions, sat, conflicts, decisions, propagations, model digest),
# the counts being per-solve deltas. Any solver rewrite must reproduce
# them exactly: the protocols in the store, the Table-I rows and every
# seeded downstream number rest on the solver's search trajectory.


class _StopCapture(Exception):
    pass


def capture_cnfs(monkeypatch, code_key: str, wanted: set) -> dict:
    """Synthesize ``code_key`` (heuristic prep, optimal verification) and
    return copies of the CNFs of the ``wanted`` solver indices, in the
    order the synthesis modules build their solvers. Stops synthesizing
    once the last wanted CNF is built."""
    import copy

    import repro.core.correction as correction
    import repro.synth.verification as verification
    from repro.codes.catalog import get_code
    from repro.core.protocol import synthesize_protocol

    captured: dict = {}
    built = [0]

    class Recorder:
        def __init__(self, cnf, store=None):
            index = built[0]
            built[0] += 1
            if index in wanted:
                captured[index] = copy.deepcopy(cnf)
            if len(captured) == len(wanted):
                raise _StopCapture
            self._solver = Solver(cnf)

        def solve(self, assumptions=None):
            return self._solver.solve(assumptions)

    monkeypatch.setattr(verification, "CachedSolver", Recorder)
    monkeypatch.setattr(correction, "CachedSolver", Recorder)
    with pytest.raises(_StopCapture):
        synthesize_protocol(get_code(code_key), store=False)
    return captured


def drive(cnf, assumption_sequence) -> list:
    """Per-solve ``(assumptions, sat, conflicts, decisions, propagations,
    model digest)`` of one fresh solver driven through the sequence."""
    import hashlib

    solver = Solver(cnf)
    out = []
    for assumptions in assumption_sequence:
        before = (solver.conflicts, solver.decisions, solver.propagations)
        result = solver.solve(list(assumptions) or None)
        digest = None
        if result.model is not None:
            digest = hashlib.sha256(bytes(result.model)).hexdigest()[:16]
        out.append((
            list(assumptions),
            result.sat,
            result.conflicts - before[0],
            result.decisions - before[1],
            result.propagations - before[2],
            digest,
        ))
    return out


#: (code, solver index in build order, CNF digest prefix, per-solve pins).
TRAJECTORY_PINS = [
    ('steane', 0, '9eb23c75d05efc8d', [
        ([], True, 0, 13, 32, '5a6f559a7a808261'),
        ([-30], False, 4, 3, 63, None),
    ]),
    ('steane', 1, '1a90de8ad0bc5790', [
        ([], True, 2, 12, 83, '5b853a1b58bed99a'),
        ([-68], True, 6, 12, 238, 'd70973ca29ba0950'),
        ([-67], False, 7, 6, 247, None),
    ]),
    ('11_1_3', 0, '5f75f94a9c944758', [
        ([], True, 0, 26, 64, '46d929def48fc0d0'),
        ([-61], True, 1, 11, 110, '98b5f0989a94efd8'),
        ([-60], True, 6, 16, 196, '0d92ea20525882a4'),
        ([-59], False, 4, 3, 123, None),
    ]),
    ('11_1_3', 1, 'e1d12b2f3182af5d', [
        ([], True, 0, 25, 59, '411a2d32d72be747'),
        ([-54], True, 6, 18, 211, 'c9ab8a6e179ce200'),
        ([-52], False, 11, 11, 221, None),
    ]),
    ('11_1_3', 2, '95e42b0f8d7664db', [
        ([], True, 7, 17, 427, '6198d71227f868c0'),
        ([-151], True, 5, 15, 335, '774926117a9a5701'),
        ([-150], False, 19, 19, 798, None),
    ]),
    ('11_1_3', 3, '56ade9ee78ebbc5e', [
        ([], True, 1, 24, 116, '532d45ef91e8e911'),
        ([-111], True, 1, 33, 120, '18926f126ac4895c'),
        ([-110], True, 1, 20, 144, '78d0ea2d99c196f2'),
        ([-109], False, 22, 22, 817, None),
    ]),
    ('carbon', 3, '43ab6e0dd0605ce3', [
        ([], True, 0, 63, 189, 'afe0aa46f203cfaf'),
        ([-177], True, 3, 21, 303, '7371875fcef4bb10'),
        ([-175], False, 121, 137, 7228, None),
    ]),
    ('carbon', 5, '3d307192a09c8897', [
        ([], True, 23, 216, 1532, 'a196f2d16eba3edf'),
        ([-510], True, 24, 196, 2123, '045a9a695dafba52'),
        ([-508], False, 270, 446, 30398, None),
    ]),
    ('16_2_4', 6, '831029e43fc44fb9', [
        ([], False, 10, 41, 404, None),
    ]),
    ('16_2_4', 7, 'd083e308366d1bc2', [
        ([], True, 171, 3206, 16544, 'd73ffd21f9b2a0cc'),
        ([-862], True, 25, 170, 4185, '3627b393d462a6fb'),
        ([-860], True, 56, 427, 7717, '7e44bc413f3f2526'),
        ([-858], True, 565, 1444, 115624, '87fc3200a6e5d818'),
        ([-856], False, 584, 996, 147569, None),
    ]),
]


class TestTrajectoryPins:
    """Heap, propagation and learning changes must not move one search."""

    @pytest.mark.parametrize("code", ["steane", "11_1_3", "carbon", "16_2_4"])
    def test_pinned_trajectories(self, monkeypatch, code):
        from repro.store.keys import cnf_digest

        pins = [p for p in TRAJECTORY_PINS if p[0] == code]
        cnfs = capture_cnfs(monkeypatch, code, {p[1] for p in pins})
        for _, index, digest, steps in pins:
            cnf = cnfs[index]
            assert cnf_digest(cnf)[:16] == digest
            assert drive(cnf, [s[0] for s in steps]) == steps

    def test_pins_cover_a_long_search(self):
        conflicts = [sum(s[2] for s in p[3]) for p in TRAJECTORY_PINS]
        assert max(conflicts) >= 1000


def pigeonhole(pigeons: int, holes: int) -> CNF:
    cnf = CNF()
    var = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        cnf.add_clause([var[p][h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1][h], -var[p2][h]])
    return cnf


class TestActivityRescale:
    """Past a rescale the heap must keep following the activities."""

    def checked_solver(self, monkeypatch, cnf):
        import repro.sat.solver as solver_module

        # Rescale whenever an activity passes 50 (about every 80 conflicts).
        monkeypatch.setattr(solver_module, "_RESCALE_LIMIT", 50.0)
        solver = Solver(cnf)
        stats = {"rescales": 0, "picks": 0}
        rescale = solver._rescale
        pick = solver._pick_branch_var

        def counted_rescale():
            stats["rescales"] += 1
            rescale()

        def checked_pick():
            activity = solver._activity
            unassigned = [
                v for v in range(1, solver.num_vars + 1)
                if solver._values[v] < 0
            ]
            pending = set(solver._heap)
            for v in unassigned:
                assert solver._pending[v]
                assert (-activity[v], v) in pending
            expected = min(((-activity[v], v) for v in unassigned),
                           default=(0.0, 0))[1]
            got = pick()
            assert got == expected
            stats["picks"] += 1
            return got

        monkeypatch.setattr(solver, "_rescale", counted_rescale)
        monkeypatch.setattr(solver, "_pick_branch_var", checked_pick)
        return solver, stats

    def test_unsat_pigeonhole_past_rescales(self, monkeypatch):
        solver, stats = self.checked_solver(monkeypatch, pigeonhole(7, 6))
        assert not solver.solve().sat
        assert stats["rescales"] >= 5
        assert stats["picks"] > 500

    def test_incremental_sat_after_rescales(self, monkeypatch):
        # One pigeon may escape, unless an assumption forbids it: the
        # first solve is a long UNSAT search, the second is SAT on the
        # same (rescaled) solver.
        cnf = pigeonhole(7, 6)
        escape = cnf.new_var()
        cnf.clauses[0] = cnf.clauses[0] + [escape]
        solver, stats = self.checked_solver(monkeypatch, cnf)
        assert not solver.solve(assumptions=[-escape]).sat
        assert stats["rescales"] >= 5
        result = solver.solve()
        assert result.sat
        assert result.value(escape)
        assert model_satisfies(cnf, result.model)

    def test_rescale_scales_heap_keys(self):
        solver = Solver(pigeonhole(3, 2))
        solver._activity[1] = 8e99
        solver._activity[2] = 4e99
        solver._heap = [(-8e99, 1), (-4e99, 2), (0.0, 3)]
        solver._rescale()
        assert sorted(solver._heap) == [(-0.8, 1), (-0.4, 2), (0.0, 3)]
        assert solver._heap[0] == (-solver._activity[1], 1)


class TestLearntReduction:
    def test_drops_the_older_half(self):
        solver = Solver(pigeonhole(3, 2))
        learnts = [[2 * v, 2 * v + 2, 2 * v + 4] for v in range(1, 121)]
        solver._learnts = list(learnts)
        solver._reduce_db()
        assert solver._learnts == learnts[60:]

    def test_keeps_reasons_and_binaries(self):
        solver = Solver(pigeonhole(3, 2))
        learnts = [[2 * v, 2 * v + 2, 2 * v + 4] for v in range(1, 121)]
        learnts[0] = [2, 4]  # binary: never dropped
        solver._learnts = list(learnts)
        solver._reason[1] = learnts[1]  # locked as a reason
        solver._reduce_db()
        kept = solver._learnts
        assert learnts[0] in kept and learnts[1] in kept
        assert kept[2:] == learnts[61:]
