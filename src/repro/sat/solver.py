"""A CDCL SAT solver in pure Python.

This stands in for Z3 in the paper's pipeline (DESIGN.md section 2): the
synthesis encodings are plain Boolean CNF, and the bound iteration happens
outside the solver, so a complete SAT solver is all that is required.

Feature set (classic MiniSat-style architecture):

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause minimization by reason subsumption,
* VSIDS variable activities with periodic rescaling + phase saving,
* Luby restarts,
* learnt-clause database reduction by learn order (the older half of the
  long, unlocked learnts is dropped),
* incremental solving under assumptions.

Branching picks the unassigned variable with the highest activity, ties
to the lowest index. The heap is lazy: it holds ``(-activity, var)``
entries, and every unassigned variable keeps one entry carrying its
current activity. Activities change only while a variable is assigned
(conflict analysis bumps assigned variables), so a variable is pushed
when it is unassigned unless its current entry is still pending, and
stale entries are discarded as they surface. A rescale scales the heap
keys with the activities, so the pick is always that argmax.

The implementation favours flat lists and local-variable caching; it solves
the paper's correction-synthesis instances (tens of thousands of clauses) in
seconds, which matches how the authors use Z3 (many small decision queries).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .cnf import CNF, internal_to_lit, lit_to_internal

__all__ = ["Solver", "SolveResult"]

#: Revision of the search. ``repro.sat.cache`` folds it into every
#: transcript key; bump it with any change that can move a trajectory.
#: 2: heap keys rescale with the activities.
SEARCH_REVISION = 2

_LUBY_BASE = 128
#: Activities above this are rescaled by its inverse (MiniSat's 1e100).
_RESCALE_LIMIT = 1e100


def _luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while True:
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1 + 1
        k -= 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1


class SolveResult:
    """Outcome of a solve call: satisfiability plus (optionally) a model."""

    __slots__ = ("sat", "model", "conflicts", "decisions", "propagations")

    def __init__(self, sat, model, conflicts, decisions, propagations):
        self.sat = sat
        self.model = model
        self.conflicts = conflicts
        self.decisions = decisions
        self.propagations = propagations

    def __bool__(self) -> bool:
        return self.sat

    def value(self, var: int) -> bool:
        """Truth value of ``var`` in the found model."""
        if self.model is None:
            raise ValueError("no model available (UNSAT or not solved)")
        return self.model[var]

    def __repr__(self) -> str:
        status = "SAT" if self.sat else "UNSAT"
        return (
            f"SolveResult({status}, conflicts={self.conflicts}, "
            f"decisions={self.decisions}, propagations={self.propagations})"
        )


class Solver:
    """CDCL solver over a :class:`~repro.sat.cnf.CNF` formula."""

    def __init__(self, cnf: CNF):
        self.num_vars = cnf.num_vars
        nv = self.num_vars + 1
        self._values = [-1] * nv  # -1 unassigned / 0 false / 1 true
        self._level = [0] * nv
        self._reason: list[list[int] | None] = [None] * nv
        self._trail: list[int] = []  # internal literals
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._watches: list[list[list[int]]] = [[] for _ in range(2 * nv)]
        self._clauses: list[list[int]] = []
        self._learnts: list[list[int]] = []
        self._activity = [0.0] * nv
        self._var_inc = 1.0
        self._var_decay = 0.95
        # Sorted, hence already a heap; every var's entry is pending.
        self._heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, nv)]
        # True while the heap holds (-activity[v], v) for var v.
        self._pending = [True] * nv
        self._phase = [0] * nv
        self._seen = [0] * nv
        self._ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        for clause in cnf.clauses:
            if not self._add_clause([lit_to_internal(l) for l in clause]):
                self._ok = False
                break

    # -- clause management --------------------------------------------------

    def _add_clause(self, lits: list[int]) -> bool:
        """Add an original clause (internal literals). False if UNSAT now."""
        lits = self._simplify_clause(lits)
        if lits is None:  # tautology or satisfied at level 0
            return True
        if not lits:
            return False
        if len(lits) == 1:
            return self._enqueue(lits[0], None) and self._propagate() is None
        self._attach(lits)
        self._clauses.append(lits)
        return True

    def _simplify_clause(self, lits: list[int]) -> list[int] | None:
        out = []
        seen = set()
        for lit in lits:
            if lit ^ 1 in seen:
                return None  # tautology
            if lit in seen:
                continue
            val = self._lit_value(lit)
            if val == 1 and self._level[lit >> 1] == 0:
                return None  # already satisfied forever
            if val == 0 and self._level[lit >> 1] == 0:
                continue  # literal is dead
            seen.add(lit)
            out.append(lit)
        return out

    def _attach(self, lits: list[int]) -> None:
        self._watches[lits[0] ^ 1].append(lits)
        self._watches[lits[1] ^ 1].append(lits)

    # -- assignment ---------------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        val = self._values[lit >> 1]
        if val < 0:
            return -1
        return val ^ (lit & 1)

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self._lit_value(lit)
        if val == 0:
            return False
        if val == 1:
            return True
        var = lit >> 1
        self._values[var] = 1 - (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        watches = self._watches
        values = self._values
        levels = self._level
        reasons = self._reason
        trail = self._trail
        level = len(self._trail_lim)
        qhead = self._qhead
        start = qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            watch_list = watches[lit]
            i = 0
            j = 0
            n = len(watch_list)
            while i < n:
                clause = watch_list[i]
                i += 1
                # Normalize so clause[1] is the false literal being visited.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fvar = first >> 1
                fval = values[fvar]
                if fval >= 0 and (fval ^ (first & 1)) == 1:
                    watch_list[j] = clause
                    j += 1
                    continue
                # Find a new literal to watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    oval = values[other >> 1]
                    if oval < 0 or (oval ^ (other & 1)) == 1:
                        clause[1], clause[k] = clause[k], clause[1]
                        watches[clause[1] ^ 1].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    watch_list[j] = clause
                    j += 1
                    if fval >= 0:  # first is false too -> conflict
                        while i < n:
                            watch_list[j] = watch_list[i]
                            j += 1
                            i += 1
                        del watch_list[j:]
                        self._qhead = qhead
                        self.propagations += qhead - start
                        return clause
                    values[fvar] = 1 - (first & 1)
                    levels[fvar] = level
                    reasons[fvar] = clause
                    trail.append(first)
            del watch_list[j:]
        self._qhead = qhead
        self.propagations += qhead - start
        return None

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning. Returns (learnt clause, backjump level)."""
        seen = self._seen
        levels = self._level
        reasons = self._reason
        trail = self._trail
        activity = self._activity
        pending = self._pending
        var_inc = self._var_inc
        learnt = [0]  # placeholder for the asserting literal
        counter = 0
        lit = -1
        reason: list[int] | None = conflict
        index = len(trail)
        current_level = len(self._trail_lim)
        while True:
            if reason is None:
                raise AssertionError("decision reached before UIP")
            for k in range(0 if lit == -1 else 1, len(reason)):
                q = reason[k]
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    # Bump: var is assigned, so its pending entry is stale.
                    act = activity[var] + var_inc
                    activity[var] = act
                    pending[var] = False
                    if act > _RESCALE_LIMIT:
                        self._rescale()
                        var_inc = self._var_inc
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                lit = trail[index]
                if seen[lit >> 1]:
                    break
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = reasons[var]
        learnt[0] = lit ^ 1
        # Clause minimization: drop literals implied by the rest.
        minimized = [learnt[0]]
        for q in learnt[1:]:
            red = reasons[q >> 1]
            if red is None or any(
                not seen[r >> 1] and levels[r >> 1] > 0 for r in red[1:]
            ):
                minimized.append(q)
        for q in learnt[1:]:
            seen[q >> 1] = 0
        learnt = minimized
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the highest level among the rest; its first literal
        # moves to the second watch.
        max_i = 1
        backjump = levels[learnt[1] >> 1]
        for i in range(2, len(learnt)):
            lv = levels[learnt[i] >> 1]
            if lv > backjump:
                backjump = lv
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, backjump

    def _rescale(self) -> None:
        """Scale activities, the increment and the heap keys alike, so the
        heap order keeps following the activities."""
        scale = 1.0 / _RESCALE_LIMIT
        activity = self._activity
        activity[:] = [a * scale for a in activity]
        self._var_inc *= scale
        heap = self._heap
        # Rounding can turn distinct keys into ties: rebuild the order.
        heap[:] = [(key * scale, var) for key, var in heap]
        heapify(heap)

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        limit = trail_lim[level]
        trail = self._trail
        values = self._values
        phase = self._phase
        reasons = self._reason
        activity = self._activity
        pending = self._pending
        heap = self._heap
        for i in range(len(trail) - 1, limit - 1, -1):
            var = trail[i] >> 1
            phase[var] = values[var]
            values[var] = -1
            reasons[var] = None
            if not pending[var]:
                pending[var] = True
                heappush(heap, (-activity[var], var))
        del trail[limit:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _pick_branch_var(self) -> int:
        heap = self._heap
        values = self._values
        activity = self._activity
        pending = self._pending
        while heap:
            key, var = heappop(heap)
            if key == -activity[var]:  # else stale: a newer entry exists
                pending[var] = False
                if values[var] < 0:
                    return var
        return 0

    def _reduce_db(self) -> None:
        """Drop the older half of the long learnt clauses not locked as
        reasons (``_learnts`` is in learn order)."""
        if len(self._learnts) < 100:
            return
        locked = {id(reason) for reason in self._reason if reason is not None}
        removable = [
            c for c in self._learnts if len(c) > 2 and id(c) not in locked
        ]
        drop = {id(c) for c in removable[: len(removable) // 2]}
        if not drop:
            return
        self._learnts = [c for c in self._learnts if id(c) not in drop]
        for wl in self._watches:
            wl[:] = [c for c in wl if id(c) not in drop]

    # -- main loop -----------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> SolveResult:
        """Solve the formula, optionally under signed-literal assumptions."""
        if not self._ok:
            return SolveResult(False, None, self.conflicts, self.decisions,
                               self.propagations)
        assumption_lits = [lit_to_internal(l) for l in (assumptions or [])]
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SolveResult(False, None, self.conflicts, self.decisions,
                               self.propagations)
        restart_count = 0
        conflict_budget = _LUBY_BASE * _luby(1)
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self._trail_lim:
                    return SolveResult(False, None, self.conflicts,
                                       self.decisions, self.propagations)
                if len(self._trail_lim) <= len(assumption_lits):
                    # Conflict forced purely by assumptions.
                    self._backtrack(0)
                    return SolveResult(False, None, self.conflicts,
                                       self.decisions, self.propagations)
                learnt, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        return SolveResult(False, None, self.conflicts,
                                           self.decisions, self.propagations)
                else:
                    self._attach(learnt)
                    self._learnts.append(learnt)
                    if not self._enqueue(learnt[0], learnt):
                        raise AssertionError("asserting literal conflict")
                self._var_inc /= self._var_decay
                if len(self._learnts) > 4000 + 16 * restart_count:
                    self._reduce_db()
                continue
            if conflicts_here >= conflict_budget:
                restart_count += 1
                conflicts_here = 0
                conflict_budget = _LUBY_BASE * _luby(restart_count + 1)
                self._backtrack(0)
                continue
            # Re-establish assumptions after any backtracking below them.
            if len(self._trail_lim) < len(assumption_lits):
                lit = assumption_lits[len(self._trail_lim)]
                val = self._lit_value(lit)
                if val == 0:
                    self._backtrack(0)
                    return SolveResult(False, None, self.conflicts,
                                       self.decisions, self.propagations)
                self._trail_lim.append(len(self._trail))
                if val < 0:
                    self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                model = [False] * (self.num_vars + 1)
                for v in range(1, self.num_vars + 1):
                    model[v] = self._values[v] == 1
                result = SolveResult(True, model, self.conflicts,
                                     self.decisions, self.propagations)
                self._backtrack(0)
                return result
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            # Phase saving: repeat the previous polarity, default negative.
            lit = 2 * var + (0 if self._phase[var] == 1 else 1)
            self._enqueue(lit, None)


def solve_cnf(cnf: CNF, assumptions: list[int] | None = None) -> SolveResult:
    """One-shot convenience: build a solver and solve."""
    return Solver(cnf).solve(assumptions)
