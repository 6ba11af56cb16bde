"""(Dynamic) subset sampling of logical error rates (paper Sec. V.B).

The paper estimates ``p_L(p)`` with Dynamic Subset Sampling [14] via the
Qsample package [37]. Under the one-parameter ``E1_1`` model all ``N``
fault locations fail i.i.d. with probability ``p``, so the number of
failing locations ``K`` is Binomial(N, p) and — crucially — *conditioned on
K = k the fault configuration does not depend on p*. The logical error
rate therefore decomposes exactly as::

    p_L(p) = sum_k  w_k(p) * f_k,      w_k(p) = C(N, k) p^k (1-p)^(N-k)

where ``f_k`` is the p-independent conditional failure probability given
exactly ``k`` faults. Estimating each ``f_k`` once by Monte-Carlo and
re-weighting analytically reproduces the whole ``p_L`` curve from a single
sampling pass — the same economy Qsample gets from sampling at ``p_max``
and extrapolating downward.

The "dynamic" part of DSS is the sample allocation across strata: we
direct each batch at the stratum whose uncertainty currently contributes
most to the variance of ``p_L(p_ref)`` (variance-targeted allocation).

Strata above ``k_max`` are not sampled; their total weight bounds the
truncation error, reported as ``tail`` and folded into the upper
confidence bound (``f_k <= 1``). Stratum ``k = 0`` is deterministic and
evaluated once; stratum ``k = 1`` can optionally be *enumerated exactly*
(every location and every fault draw, probability-weighted), which pins
the leading coefficient of FT circuits (``f_1 = 0``) with zero variance.

Execution is pluggable: :meth:`SubsetSampler.for_protocol` wires the
sampler to a batch engine (``repro.sim.sampler``, default the bit-packed
``"batched"`` one) whose strata run through
:class:`repro.sim.shard.StratumPlanner` chunk plans (bounded ``max_slab``
memory, deterministic per-chunk seeds), inline at ``workers=1`` or across
a process pool, with results identical for every worker count. The
per-shot ``failure_fn`` constructor path remains as the reference
implementation and the custom-judge API. See ``docs/sampler.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..obs.trace import span as _obs_span
from .frame import Injection, protocol_locations
from .noise import (
    draw_tables,
    materialize_stratum,
    sample_injections_fixed_k,
)

__all__ = [
    "SubsetEstimate",
    "StratumStats",
    "SubsetSampler",
    "DirectEstimate",
    "direct_mc",
    "wilson_interval",
    "binomial_weight",
    "tail_weight",
    "poisson_binomial_weights",
    "poisson_binomial_weight",
    "poisson_binomial_tail",
]


def binomial_weight(num_locations: int, k: int, p: float) -> float:
    """``P(K = k)`` for ``K ~ Binomial(num_locations, p)``."""
    return (
        math.comb(num_locations, k)
        * p**k
        * (1.0 - p) ** (num_locations - k)
    )


def tail_weight(num_locations: int, k_max: int, p: float) -> float:
    """``P(K > k_max)`` — the unsampled-strata weight bound."""
    head = sum(binomial_weight(num_locations, k, p) for k in range(k_max + 1))
    return max(0.0, 1.0 - head)


def poisson_binomial_weights(rates, k_max: int) -> np.ndarray:
    """``P(K = k)`` for ``k = 0..k_max`` under heterogeneous Bernoulli rates.

    The heterogeneous generalization of :func:`binomial_weight`: with
    per-location (per-site) rates ``r_i`` the fault count is
    Poisson-binomial, and the head distribution folds one location at a
    time into a truncated convolution — O(N * k_max), deterministic in
    the location order. For a constant rate vector the values agree with
    the closed binomial form up to float rounding (the uniform consumers
    keep the closed form, so E1_1 results are bit-identical).
    """
    rates = np.asarray(rates, dtype=np.float64)
    if np.any((rates < 0.0) | (rates > 1.0)):
        raise ValueError("rates must lie in [0, 1]")
    head = np.zeros(k_max + 1, dtype=np.float64)
    head[0] = 1.0
    for r in rates:
        head[1:] = head[1:] * (1.0 - r) + head[:-1] * r
        head[0] *= 1.0 - r
    return head


def poisson_binomial_weight(rates, k: int) -> float:
    """``P(K = k)`` under heterogeneous per-location rates."""
    return float(poisson_binomial_weights(rates, k)[k])


def poisson_binomial_tail(rates, k_max: int) -> float:
    """``P(K > k_max)`` under heterogeneous per-location rates."""
    return max(
        0.0, 1.0 - float(poisson_binomial_weights(rates, k_max).sum())
    )


def wilson_interval(
    failures: int, trials: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class StratumStats:
    """Monte-Carlo tallies for one subset stratum."""

    k: int
    trials: int = 0
    failures: int = 0
    exact: bool = False

    @property
    def rate(self) -> float:
        if self.trials == 0:
            return 0.0
        return self.failures / self.trials

    def interval(self, z: float = 1.96) -> tuple[float, float]:
        if self.exact:
            return self.rate, self.rate
        return wilson_interval(self.failures, self.trials, z)

    def std_error(self) -> float:
        if self.exact or self.trials == 0:
            return 0.0 if self.exact else 0.5
        phat = self.rate
        # Never report exactly zero for a sampled stratum: use the
        # rule-of-three style floor so allocation keeps probing it.
        return max(
            math.sqrt(phat * (1 - phat) / self.trials), 1.0 / self.trials
        )


@dataclass
class SubsetEstimate:
    """``p_L`` at one physical rate with confidence and truncation bounds."""

    p: float
    mean: float
    lower: float
    upper: float
    tail: float

    def __str__(self) -> str:
        return (
            f"p={self.p:.3g}: p_L={self.mean:.3g} "
            f"[{self.lower:.3g}, {self.upper:.3g}] (tail {self.tail:.2g})"
        )


@dataclass
class DirectEstimate:
    """``p_L`` from direct (Bernoulli) Monte-Carlo at one fixed rate."""

    p: float
    trials: int
    failures: int

    @property
    def rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    def interval(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.failures, self.trials, z)

    def __str__(self) -> str:
        lo, hi = self.interval()
        return (
            f"p={self.p:.3g}: p_L={self.rate:.3g} "
            f"[{lo:.3g}, {hi:.3g}] (direct, {self.trials} shots)"
        )


def direct_mc(
    engine,
    model,
    shots: int,
    *,
    rng: np.random.Generator | None = None,
    batch_size: int = 8192,
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
    mem_budget: int | None = None,
    evaluator=None,
) -> DirectEstimate:
    """Direct Monte-Carlo at a fixed physical rate on a batch engine.

    The classical estimator the subset decomposition replaces: every
    location of every shot fails independently at its ``model`` rate
    (``sample_injections_model_batch``), and the whole batch executes on
    the engine's packed path. Useful as an end-to-end consistency check of
    the subset estimator (the two must agree within statistics at the same
    ``p``) and for noise models whose strata are not p-independent.

    The workload is chunked (``repro.sim.shard``) into at most
    ``max_slab``-shot slabs (default ``batch_size``) with deterministic
    per-chunk seeds and run inline or across ``workers`` pool processes —
    identical tallies for any worker count. ``executor`` swaps the
    backend behind the same chunk plan (e.g. ``repro.sim.cluster`` TCP
    workers — bit-identical tallies again), and ``mem_budget`` sizes the
    slab adaptively. ``evaluator`` reuses an already-open chunk executor
    (e.g. a sampler's live cluster session — one handshake/compile per
    worker instead of one per call) without closing it; the caller keeps
    ownership. The plan depends only on the evaluator's ``max_slab`` and
    the rng draw, so a reused session returns the same tallies a fresh
    one would.
    """
    from .shard import merge_partials, resolve_evaluator

    rng = rng if rng is not None else np.random.default_rng()
    entropy = int(rng.integers(0, 2**63))
    owned = evaluator is None
    if owned:
        evaluator = resolve_evaluator(
            engine,
            workers=workers,
            max_slab=max_slab,
            executor=executor,
            mem_budget=mem_budget,
            default_slab=batch_size,
            model=model,
        )
    try:
        with _obs_span("subset.direct_mc", shots=shots):
            merged = merge_partials(
                evaluator.map(
                    evaluator.planner.plan_bernoulli(model, shots, entropy)
                )
            )
    finally:
        if owned:
            evaluator.close()
    return DirectEstimate(
        p=float(getattr(model, "p", math.nan)),
        trials=shots,
        failures=merged.failures,
    )


class SubsetSampler:
    """Stratified fault-subset sampler over a fixed location universe.

    Parameters
    ----------
    failure_fn:
        Callable mapping an injection dict to ``True`` on logical failure —
        typically ``lambda inj: judge.is_logical_failure(runner.run(inj))``.
        May be ``None`` when an ``engine`` is supplied.
    locations:
        Static location list from :func:`repro.sim.frame.protocol_locations`.
    k_max:
        Largest stratum to sample. ``p_L`` estimates carry an explicit
        truncation bound for everything above it.
    rng:
        Numpy generator (seeded for reproducibility).
    engine:
        Optional batch execution engine (``repro.sim.sampler``): an object
        with ``failures(list_of_injection_dicts) -> bool array`` and
        optionally ``failures_indexed(loc_idx, draw_idx)``. When given, the
        sampler evaluates whole strata per call instead of shot-by-shot —
        use :meth:`for_protocol` to wire one up. Engines built from the
        same protocol produce identical tallies for the same seed, whether
        batched or reference (the batch *generation* stream is shared).
    batch_size:
        Largest number of configurations evaluated per engine call (bounds
        peak memory of exact k=2 enumeration).
    workers:
        Process count for the engine-backed strata (``repro.sim.shard``):
        deterministic per-chunk seeds, results identical for every worker
        count, run inline at ``1`` (default) and fanned across a process
        pool above it.
    max_slab:
        Peak configurations materialized per chunk; defaults to
        ``batch_size``.
    executor:
        Execution backend factory ``(engine, max_slab) -> evaluator``
        (the ``repro.sim.shard.resolve_evaluator`` seam) — e.g.
        :class:`repro.sim.cluster.ClusterExecutorFactory` to evaluate
        chunks on remote TCP workers; results stay bit-identical to
        ``workers=1`` inline for any worker set.
    mem_budget:
        Per-worker slab memory budget in bytes; sizes ``max_slab``
        adaptively (:class:`repro.sim.shard.AdaptiveSlabPolicy`) when
        ``max_slab`` is not given.
    model:
        Optional noise model (the ``repro.sim.noisemodels`` seam).
        ``None`` keeps the historical E1_1 behaviour. A *uniform* model
        (E1_1 itself, or any model that degenerates to it) routes through
        the same code paths bit-for-bit. A heterogeneous model switches
        the strata to the site universe: stratum weights become
        Poisson-binomial over the per-site rates, sampled strata draw
        site subsets from the exact conditional-Bernoulli law with the
        model's draw weights, and the exact k = 1 / k = 2 enumerations
        weight every (site, draw) by its own conditional probability.
        ``estimate(p)`` rescales all rates by ``p / model.p`` (exact at
        the model's own rates; see ``docs/noise.md`` for the sweep
        semantics).
    """

    def __init__(
        self,
        failure_fn,
        locations,
        *,
        k_max: int = 3,
        rng: np.random.Generator | None = None,
        engine=None,
        batch_size: int = 8192,
        workers: int = 1,
        max_slab: int | None = None,
        executor=None,
        mem_budget: int | None = None,
        model=None,
        ledger=None,
    ):
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        if failure_fn is None and engine is None:
            raise ValueError("need a failure_fn or an engine")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if engine is None and (
            workers != 1 or executor is not None or mem_budget is not None
        ):
            raise ValueError("workers/executor/mem_budget require an engine")
        self.model = model
        self._universe = None
        if model is not None:
            from .noisemodels import site_universe

            universe = site_universe(list(locations), model)
            if not universe.uniform:
                self._universe = universe
        if self._universe is not None:
            k_cap = int(self._universe.active_sites.size)
        else:
            k_cap = len(locations)
        if k_max > k_cap:
            k_max = k_cap
        self.failure_fn = failure_fn
        self.locations = list(locations)
        self.k_max = k_max
        self.rng = rng if rng is not None else np.random.default_rng()
        self.engine = engine
        self.batch_size = batch_size
        self.workers = workers
        self.executor = executor
        self.mem_budget = mem_budget
        self.max_slab = max_slab
        #: Results-ledger selection for chunk-partial reuse: ``None`` =
        #: ambient (``REPRO_LEDGER``), ``False`` = off, or a
        #: :class:`repro.serve.ledger.ResultsLedger`.
        self.ledger = ledger
        self._evaluator = None
        self.strata: dict[int, StratumStats] = {
            k: StratumStats(k) for k in range(k_max + 1)
        }
        self._check_zero_stratum()

    @classmethod
    def for_protocol(
        cls,
        protocol,
        *,
        engine: str = "batched",
        judge=None,
        k_max: int = 3,
        rng: np.random.Generator | None = None,
        batch_size: int = 8192,
        workers: int = 1,
        max_slab: int | None = None,
        executor=None,
        mem_budget: int | None = None,
        model=None,
        store=None,
        ledger=None,
    ) -> "SubsetSampler":
        """Build a sampler over a protocol's full location universe.

        ``engine="batched"`` runs strata through the bit-packed engine
        (:class:`repro.sim.sampler.BatchedSampler`); ``"reference"`` keeps
        the per-shot oracle behind the identical interface. ``workers`` /
        ``max_slab`` size the chunk pool and slabs; ``executor`` /
        ``mem_budget`` select the execution backend and adaptive slab
        sizing; ``model`` selects the noise model (see class docs);
        ``store`` is forwarded to the engine factory's artifact cache
        (``repro.sim.sampler.make_sampler``).
        """
        from .sampler import make_sampler  # deferred: sampler imports noise

        sampler_engine = make_sampler(
            protocol, engine=engine, judge=judge, store=store
        )
        return cls(
            None,
            protocol_locations(protocol),
            k_max=k_max,
            rng=rng,
            engine=sampler_engine,
            batch_size=batch_size,
            workers=workers,
            max_slab=max_slab,
            executor=executor,
            mem_budget=mem_budget,
            model=model,
            ledger=ledger,
        )

    @classmethod
    def from_tallies(
        cls,
        locations,
        strata,
        *,
        model=None,
        k_max: int | None = None,
    ) -> "SubsetSampler":
        """Estimator-only replay sampler over recorded stratum tallies.

        Rebuilds the :meth:`estimate`/:meth:`curve` arithmetic from
        previously recorded tallies — no engine, no failure function, no
        RNG — so a ledger hit (``repro.serve``, ``run_series``) replays
        sweep points through the *same* estimator code path a cold run
        uses, which is what makes replay bit-identical. ``strata`` maps
        ``k`` (int or str — JSON round-trips stringify keys) to a
        :class:`StratumStats`, a ``{"trials", "failures", "exact"}``
        dict, or a ``(trials, failures, exact)`` tuple.
        """
        self = object.__new__(cls)
        self.model = model
        self._universe = None
        if model is not None:
            from .noisemodels import site_universe

            universe = site_universe(list(locations), model)
            if not universe.uniform:
                self._universe = universe
        self.failure_fn = None
        self.locations = list(locations)
        self.rng = None
        self.engine = None
        self.batch_size = 8192
        self.workers = 1
        self.executor = None
        self.mem_budget = None
        self.max_slab = None
        self.ledger = False
        self._evaluator = None
        rebuilt: dict[int, StratumStats] = {}
        for k, spec in strata.items():
            k = int(k)
            if isinstance(spec, StratumStats):
                stats = StratumStats(k, spec.trials, spec.failures, spec.exact)
            elif isinstance(spec, dict):
                stats = StratumStats(
                    k,
                    int(spec["trials"]),
                    int(spec["failures"]),
                    bool(spec["exact"]),
                )
            else:
                trials, failures, exact = spec
                stats = StratumStats(k, int(trials), int(failures), bool(exact))
            rebuilt[k] = stats
        self.strata = dict(sorted(rebuilt.items()))
        self.k_max = int(k_max) if k_max is not None else max(self.strata)
        return self

    # -- chunked execution -----------------------------------------------------

    @property
    def evaluator(self):
        """Lazy chunk executor over the engine (the ``executor=`` seam).

        A :class:`repro.sim.shard.ShardedEvaluator` by default, or
        whatever backend the ``executor`` factory builds (e.g. a
        :class:`repro.sim.cluster.ClusterEvaluator`). Created on first
        engine call and kept alive (one pool / one set of worker
        connections per sampler, not per stratum batch); release with
        :meth:`close` or by using the sampler as a context manager.
        """
        if self._evaluator is None:
            from .shard import resolve_evaluator

            self._evaluator = resolve_evaluator(
                self.engine,
                workers=self.workers,
                max_slab=self.max_slab,
                executor=self.executor,
                mem_budget=self.mem_budget,
                default_slab=self.batch_size,
                model=self.model,
            )
            # Chunk-partial reuse: wrap the backend so ledger-covered
            # chunks are subtracted from every plan before dispatch.
            # Pass-through (and bit-identical) when the ledger is off.
            from ..serve.ledger import LedgerEvaluator, resolve_ledger

            ledger = resolve_ledger(self.ledger)
            if ledger is not None:
                self._evaluator = LedgerEvaluator(
                    self._evaluator, ledger, model=self.model
                )
        return self._evaluator

    def close(self) -> None:
        """Reap any chunk worker pool (idempotent)."""
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None

    def __enter__(self) -> "SubsetSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sampling ------------------------------------------------------------

    def _eval_batch(self, injection_dicts: list[dict]) -> np.ndarray:
        """Failure verdicts for a list of injection dicts (either path)."""
        if self.engine is not None:
            return np.asarray(self.engine.failures(injection_dicts), dtype=bool)
        return np.fromiter(
            (bool(self.failure_fn(d)) for d in injection_dicts),
            dtype=bool,
            count=len(injection_dicts),
        )

    def _check_zero_stratum(self) -> None:
        """Stratum 0 is deterministic: evaluate the fault-free run once."""
        stats = self.strata[0]
        stats.exact = True
        stats.trials = 1
        stats.failures = 1 if bool(self._eval_batch([{}])[0]) else 0

    def enumerate_k1_exact(self) -> None:
        """Replace stratum-1 sampling with exact weighted enumeration.

        Conditioned on exactly one failing location, the location is
        uniform over the universe and the fault draw is uniform within the
        location's kind, so ``f_1`` is a finite probability-weighted sum.

        With an engine the enumeration routes through the stratum planner
        (``repro.sim.shard``) in ``max_slab`` row chunks — streamed, and
        fanned across the worker pool when ``workers > 1``, with the same
        mass for any worker count. The ``failure_fn`` path keeps the
        historical dict-at-a-time loop. Under a heterogeneous model the
        rows are the model's active *sites* (correlated pair sites
        included, firing as one event) and each (site, draw) row carries
        its own conditional probability.
        """
        if self.engine is not None:
            with _obs_span("subset.enumerate_k1"):
                merged = self.evaluator.reduce(
                    self.evaluator.planner.plan_rows(checkable_only=False)
                )
            total = merged.weighted_mass
        else:
            configurations: list[dict] = []
            weights: list[float] = []
            if self._universe is not None:
                for injections, weight in self._universe.iter_rows():
                    configurations.append(injections)
                    weights.append(weight)
            else:
                tables = draw_tables(self.locations)
                for (key, _, _), draws in zip(self.locations, tables):
                    weight = 1.0 / (len(self.locations) * len(draws))
                    for injection in draws:
                        configurations.append({key: injection})
                        weights.append(weight)
            total = 0.0
            for start in range(0, len(configurations), self.batch_size):
                chunk = configurations[start : start + self.batch_size]
                verdicts = self._eval_batch(chunk)
                for offset in np.nonzero(verdicts)[0]:
                    total += weights[start + int(offset)]
        stats = self.strata[1]
        stats.exact = True
        # Store as a high-resolution fraction for reporting.
        stats.trials = 10**9
        stats.failures = round(total * stats.trials)

    def enumerate_k2_exact(self, *, max_runs: int | None = 2_000_000) -> None:
        """Replace stratum-2 sampling with exact weighted enumeration.

        Conditioned on exactly two failing locations the pair is uniform
        over the ``C(N, 2)`` location pairs and the two draws are uniform
        within each location's kind, so ``f_2`` is a finite sum — the
        *exact* leading coefficient of ``p_L(p)`` for an FT protocol.

        Cost is ``sum over pairs of d_i * d_j`` protocol runs (~85k for
        the Steane protocol, minutes for the largest codes); ``max_runs``
        guards against accidental huge enumerations.

        With an engine the pair enumeration routes through the stratum
        planner in ``max_slab``-run chunks (streamed, pool-fanned when
        ``workers > 1``, worker-count independent); the ``failure_fn``
        path keeps the historical dict-at-a-time loop.
        """
        if self.k_max < 2:
            raise ValueError("k_max < 2: stratum 2 is not tracked")
        if self.engine is not None:
            planner = self.evaluator.planner
            total_runs = planner.total_pair_runs()
            if max_runs is not None and total_runs > max_runs:
                raise ValueError(
                    f"exact k=2 enumeration needs {total_runs} runs "
                    f"(> max_runs={max_runs})"
                )
            with _obs_span("subset.enumerate_k2", runs=total_runs):
                merged = self.evaluator.reduce(planner.plan_pairs())
            total = merged.weighted_mass
            stats = self.strata[2]
            stats.exact = True
            stats.trials = 10**9
            stats.failures = round(total * stats.trials)
            return
        if self._universe is not None:
            total_runs = self._universe.total_pair_runs()
            if max_runs is not None and total_runs > max_runs:
                raise ValueError(
                    f"exact k=2 enumeration needs {total_runs} runs "
                    f"(> max_runs={max_runs})"
                )
            total = 0.0
            configurations = []
            weights = []
            for injections, weight, _, _ in self._universe.iter_pair_runs():
                configurations.append(injections)
                weights.append(weight)
                if len(configurations) >= self.batch_size:
                    verdicts = self._eval_batch(configurations)
                    for offset in np.nonzero(verdicts)[0]:
                        total += weights[int(offset)]
                    configurations.clear()
                    weights.clear()
            if configurations:
                verdicts = self._eval_batch(configurations)
                for offset in np.nonzero(verdicts)[0]:
                    total += weights[int(offset)]
            stats = self.strata[2]
            stats.exact = True
            stats.trials = 10**9
            stats.failures = round(total * stats.trials)
            return
        draws = draw_tables(self.locations)
        total_runs = 0
        num = len(self.locations)
        for i in range(num):
            for j in range(i + 1, num):
                total_runs += len(draws[i]) * len(draws[j])
        if max_runs is not None and total_runs > max_runs:
            raise ValueError(
                f"exact k=2 enumeration needs {total_runs} runs "
                f"(> max_runs={max_runs})"
            )
        pair_count = math.comb(num, 2)
        total = 0.0
        configurations: list[dict] = []
        weights: list[float] = []

        def flush():
            nonlocal total
            verdicts = self._eval_batch(configurations)
            for offset in np.nonzero(verdicts)[0]:
                total += weights[int(offset)]
            configurations.clear()
            weights.clear()

        for i in range(num):
            key_i = self.locations[i][0]
            for j in range(i + 1, num):
                key_j = self.locations[j][0]
                weight = 1.0 / (pair_count * len(draws[i]) * len(draws[j]))
                for draw_i in draws[i]:
                    for draw_j in draws[j]:
                        configurations.append({key_i: draw_i, key_j: draw_j})
                        weights.append(weight)
                if len(configurations) >= self.batch_size:
                    flush()
        if configurations:
            flush()
        stats = self.strata[2]
        stats.exact = True
        stats.trials = 10**9
        stats.failures = round(total * stats.trials)

    def sample_stratum(self, k: int, shots: int) -> StratumStats:
        """Run ``shots`` Monte-Carlo trials in stratum ``k``.

        With an engine, the request is planned into ``max_slab`` chunks
        seeded from one draw of the sampler rng and evaluated through
        :attr:`evaluator` — tallies identical for any worker count. The
        ``failure_fn`` path draws shot by shot (in ``batch_size`` slabs
        under a heterogeneous model).
        """
        stats = self.strata[k]
        if stats.exact:
            return stats
        if self.engine is not None:
            # The entropy draw happens before the span opens: spans never
            # consume RNG state, and the explicit order keeps that easy
            # to audit.
            entropy = int(self.rng.integers(0, 2**63))
            with _obs_span("subset.stratum", k=k, shots=shots):
                merged = self.evaluator.reduce(
                    self.evaluator.planner.plan_stratum(k, shots, entropy)
                )
            stats.trials += merged.trials
            stats.failures += merged.failures
            return stats
        if self._universe is not None:
            remaining = shots
            while remaining > 0:
                step = min(remaining, self.batch_size)
                loc_idx, draw_idx = self._universe.sample_stratum(
                    k, step, self.rng
                )
                dicts = materialize_stratum(self.locations, loc_idx, draw_idx)
                verdicts = self._eval_batch(dicts)
                stats.trials += step
                stats.failures += int(verdicts.sum())
                remaining -= step
            return stats
        for _ in range(shots):
            injections = sample_injections_fixed_k(self.locations, k, self.rng)
            stats.trials += 1
            if self.failure_fn(injections):
                stats.failures += 1
        return stats

    def sample(
        self,
        shots: int,
        *,
        p_ref: float | None = None,
        batch: int | None = None,
        allocation: str = "dynamic",
    ) -> None:
        """Distribute ``shots`` trials over strata ``1..k_max``.

        ``allocation='dynamic'`` targets the stratum whose statistical
        uncertainty contributes most to ``Var[p_L(p_ref)]`` (the DSS
        behaviour); ``'uniform'`` splits shots evenly. ``batch`` is the
        re-allocation granularity; with a batch engine it defaults to 500
        (each batch is one engine call, so fine-grained re-allocation
        would squander the vectorization), per-shot mode keeps the
        historical 50.

        ``p_ref`` defaults to the historical ``0.1`` (the paper's
        ``p_max``) for uniform models, and to the *model's own strength*
        for heterogeneous ones — a calibrated rate map may not even be
        rescalable to 0.1 (a site rate would cross 1), and its natural
        variance target is its own operating point.
        """
        if p_ref is None:
            p_ref = (
                0.1
                if self._universe is None
                else float(getattr(self.model, "p", 0.1))
            )
        if batch is None:
            batch = 50 if self.engine is None else 500
        sampled = [k for k in range(1, self.k_max + 1) if not self.strata[k].exact]
        if not sampled:
            return
        if allocation == "uniform":
            per = shots // len(sampled)
            for k in sampled:
                self.sample_stratum(k, per)
            return
        if allocation != "dynamic":
            raise ValueError(f"unknown allocation {allocation!r}")
        spent = 0
        # Seed every stratum so std errors are defined.
        seed = min(batch, max(1, shots // (4 * len(sampled))))
        for k in sampled:
            self.sample_stratum(k, seed)
            spent += seed
        head_ref = self._stratum_head(p_ref)
        while spent < shots:
            contributions = {
                k: head_ref[k] * self.strata[k].std_error()
                for k in sampled
            }
            target = max(contributions, key=contributions.get)
            step = min(batch, shots - spent)
            self.sample_stratum(target, step)
            spent += step

    # -- estimation ------------------------------------------------------------

    def _stratum_head(self, p: float) -> np.ndarray:
        """``P(K = k)`` for ``k = 0..k_max`` at physical strength ``p``.

        Binomial (the historical closed form, bit-identical) when the
        model is uniform or absent; Poisson-binomial over the site rates
        rescaled by ``p / model.p`` when heterogeneous.
        """
        if self._universe is None:
            n = len(self.locations)
            return np.asarray(
                [binomial_weight(n, k, p) for k in range(self.k_max + 1)],
                dtype=np.float64,
            )
        return self._universe.stratum_weights(self.k_max, p)

    def _tail_weight(self, p: float, head: np.ndarray) -> float:
        if self._universe is None:
            return tail_weight(len(self.locations), self.k_max, p)
        return max(0.0, 1.0 - float(head.sum()))

    def estimate(self, p: float, *, z: float = 1.96) -> SubsetEstimate:
        """``p_L(p)`` with Wilson confidence and truncation bounds.

        Under a heterogeneous model the stratum weights are the exact
        Poisson-binomial probabilities of the site rates rescaled to
        ``p``; the conditional rates ``f_k`` are the ones sampled at the
        model's own strength (exact for rate-homogeneous models like
        ``BiasedPauliModel``; second-order accurate across the sweep for
        rate-heterogeneous ones — see ``docs/noise.md``).
        """
        head = self._stratum_head(p)
        mean = lower = upper = 0.0
        for k, stats in self.strata.items():
            weight = float(head[k])
            mean += weight * stats.rate
            lo, hi = stats.interval(z)
            lower += weight * lo
            upper += weight * hi
        tail = self._tail_weight(p, head)
        return SubsetEstimate(
            p=p,
            mean=mean,
            lower=lower,
            upper=min(1.0, upper + tail),
            tail=tail,
        )

    @property
    def p_ceiling(self) -> float | None:
        """Supremum of strengths the model can be rescaled to (exclusive),
        or ``None`` for the uniform path (any ``p <= 1`` is valid).
        ``estimate(p)`` raises at or above it; sweep consumers
        (``figure4``, the CLI) skip those points instead."""
        if self._universe is None:
            return None
        return self._universe.max_strength()

    def curve(self, p_values, *, z: float = 1.96) -> list[SubsetEstimate]:
        """Estimates across a sweep of physical error rates."""
        return [self.estimate(float(p), z=z) for p in p_values]

    def total_trials(self) -> int:
        return sum(s.trials for s in self.strata.values() if not s.exact)
