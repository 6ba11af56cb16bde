"""Per-layer instruments: timing/counting wrappers, spans, and self time.

A :class:`LayerProbe` replaces each layer's public entry points with a
wrapper that counts the call, adds its wall time to the layer metric and
opens a ``repro.obs.trace`` span of the same name. Modules bind names at
import (``from .correction import synthesize_correction``), so a wrapper
is installed at every binding a caller uses, not only in the home module;
methods are patched on their class. Nested calls of the same metric are
timed once, at the outermost call.

The probe is installed only for the traced run; the end-to-end run never
sees it. ``layer_self_times`` turns a finished trace into self time per
layer with :func:`repro.obs.summary.summarize_trace`.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: Every per-layer metric the benchmark reports, with its unit.
COUNT_METRICS = [
    "sat.solves",
    "sat.unsat_solves",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "core.correction_calls",
    "store.puts",
    "store.gets",
    "sim.configs",
    "sim.engine_calls",
    "serve.computes",
    "serve.ledger_hits",
    "serve.coalesced",
    "net.bytes_sent",
    "net.bytes_received",
]
TIME_METRICS = [
    "sat.solve_s",
    "sat.unsat_s",
    "core.correction_s",
    "synth.verification_s",
    "synth.prep_s",
    "core.globalopt_s",
    "core.synthesize_s",
    "store.put_s",
    "store.get_s",
    "core.ftcheck_s",
    "core.budget_s",
    "sim.execute_s",
    "sim.judge_s",
    "sim.compile_s",
    "sim.merge_s",
    "serve.server_s",
    "cli.interp_s",
    "cli.import_s",
]
#: Layers that self time is charged to; a span belongs to the layer named
#: by its first dotted component, after ``SPAN_LAYER`` aliases.
LAYERS = ["sat", "synth", "core", "store", "sim", "serve", "net", "cli", "experiments", "obs"]
SELF_METRICS = [f"{layer}.self_s" for layer in LAYERS]
TRACE_METRICS = ["obs.unattributed_s", "obs.unattributed_frac", "obs.trace_overhead_frac"]

#: Program span prefixes that live in another layer's module.
SPAN_LAYER = {
    "figure4": "experiments",
    "table1": "experiments",
    "subset": "sim",
    "shard": "sim",
    "cluster": "sim",
    "ledger": "serve",
    "query": "net",
}

ROOT_PREFIX = "bench."
REGISTRY_PREFIX = "perfbench."


def per_layer_units() -> dict[str, str]:
    units = {name: "count" for name in COUNT_METRICS}
    units.update({name: "s" for name in TIME_METRICS + SELF_METRICS})
    units.update({name: "s" if name.endswith("_s") else "fraction" for name in TRACE_METRICS})
    return units


# (module, attribute, metric) for plain functions, at each caller binding.
_FUNCTIONS = [
    ("repro.core.protocol", "prepare_zero", "synth.prep"),
    ("repro.core.globalopt", "prepare_zero", "synth.prep"),
    ("repro.core.protocol", "synthesize_verification_optimal", "synth.verification"),
    ("repro.core.protocol", "synthesize_verification_greedy", "synth.verification"),
    ("repro.core.globalopt", "enumerate_optimal_verifications", "synth.verification"),
    ("repro.core.protocol", "synthesize_correction", "core.correction"),
    ("repro.experiments.table1", "synthesize_protocol", "core.synthesize"),
    ("repro.experiments.table1", "globally_optimize_protocol", "core.globalopt"),
    ("repro.core.ftcheck", "check_fault_tolerance", "core.ftcheck"),
    ("repro.core.analysis", "two_fault_error_budget", "core.budget"),
    ("repro.sim.shard", "merge_partials", "sim.merge"),
    ("repro.serve.ledger", "merge_partials", "sim.merge"),
    ("repro.sim.cluster", "merge_partials", "sim.merge"),
]
# (module, class, method, metric) patched on the class.
_METHODS = [
    ("repro.store.store", "ArtifactStore", "put_bytes", "store.put"),
    ("repro.store.store", "ArtifactStore", "get_bytes", "store.get"),
    ("repro.sim.sampler", "CompiledProtocol", "__init__", "sim.compile"),
    ("repro.sim.sampler", "BatchedSampler", "failures_indexed", "sim.execute"),
    ("repro.sim.sampler", "BatchedSampler", "failures", "sim.execute"),
    ("repro.sim.sampler", "BatchedSampler", "residual_weights_indexed", "sim.execute"),
    ("repro.sim.sampler", "BatchedSampler", "residual_weights", "sim.execute"),
    ("repro.sim.sampler", "BatchedSampler", "run", "sim.execute"),
    ("repro.sim.logical", "LogicalJudge", "failure_mask", "sim.judge"),
]


class LayerProbe:
    """Wrappers that time and count each layer's public entry points."""

    def __init__(self, registry=None):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: A ``repro.obs.metrics`` registry that mirrors every count as
        #: ``perfbench.count.<name>`` / ``perfbench.seconds.<name>``, so a
        #: daemon reports them through its ``stats`` op.
        self._registry = registry
        # A daemon calls in from several compute threads: totals are
        # updated under a lock and nesting is tracked per thread.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _depth(self) -> dict[str, int]:
        depth = getattr(self._local, "depth", None)
        if depth is None:
            depth = self._local.depth = defaultdict(int)
        return depth

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount
            if self._registry is not None:
                self._registry.counter(f"{REGISTRY_PREFIX}count.{name}").inc(amount)

    def _time(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds
            if self._registry is not None:
                self._registry.counter(f"{REGISTRY_PREFIX}seconds.{name}").inc(seconds)

    # -- installation ------------------------------------------------------

    def install(self) -> "LayerProbe":
        from repro.obs import trace as obs_trace

        self._span = obs_trace.span
        for module_name, attr, metric in _FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._timed(metric, getattr(module, attr)))
        for module_name, cls_name, method, metric in _METHODS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            original = owner.__dict__[method]
            count = _count_configs if metric == "sim.execute" else None
            self._patch(owner, method, self._timed(metric, original, count))
        solver_cls = importlib.import_module("repro.sat.solver").Solver
        self._patch(solver_cls, "solve", self._timed_solve(solver_cls.__dict__["solve"]))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerProbe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, metric: str, fn, count=None):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = probe._depth()
            if depth[metric]:
                return fn(*args, **kwargs)
            depth[metric] += 1
            start = time.perf_counter()
            try:
                with probe._span(metric):
                    result = fn(*args, **kwargs)
            finally:
                depth[metric] -= 1
                probe._time(metric, time.perf_counter() - start)
            probe._count(metric)
            if count is not None:
                count(probe, result)
            return result

        return wrapper

    def _timed_solve(self, solve):
        """``Solver.solve``: the counters on a ``SolveResult`` are the
        solver's running totals, so each call is charged its delta."""
        probe = self

        @functools.wraps(solve)
        def wrapper(solver, *args, **kwargs):
            before = (solver.conflicts, solver.decisions, solver.propagations)
            start = time.perf_counter()
            with probe._span("sat.solve") as handle:
                result = solve(solver, *args, **kwargs)
                handle.set(sat=bool(result.sat))
            elapsed = time.perf_counter() - start
            probe._time("sat.solve", elapsed)
            probe._count("sat.solve")
            if not result.sat:
                probe._time("sat.unsat", elapsed)
                probe._count("sat.unsat")
            probe._count("sat.conflicts", result.conflicts - before[0])
            probe._count("sat.decisions", result.decisions - before[1])
            probe._count("sat.propagations", result.propagations - before[2])
            return result

        return wrapper

    # -- readout -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The layer metrics this probe measures (others are left out)."""
        return probe_metrics(self.counts, self.seconds)


def probe_metrics(counts: dict, seconds: dict) -> dict[str, float]:
    """Per-layer metrics from a probe's raw counts and seconds."""
    c = defaultdict(int, counts)
    s = defaultdict(float, seconds)
    return {
        "sat.solves": c["sat.solve"],
        "sat.unsat_solves": c["sat.unsat"],
        "sat.conflicts": c["sat.conflicts"],
        "sat.decisions": c["sat.decisions"],
        "sat.propagations": c["sat.propagations"],
        "core.correction_calls": c["core.correction"],
        "store.puts": c["store.put"],
        "store.gets": c["store.get"],
        "sim.configs": c["sim.configs"],
        "sim.engine_calls": c["sim.execute"],
        "sat.solve_s": s["sat.solve"],
        "sat.unsat_s": s["sat.unsat"],
        "core.correction_s": s["core.correction"],
        "synth.verification_s": s["synth.verification"],
        "synth.prep_s": s["synth.prep"],
        "core.globalopt_s": s["core.globalopt"],
        "core.synthesize_s": s["core.synthesize"],
        "store.put_s": s["store.put"],
        "store.get_s": s["store.get"],
        "core.ftcheck_s": s["core.ftcheck"],
        "core.budget_s": s["core.budget"],
        "sim.execute_s": s["sim.execute"],
        "sim.judge_s": s["sim.judge"],
        "sim.compile_s": s["sim.compile"],
        "sim.merge_s": s["sim.merge"],
    }


def _count_configs(probe: LayerProbe, result) -> None:
    """Configurations one engine call evaluated (one per shot row)."""
    first = result[0] if isinstance(result, tuple) else result
    size = getattr(first, "shape", None)
    if size:
        probe._count("sim.configs", int(size[0]))
    elif hasattr(result, "num_shots"):
        probe._count("sim.configs", int(result.num_shots))


def registry_metrics(snapshot: dict) -> dict[str, float]:
    """Per-layer metrics from a registry a probe mirrored into."""
    raw: dict[str, dict] = {"count": {}, "seconds": {}}
    for name, value in snapshot.items():
        if name.startswith(REGISTRY_PREFIX):
            kind, _, metric = name[len(REGISTRY_PREFIX):].partition(".")
            raw[kind][metric] = value
    return probe_metrics(raw["count"], raw["seconds"])


def layer_of(span_name: str) -> str | None:
    head = span_name.split(".", 1)[0]
    head = SPAN_LAYER.get(head, head)
    return head if head in LAYERS else None


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer plus the unattributed remainder of the trace.

    The roots are the benchmark's own ``bench.*`` spans: their self time
    is work no program or layer span covers. Spans of an unknown prefix
    are charged to ``obs.unattributed_s`` as well.
    """
    from repro.obs.summary import summarize_trace

    summary = summarize_trace(spans)
    out = {name: 0.0 for name in SELF_METRICS}
    unattributed = 0.0
    for name, phase in summary["phases"].items():
        layer = layer_of(name)
        if layer is None:
            unattributed += phase["self"]
        else:
            out[f"{layer}.self_s"] += phase["self"]
    roots = [
        record["dur"]
        for record in summary["children"].get(None, [])
        if record.get("name", "").startswith(ROOT_PREFIX)
    ]
    out["obs.unattributed_s"] = unattributed
    total = sum(roots)
    out["obs.unattributed_frac"] = unattributed / total if total > 0 else 0.0
    return out
