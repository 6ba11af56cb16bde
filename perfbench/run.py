"""End-to-end benchmark of the repro pipeline, charged layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload synth-cold --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/provenance.json`` records why each was chosen and
which layer metric should move which end-to-end metric):

* ``synth-cold`` — every ``TABLE1_FAST_ROWS`` row synthesized into a
  fresh, empty artifact store and certified with
  ``check_fault_tolerance``; the ledger is off.
* ``simulate`` — per Fig. 4 code: the CLI-default ``run_series`` curve,
  the FT certificate and ``two_fault_error_budget`` on the pinned
  protocols in ``perfbench/protocols``; store and ledger off.
* ``serve-mix`` — a ``repro serve`` subprocess and one closed-loop client
  on one connection: ~70% of ``sweep`` queries repeat an earlier question
  (ledger reads), ~30% ask a fresh seed (compute plus ledger append).
* ``cli-start`` — short ``python -m repro ...`` subprocesses run one at a
  time against a warm store. Not in ``BENCHMARK.json``: four workloads
  leave runs too short for ``synth-cold`` to be steady.

``--trace 0`` measures the end-to-end metrics with no instrument
installed: ``setup_s``, ``peak_rss_mb``, and ``wall_ref``, the time of a
typical pass in units of a reference computation sampled while it runs
(``HostClock``). ``--trace 1`` alternates plain and traced work: the traced
part runs under a ``repro.obs.trace.Tracer(BufferSink())`` with every
layer's public entry points wrapped (``layers.LayerProbe``) and reports
the per-layer metrics, self time per layer from ``summarize_trace``,
the unattributed remainder and the tracing overhead. ``--workload all``
runs every workload both ways, one child process each, and prints every
metric. ``--self-test`` checks the benchmark itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKLOADS = ["synth-cold", "simulate", "serve-mix", "cli-start"]
#: The end-to-end metrics every workload reports. ``wall_ref`` is a
#: typical pass (``typical_pass``, ``typical_block``) in reference loops
#: (``HostClock``); its seconds and the per-operation latencies are
#: printed beside it, not reported: seconds move with the host's load, and
#: over a pass of unlike operations the median jumps between their kinds.
E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Fig. 4 sampling shots per stratum on ``simulate``.
SIM_SHOTS = 20000
#: Codes whose two-fault budget is left out (tesseract needs 2.6M runs,
#: over the default ``max_runs`` guard); curve and certificate still run.
SIM_NO_BUDGET = {"tesseract"}
#: The small catalog codes the daemon serves.
SERVE_CODES = ["steane", "shor", "surface_3", "11_1_3"]
SERVE_SHOTS = 4000
SERVE_FRESH_PER_10 = 3
#: Queries per block: at least one block is run, and ``wall_ref`` is a
#: typical block.
SERVE_BLOCK = 300
#: Consecutive queries divided by one host-speed reading.
SERVE_GROUP = 10
#: Distinct questions re-asked of an in-process ``run_series``.
SERVE_VERIFY = 6
#: The ``cli-start`` sequence and a line each invocation must print.
CLI_SEQUENCE = [
    (["codes"], r"^tesseract\s+Tesseract\s+\(16, 6, 4\)$"),
    (["synthesize", "steane"], r"^synthesized DeterministicProtocol\(Steane,"),
    (["synthesize", "shor"], r"^synthesized DeterministicProtocol\(Shor,"),
    (["check", "steane"], r"^Steane: fault tolerant "),
    (["ftcheck", "steane"], r"^Steane: fault tolerant "),
    (["budget", "steane"], r"failing-pair mass by segment pair:$"),
    (["simulate", "steane", "--shots", "1000", "--seed", "{seed}"],
     r"^Steane: f_1 = 0\.0 \(exact"),
    (["store", "ls"], r"^\d+ entries, \d+ bytes in "),
]


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a child failed)."""


# -- statistics ----------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that still has at
    least ten samples beyond it, or None when there are too few."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            ordered = sorted(values)
            rank = min(n - 1, int(pct / 100.0 * n))
            return pct, ordered[rank]
    return None


def describe(values: list[float], unit: str, scale: float = 1.0) -> str:
    values = [v * scale for v in values]
    text = f"p50={statistics.median(values):.4g} {unit}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]:g}={tail[1]:.4g} {unit}"
    return text + f" (n={len(values)})"


# -- host speed ------------------------------------------------------------------


class HostClock:
    """The host's speed, sampled while the benchmark works.

    Neighbours on a shared host slow every process on it, by 10-30% and
    more for minutes at a time, in CPU time as much as in wall time. While
    the clock runs, a ``SIGALRM`` handler times a fixed reference
    computation every ``PERIOD`` seconds: ~1 ms of a pure Python integer
    loop, which of the references tried tracked the slowdowns of SAT
    synthesis and of the simulation engine best. An operation's cost is
    its wall time, less the handler's, divided by the mean reference time
    sampled during it: a slower host stretches both, a program change only
    the operation. The reference is this file's code, which no program
    change runs. The operations slow more than the reference does, so the
    ratio cancels about two thirds of a slowdown, not all of it.
    """

    PERIOD = 0.05

    def __init__(self):
        self._samples: list[float] = []
        self._busy = 0.0
        self._prior = None

    @staticmethod
    def reference() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(15000):
            total += i * i
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(self.reference())
        self._busy += time.perf_counter() - t0

    def start(self) -> "HostClock":
        self._prior = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._prior)

    def __enter__(self) -> "HostClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def mark(self) -> tuple[int, float]:
        return len(self._samples), self._busy

    def busy(self, mark: tuple[int, float]) -> float:
        """Seconds the handler took since ``mark``."""
        return self._busy - mark[1]

    def speed(self, mark: tuple[int, float]) -> float:
        """Mean reference time sampled since ``mark``; one taken now if
        no tick fell in between."""
        samples = self._samples[mark[0]:]
        return statistics.fmean(samples) if samples else self.reference()


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts from now on, on one
    CPU, so the host clock samples the CPU the work runs on: each CPU of a
    shared host has its own neighbours."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- run context -----------------------------------------------------------------


class Context:
    """Per-run state: seed, deadline, scratch directory and child env."""

    def __init__(self, seed: int, seconds: float, trace: bool, smoke: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.python = sys.executable
        root = ROOT / ".perfbench-work"
        root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=root))
        for sub in ("tmp", "cache"):
            (self.work / sub).mkdir()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        env = dict(os.environ)
        env.pop("REPRO_TRACE", None)
        env.pop("REPRO_TRACE_CTX", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env["TMPDIR"] = str(self.work / "tmp")
        env["XDG_CACHE_HOME"] = str(self.work / "cache")
        env["REPRO_STORE"] = "off"
        env["REPRO_LEDGER"] = "off"
        self.env = env
        os.environ.update(
            {k: env[k] for k in ("TMPDIR", "XDG_CACHE_HOME", "REPRO_STORE", "REPRO_LEDGER")}
        )
        tempfile.tempdir = env["TMPDIR"]

    def gate(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a failed gate is never dropped."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def child_env(self, **extra) -> dict:
        env = dict(self.env)
        env.update({k: str(v) for k, v in extra.items()})
        return env

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another run still works there
            pass


def run_child(ctx: Context, args: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        args,
        cwd=ROOT,
        env=env or ctx.env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def time_children(ctx: Context, args: list[str], repeats: int,
                  env: dict | None = None) -> list[float]:
    """Wall time of ``repeats`` fresh interpreters running ``args``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = run_child(ctx, args, env)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    return times


def interp_and_import(ctx: Context) -> dict[str, float]:
    """``cli.interp_s`` (bare interpreter start, a control no program
    change moves) and ``cli.import_s`` (``import repro.cli`` on top)."""
    bare = time_children(ctx, [ctx.python, "-c", "pass"], 3)
    imported = time_children(ctx, [ctx.python, "-c", "import repro.cli"], 3)
    interp = statistics.median(bare)
    return {
        "cli.interp_s": interp,
        "cli.import_s": max(0.0, statistics.median(imported) - interp),
    }


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@contextmanager
def env_var(name: str, value: str):
    prior = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = prior


# -- tracing ---------------------------------------------------------------------


class TraceSession:
    """The traced half of a ``--trace 1`` run: one in-memory tracer, the
    layer probe, and the plain/traced timings that give the overhead."""

    def __init__(self):
        from repro.obs.trace import BufferSink, Tracer

        self.tracer = Tracer(BufferSink())
        self.probe = layers.LayerProbe()
        self.plain: list[float] = []
        self.traced: list[float] = []
        #: Per-layer metrics summed over traced child processes.
        self.child_metrics: dict[str, float] = {}

    @contextmanager
    def root(self, name: str, **attrs):
        """A ``bench.*`` root span with the probe installed."""
        with self.probe, self.tracer.span(layers.ROOT_PREFIX + name, **attrs) as handle:
            yield handle

    def spans(self) -> list[dict]:
        return self.tracer.sink.records

    def metrics(self, passes: float, counts: dict, extra: dict,
                timed: dict | None = None) -> dict[str, float]:
        """Per-layer metrics: exact counts from ``counts`` (one pass),
        seconds per traced pass from ``timed`` (totals; the probe's by
        default) and the trace's self-time split."""
        out = {name: 0.0 for name in layers.per_layer_units()}
        timed = self.probe.metrics() if timed is None else timed
        for name in layers.TIME_METRICS:
            if name in timed:
                out[name] = timed[name] / passes
        for name in layers.COUNT_METRICS:
            if name in counts:
                out[name] = counts[name]
        split = layers.layer_self_times(self.spans())
        for name, value in split.items():
            out[name] = value if name.endswith("_frac") else value / passes
        out.update(extra)
        out["obs.trace_overhead_frac"] = (
            statistics.median(self.traced) / statistics.median(self.plain) - 1.0
        )
        return out


def plain_passes(ctx: Context, ops):
    """Whole passes over ``ops`` while the deadline allows: a new pass
    starts only if a typical pass still fits, and one pass always runs.
    Returns the pass wall times and, per operation, its latencies in
    seconds and its costs in reference loops (``HostClock``)."""
    start = time.perf_counter()
    walls: list[float] = []
    seconds: list[list[float]] = [[] for _ in ops]
    costs: list[list[float]] = [[] for _ in ops]
    with HostClock() as clock:
        while not walls or (
            time.perf_counter() - start + statistics.median(walls) < ctx.seconds
        ):
            pass_start = time.perf_counter()
            for index, op in enumerate(ops):
                mark = clock.mark()
                elapsed = op(None) - clock.busy(mark)
                seconds[index].append(elapsed)
                costs[index].append(elapsed / clock.speed(mark))
            walls.append(time.perf_counter() - pass_start)
    return walls, seconds, costs


def typical_pass(per_op: list[list[float]]) -> float:
    """The sum over a pass's operations of each operation's median.
    Host contention comes in bursts that slow a few operations of a
    pass, so this is steadier than the median pass."""
    return sum(statistics.median(values) for values in per_op)


def paired_passes(ctx: Context, ops, session: TraceSession, readout=None):
    """Passes in which every operation runs twice, plain and traced, in
    alternating order, until the deadline (one pass at least). Pairing
    each operation keeps warm-up and host drift out of the overhead.
    Returns the counts ``readout`` (the probe's by default) gained in the
    first pass, and the number of passes."""
    readout = readout or session.probe.metrics
    counts = None
    passes = 0
    start = time.perf_counter()
    walls: list[float] = []
    while passes == 0 or (
        time.perf_counter() - start + statistics.median(walls) < ctx.seconds
    ):
        pass_start = time.perf_counter()
        before = dict(readout())
        seconds = {None: 0.0, session: 0.0}
        for index, op in enumerate(ops):
            order = (None, session) if (index + passes) % 2 == 0 else (session, None)
            for who in order:
                seconds[who] += op(who)
        session.plain.append(seconds[None])
        session.traced.append(seconds[session])
        if counts is None:
            after = readout()
            counts = {k: after[k] - before.get(k, 0) for k in after}
        passes += 1
        walls.append(time.perf_counter() - pass_start)
    return counts, passes


def root_span(session: TraceSession | None, name: str, **attrs):
    """The traced operation's ``bench.*`` root, or nothing when plain."""
    return nullcontext() if session is None else session.root(name, **attrs)


def pinned() -> dict:
    return json.loads((HERE / "pinned.json").read_text())


# -- synth-cold ------------------------------------------------------------------


def synth_cold(ctx: Context) -> dict:
    from repro.experiments import table1

    expected = pinned()["table1_fast_rows"]
    rows = list(table1.TABLE1_FAST_ROWS)
    random.Random(ctx.seed).shuffle(rows)
    if ctx.smoke:
        rows = [r for r in rows if r[0] in ("steane", "shor")]
    setup = time_children(
        ctx, [ctx.python, str(HERE / "child.py"), "ready", "synth-cold"], SETUP_REPEATS + 1
    )[1:]
    stores = itertools.count()

    def run_row(row: tuple[str, str, str], session: TraceSession | None) -> float:
        name = "/".join(row)
        store = ctx.work / "stores" / str(next(stores))
        store.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            with env_var("REPRO_STORE", str(store)), root_span(session, "row", row=name):
                result = table1.run_row(*row, verify_ft=True)
            elapsed = time.perf_counter() - t0
            ok = result.metrics.as_row() == expected[name] and result.ft_certified is True
        except Exception as exc:  # a crashed row is a failed operation
            elapsed, ok = time.perf_counter() - t0, False
            ctx.notes.append(f"{name}: {exc!r}")
        ctx.gate(ok, f"synth-cold {name}: metrics or certificate")
        shutil.rmtree(store, ignore_errors=True)
        return elapsed

    ops = [functools.partial(run_row, row) for row in rows]
    pin_to_one_cpu()
    warm = ctx.work / "stores" / "warm-up"
    warm.mkdir(parents=True)
    with env_var("REPRO_STORE", str(warm)):  # lazy imports are paid here
        table1.run_row("steane", "heuristic", "global", verify_ft=True)
    if not ctx.trace:
        walls, seconds, costs = plain_passes(ctx, ops)
        ctx.notes.append(f"synth_wall_s: {typical_pass(seconds):.4g} s typical pass; "
                         f"passes {describe(walls, 's')}")
        ctx.notes.append(f"row latency: {describe(sum(seconds, []), 'ms', 1e3)}")
        return {
            "setup_s": statistics.median(setup),
            "wall_ref": typical_pass(costs),
            "peak_rss_mb": peak_rss_mb(),
        }
    session = TraceSession()
    counts, passes = paired_passes(ctx, ops, session)
    return session.metrics(passes, counts, interp_and_import(ctx))


# -- simulate --------------------------------------------------------------------


def load_protocols() -> dict:
    from repro import load_protocol
    from repro.experiments.figure4 import FIGURE4_CODES

    return {code: load_protocol(HERE / "protocols" / f"{code}.json") for code in FIGURE4_CODES}


def simulate_steps(code: str, protocol, seed: int, shots: int, c2: float) -> dict:
    """One code's curve, certificate and budget: each step runs one call
    and returns its failed gates.

    Every gate is independent of the random stream: the certificate is
    exhaustive, ``f1_exact`` is an exact enumeration, ``c2`` is exact, and
    the lowest-p estimate only has to agree with ``c2 * p**2`` within four
    of its own standard errors.
    """
    from repro.core import analysis, ftcheck
    from repro.experiments import figure4

    def curve() -> list[str]:
        failed = []
        series = figure4.run_series(code, protocol=protocol, shots=shots, seed=seed, ledger=False)
        if series.f1_exact != 0:
            failed.append(f"f1_exact={series.f1_exact}")
        low = series.estimates[0]
        expect = c2 * low.p**2
        side = (low.upper - low.mean) if expect >= low.mean else (low.mean - low.lower)
        if abs(expect - low.mean) > 4.0 * side / 1.96:
            failed.append(f"p={low.p}: estimate {low.mean:.4g} vs c2*p^2 {expect:.4g}")
        return failed

    def certificate() -> list[str]:
        return [] if ftcheck.check_fault_tolerance(protocol) == [] else ["certificate not empty"]

    def budget() -> list[str]:
        c2_exact = analysis.two_fault_error_budget(protocol).c2_exact
        return [] if c2_exact == c2 else [f"c2_exact={c2_exact} != {c2}"]

    steps = {"curve": curve, "certificate": certificate, "budget": budget}
    if code in SIM_NO_BUDGET:
        del steps["budget"]
    return steps


def simulate_checks(code: str, protocol, seed: int, shots: int, c2: float) -> list[str]:
    """Every step of one code; the failed gates."""
    steps = simulate_steps(code, protocol, seed, shots, c2)
    return [failure for step in steps.values() for failure in step()]


def simulate(ctx: Context) -> dict:
    c2 = pinned()["c2_exact"]
    protocols = load_protocols()
    shots = SIM_SHOTS
    if ctx.smoke:
        protocols = {c: protocols[c] for c in ("steane", "shor")}
        shots = 500
    rng = random.Random(ctx.seed)
    seeds = {code: rng.randrange(2**31) for code in protocols}
    setup = time_children(
        ctx, [ctx.python, str(HERE / "child.py"), "ready", "simulate"], SETUP_REPEATS + 1
    )[1:]

    def run_step(code: str, name: str, step, session: TraceSession | None) -> float:
        t0 = time.perf_counter()
        try:
            with root_span(session, "step", code=code, step=name):
                failed = step()
        except Exception as exc:  # a crashed step is a failed operation
            failed = [repr(exc)]
        elapsed = time.perf_counter() - t0
        ctx.gate(not failed, f"simulate {code} {name}: {'; '.join(failed)}")
        return elapsed

    ops = [
        functools.partial(run_step, code, name, step)
        for code, protocol in protocols.items()
        for name, step in simulate_steps(code, protocol, seeds[code], shots, c2[code]).items()
    ]
    simulate_checks("steane", protocols["steane"], 0, 500, c2["steane"])  # lazy imports
    if not ctx.trace:
        walls, seconds, costs = plain_passes(ctx, ops)
        ctx.notes.append(f"sim_wall_s: {typical_pass(seconds):.4g} s typical pass; "
                         f"passes {describe(walls, 's')}")
        ctx.notes.append(f"per-step latency: {describe(sum(seconds, []), 'ms', 1e3)}")
        return {
            "setup_s": statistics.median(setup),
            "wall_ref": typical_pass(costs),
            "peak_rss_mb": peak_rss_mb(),
        }
    session = TraceSession()
    counts, passes = paired_passes(ctx, ops, session)
    out = session.metrics(passes, counts, interp_and_import(ctx))
    ctx.notes.append(
        f"sim_configs_per_s: {counts['sim.configs'] / statistics.median(session.plain):.4g}"
        f" 1/s ({counts['sim.configs']} configurations per pass)"
    )
    return out


# -- serve-mix -------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, ctx: Context, probed: bool):
        store, ledger = ctx.work / "store", ctx.work / "ledger"
        entry = (
            [ctx.python, str(HERE / "child.py"), "serve"]
            if probed
            else [ctx.python, "-m", "repro", "serve"]
        )
        self.log = open(ctx.work / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            entry + [
                "--listen", "127.0.0.1:0",
                "--compute-threads", "1",  # one closed-loop client
                "--store", str(store),
                "--ledger", str(ledger),
            ],
            cwd=ROOT,
            env=ctx.env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise BenchError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self, client=None) -> None:
        try:
            if client is not None and self.proc.poll() is None:
                client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()
            self.log.close()


def questions(seed: int):
    """The endless query stream of ((code, seed), fresh?).

    Every ten queries hold exactly three fresh questions, in shuffled
    positions, and the fresh questions take the codes in turn; the rest
    repeat an earlier question. So each 300-query block does the same
    amount of compute whatever the seed.
    """
    rng = random.Random(seed)
    asked: list[tuple[str, int]] = []
    used: set[int] = set()
    codes: list[str] = []
    while True:
        chunk = [True] * SERVE_FRESH_PER_10 + [False] * (10 - SERVE_FRESH_PER_10)
        rng.shuffle(chunk)
        if not asked:
            chunk.sort(reverse=True)
        for fresh in chunk:
            if not fresh:
                yield rng.choice(asked), False
                continue
            if not codes:
                codes = rng.sample(SERVE_CODES, len(SERVE_CODES))
            qseed = rng.randrange(1, 2**31)
            while qseed in used:
                qseed = rng.randrange(1, 2**31)
            used.add(qseed)
            asked.append((codes.pop(), qseed))
            yield asked[-1], True


def typical_block(by_kind: dict[tuple[str, bool], list[float]], block: int) -> float:
    """A block's queries, each at the median of its kind (code, hit or
    miss), in the block's fixed mix: the share of fresh questions, spread
    evenly over the codes."""
    share = SERVE_FRESH_PER_10 / 10

    def mean_median(fresh: bool) -> float:
        return statistics.fmean(
            statistics.median(by_kind[code, fresh])
            for code in SERVE_CODES if by_kind[code, fresh]
        )

    return block * ((1 - share) * mean_median(False) + share * mean_median(True))


def serve_mix(ctx: Context) -> dict:
    from repro import get_code, synthesize_protocol
    from repro.experiments.figure4 import FIGURE4_SWEEP, run_series
    from repro.serve.client import ServeClient

    block = 30 if ctx.smoke else SERVE_BLOCK
    # The closed-loop client waits while the daemon works, so one CPU
    # serves both; the daemon inherits the affinity.
    pin_to_one_cpu()
    store = ctx.work / "store"
    with env_var("REPRO_STORE", str(store)):
        protocols = {c: synthesize_protocol(get_code(c)) for c in SERVE_CODES}
    setup = []
    daemon = client = None
    for attempt in range(SETUP_REPEATS + 1):
        if daemon is not None:
            daemon.stop(client)
            client.close()
        t0 = time.perf_counter()
        daemon = Daemon(ctx, probed=ctx.trace)
        try:
            client = ServeClient(daemon.host, daemon.port, timeout=120.0)
            client.ping()
        except Exception:
            daemon.stop()
            raise
        if attempt:
            setup.append(time.perf_counter() - t0)
    session = TraceSession() if ctx.trace else None
    first: dict[tuple, dict] = {}
    latency: dict[str, list[float]] = {"hit": [], "miss": []}
    # Per (code, fresh?): latencies in seconds and in reference loops
    # (--trace 0), each divided by the host speed over its SERVE_GROUP.
    by_kind: dict[tuple[str, bool], list[float]] = {
        (c, f): [] for c in SERVE_CODES for f in (False, True)
    }
    cost_by_kind: dict[tuple[str, bool], list[float]] = {kind: [] for kind in by_kind}
    group: list[tuple[tuple[str, bool], float]] = []
    # Latencies of the alternating part, by (traced?, fresh?).
    split: dict[tuple[bool, bool], list[float]] = {
        (t, f): [] for t in (False, True) for f in (False, True)
    }
    blocks: list[float] = []
    counts: dict = {}
    stream = questions(ctx.seed)
    clock = None if ctx.trace else HostClock().start()
    try:
        group_mark = clock.mark() if clock else None
        start = block_start = time.perf_counter()
        sent = 0
        # --trace 1: one plain block for the exact counts, then at least
        # one more block alternating plain and traced queries.
        while sent < (2 * block if ctx.trace else block) or (
            time.perf_counter() - start < ctx.seconds
        ):
            (code, qseed), fresh = next(stream)
            tracing = session is not None and sent >= block and sent % 2 == 1
            mark = clock.mark() if clock else None
            t0 = time.perf_counter()
            try:
                if tracing:
                    with session.tracer.span(layers.ROOT_PREFIX + "query", code=code):
                        line = client.sweep(code, shots=SERVE_SHOTS, seed=qseed, sweep=FIGURE4_SWEEP)
                else:
                    line = client.sweep(code, shots=SERVE_SHOTS, seed=qseed, sweep=FIGURE4_SWEEP)
                elapsed = time.perf_counter() - t0
                source = line.get("source")
                if fresh:
                    first[(code, qseed)] = line["result"]
                    ok = source == "computed"
                else:
                    ok = source == "ledger" and line["result"] == first.get((code, qseed))
            except Exception as exc:  # a failed query still counts
                elapsed, source, ok = time.perf_counter() - t0, None, False
                ctx.notes.append(f"query {code}/{qseed}: {exc!r}")
            ctx.gate(ok, f"serve-mix {code} seed={qseed}: source={source}")
            if clock is not None:
                elapsed -= clock.busy(mark)
            (latency["miss"] if fresh else latency["hit"]).append(elapsed)
            by_kind[code, fresh].append(elapsed)
            if clock is not None:
                group.append(((code, fresh), elapsed))
                if len(group) == SERVE_GROUP:
                    speed = clock.speed(group_mark)
                    for kind, seconds in group:
                        cost_by_kind[kind].append(seconds / speed)
                    group.clear()
                    group_mark = clock.mark()
            if session is not None and sent >= block:
                split[tracing, fresh].append(elapsed)
            sent += 1
            if sent % block == 0:
                now = time.perf_counter()
                blocks.append(now - block_start)
                block_start = now
                if sent == block:
                    rss = daemon.peak_rss_mb()  # after a fixed amount of work
                    wire = client.wire_stats()  # before the stats reply, whose size varies
                    stats = client.stats()
                    counts = {
                        "serve.computes": stats["computes"],
                        "serve.ledger_hits": stats["ledger_hits"],
                        "serve.coalesced": stats["coalesced"],
                        "net.bytes_sent": wire["raw_sent"],
                        "net.bytes_received": wire["raw_received"],
                    }
                    if session is not None:
                        counts.update(layers.registry_metrics(stats["metrics"]))
    finally:
        if clock is not None:
            clock.stop()
        daemon.stop(client)
        client.close()
    for code, qseed in random.Random(ctx.seed).sample(sorted(first), min(SERVE_VERIFY, len(first))):
        series = run_series(
            code, protocol=protocols[code], shots=SERVE_SHOTS, seed=qseed,
            sweep=FIGURE4_SWEEP, workers=1, ledger=False,
        )
        answer = first[(code, qseed)]
        same = answer["f1_exact"] == series.f1_exact and [
            (e["p"], e["mean"], e["lower"], e["upper"], e["tail"]) for e in answer["estimates"]
        ] == [(e.p, e.mean, e.lower, e.upper, e.tail) for e in series.estimates]
        ctx.gate(same, f"serve-mix {code} seed={qseed}: daemon != run_series")
    everything = latency["hit"] + latency["miss"]
    if not ctx.trace:
        ctx.notes.append(f"query latency: {describe(everything, 'ms', 1e3)}")
        ctx.notes.append(f"hit latency: {describe(latency['hit'], 'ms', 1e3)}")
        ctx.notes.append(f"miss latency: {describe(latency['miss'], 'ms', 1e3)}")
        ctx.notes.append(
            f"queries_per_s: {len(everything) / sum(everything):.4g} 1/s (closed loop, 1 client)"
        )
        ctx.notes.append(f"block wall time: {typical_block(by_kind, block):.4g} s typical; "
                         f"blocks {describe(blocks, 's')}")
        return {
            "setup_s": statistics.median(setup),
            "wall_ref": typical_block(cost_by_kind, block),
            "peak_rss_mb": rss,
        }
    # Overhead compares the expected latency of the 7:3 mix, so a traced
    # half that drew more hits than the plain half does not read as faster.
    share = SERVE_FRESH_PER_10 / 10
    for tracing, into in ((False, session.plain), (True, session.traced)):
        into.append(
            (1 - share) * statistics.median(split[tracing, False])
            + share * statistics.median(split[tracing, True])
        )
    traced_queries = len(split[True, False]) + len(split[True, True])
    server_s = sum(
        r["dur"] for r in session.spans() if r["name"].startswith("serve.")
    ) * block / traced_queries
    out = session.metrics(traced_queries / block, {}, interp_and_import(ctx))
    # Exact counts and daemon-side seconds of the first, plain block.
    out.update({name: value for name, value in counts.items() if name in out})
    out["serve.server_s"] = server_s
    return out


# -- cli-start -------------------------------------------------------------------


def cli_start(ctx: Context) -> dict:
    from repro.obs.summary import load_trace
    from repro.obs.trace import new_span_id

    sequence = [
        ([arg.format(seed=ctx.seed) for arg in argv], re.compile(pattern, re.M))
        for argv, pattern in CLI_SEQUENCE
    ]
    if ctx.smoke:
        sequence = sequence[:2]
    setup = []
    for attempt in range(SETUP_REPEATS + 1):
        store = ctx.work / f"store{attempt}"
        setup += time_children(
            ctx, [ctx.python, "-m", "repro", "synthesize", "steane"], 1,
            ctx.child_env(REPRO_STORE=store),
        )
    setup = setup[1:]
    env = ctx.child_env(REPRO_STORE=store)

    def invoke(argv, pattern, session: TraceSession | None) -> float:
        if session is None:
            t0 = time.perf_counter()
            proc = run_child(ctx, [ctx.python, "-m", "repro", *argv], env)
            elapsed = time.perf_counter() - t0
        else:
            trace_file = ctx.work / "cli-trace.jsonl"
            out_file = ctx.work / "cli-out.json"
            trace_file.unlink(missing_ok=True)
            span_id = new_span_id()
            start_wall = time.time()
            t0 = time.perf_counter()
            proc = run_child(
                ctx, [ctx.python, str(HERE / "child.py"), "cli", *argv],
                ctx.child_env(
                    REPRO_STORE=store, REPRO_TRACE=trace_file,
                    PERFBENCH_OUT=out_file, PERFBENCH_SPAWN_TS=start_wall,
                ),
            )
            elapsed = time.perf_counter() - t0
            tracer = session.tracer
            tracer.record(layers.ROOT_PREFIX + "cli", start_wall=start_wall,
                          duration=elapsed, span_id=span_id, cmd=argv[0])
            if proc.returncode == 0:
                child = json.loads(out_file.read_text())
                for name, key in (("cli.interp", "interp"), ("cli.import", "import"),
                                  ("obs.probe", "probe")):
                    begin, end = child[key]
                    tracer.record(name, start_wall=begin, duration=end - begin, parent=span_id)
                for record in load_trace(trace_file):
                    record["trace"] = tracer.trace_id
                    if record.get("parent") is None:
                        record["parent"] = span_id
                    tracer.emit(record)
                for name, value in child["metrics"].items():
                    session.child_metrics[name] = session.child_metrics.get(name, 0) + value
        ok = proc.returncode == 0 and pattern.search(proc.stdout) is not None
        ctx.gate(ok, f"cli-start {' '.join(argv)}: exit {proc.returncode}")
        return elapsed

    for argv, pattern in sequence:  # fill the store: every later call is warm
        invoke(argv, pattern, None)

    ops = [functools.partial(invoke, argv, pattern) for argv, pattern in sequence]
    if not ctx.trace:
        walls, seconds, costs = plain_passes(ctx, ops)
        ctx.notes.append(f"cli_wall_s: {typical_pass(seconds):.4g} s typical pass; "
                         f"passes {describe(walls, 's')}")
        ctx.notes.append(f"cli_p50_s: {describe(sum(seconds, []), 's')}")
        return {
            "setup_s": statistics.median(setup),
            "wall_ref": typical_pass(costs),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
    session = TraceSession()
    counts, passes = paired_passes(ctx, ops, session, lambda: session.child_metrics)
    return session.metrics(passes, counts, interp_and_import(ctx), session.child_metrics)


RUNNERS = {
    "synth-cold": synth_cold,
    "simulate": simulate,
    "serve-mix": serve_mix,
    "cli-start": cli_start,
}


# -- entry -----------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    def present(name: str) -> bool:
        import importlib.util

        return importlib.util.find_spec(name) is not None

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": present("numba"),
        "zstandard": present("zstandard"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, Context]:
    ctx = Context(seed, seconds, trace, smoke)
    try:
        values = RUNNERS[name](ctx)
    finally:
        ctx.close()
    units = layers.per_layer_units() if trace else E2E_UNITS
    metrics = {m: {"value": float(values[m]), "unit": units[m]} for m in units}
    return {
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }, ctx


def run_all(args) -> int:
    """Every workload, plain and traced, one child process each."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                raise BenchError(f"{name} --trace {trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            print(f"== {name} (--trace {trace})")
            for line in lines[:-1]:
                if not line.startswith("env: "):
                    print(f"   {line}")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:26s} {entry['value']:.6g} {entry['unit']}")
                total["metrics"][f"{name}:{metric}"] = entry
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def self_test(args) -> int:
    """Smoke-size runs must report every metric with its unit, and a
    protocol with one branch recovery flipped must fail the gate."""
    problems: list[str] = []
    checks = failed_checks = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = run_workload(name, args.seed, 0.5, trace, smoke=True)
            want = layers.per_layer_units() if trace else E2E_UNITS
            found = [
                f"{name} --trace {int(trace)}: {metric} missing or without unit"
                for metric, unit in want.items()
                if result["metrics"].get(metric, {}).get("unit") != unit
            ]
            if not result["correct"]:
                found.append(f"{name} --trace {int(trace)}: gate failed on good inputs")
            checks += 1
            failed_checks += bool(found)
            problems += found
            print(f"smoke {name} --trace {int(trace)}: {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)
    from repro.core.serialize import protocol_from_json

    os.environ["REPRO_STORE"] = os.environ["REPRO_LEDGER"] = "off"
    obj = json.loads((HERE / "protocols" / "steane.json").read_text())
    recovery = obj["layers"][0]["branches"][0]["recoveries"][-1]
    recovery["pauli"][recovery["pauli"].index(1)] = 0
    corrupted = protocol_from_json(json.dumps(obj))
    gates = simulate_checks("steane", corrupted, args.seed, 500, pinned()["c2_exact"]["steane"])
    print(f"corrupted steane: {gates or 'no gate failed'}")
    checks += 1
    if not gates:
        failed_checks += 1
        problems.append("a protocol with a flipped recovery passed the gate")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": checks,
                      "failed": failed_checks, "metrics": {}}))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env: " + json.dumps(environment()), flush=True)
    try:
        if args.self_test:
            return self_test(args)
        if args.workload == "all":
            return run_all(args)
        result, ctx = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in ctx.notes:
        print(note)
    for failure in ctx.failures:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
