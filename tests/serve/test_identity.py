"""Bit-identity gates: the daemon is an optimization, never a fork.

Every answer the daemon gives must be byte-for-byte the answer the cold
code paths give — for all four compute ops, and regardless of backend:

* ``sweep`` — daemon response == cold ``run_series`` (the figure4/CLI
  core) == ledger replay, down to every float;
* daemon and CLI *share* ledger entries: a record the daemon computed
  satisfies ``run_series`` without building an engine, and vice versa;
* ``ftcheck`` / ``budget`` / ``direct`` — daemon records equal the
  library calls they wrap;
* ``--cluster`` backend — a daemon dispatching chunks to TCP workers,
  one of which is killed mid-run, still returns the identical payload;
* the ``repro query`` CLI client round-trips the daemon's floats
  exactly (JSON float serialization is repr-based).
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.sim.sampler as sampler_mod
from repro.experiments.figure4 import run_series
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.sim.cluster import ClusterExecutorFactory, ClusterWorker
from repro.sim.noise import E1_1
from repro.sim.sampler import make_sampler
from repro.sim.subset import direct_mc
from repro.store import keys as store_keys

from ..conftest import cached_protocol

SHOTS, K_MAX, SEED = 1200, 2, 11
GRID = [1e-4, 1e-3, 1e-2, 1e-1]


def _prewarm(server):
    protocol = cached_protocol("steane")
    server._protocols[("steane", "heuristic", "optimal")] = (
        protocol,
        store_keys.protocol_digest(protocol),
    )
    return server


@pytest.fixture
def server(tmp_path):
    instance = _prewarm(ReproServer("127.0.0.1", 0, ledger=tmp_path / "ledger"))
    instance.start_background()
    yield instance
    instance.stop()


def _daemon_sweep(server, **overrides):
    params = dict(shots=SHOTS, k_max=K_MAX, seed=SEED, sweep=GRID)
    params.update(overrides)
    with ServeClient(server.host, server.port, timeout=300.0) as client:
        return client.sweep("steane", **params)


def _cold_series(ledger=False, **overrides):
    kwargs = dict(
        protocol=cached_protocol("steane"),
        shots=SHOTS,
        k_max=K_MAX,
        seed=SEED,
        sweep=GRID,
        workers=1,  # the daemon always runs the sharded scheme
        ledger=ledger,
    )
    kwargs.update(overrides)
    return run_series("steane", **kwargs)


def assert_sweep_matches_series(line, series):
    """Daemon wire payload == Figure4Series, every float bit-equal."""
    result = line["result"]
    assert result["f1_exact"] == series.f1_exact
    assert len(result["estimates"]) == len(series.estimates)
    for wire, est in zip(result["estimates"], series.estimates):
        assert (
            wire["p"],
            wire["mean"],
            wire["lower"],
            wire["upper"],
            wire["tail"],
        ) == (est.p, est.mean, est.lower, est.upper, est.tail)


class TestSweepIdentity:
    def test_daemon_equals_cold_library_equals_replay(self, server):
        cold = _cold_series(ledger=False)
        computed = _daemon_sweep(server)
        assert computed["source"] == "computed"
        assert_sweep_matches_series(computed, cold)
        replayed = _daemon_sweep(server)
        assert replayed["source"] == "ledger"
        assert replayed["result"] == computed["result"]

    def test_daemon_record_satisfies_run_series(self, server, monkeypatch):
        """Cross-entry-point dedup, daemon -> CLI: the daemon's record is
        a full ledger hit for ``run_series`` (zero engine builds)."""
        _daemon_sweep(server)
        monkeypatch.setattr(
            sampler_mod,
            "make_sampler",
            lambda *a, **k: pytest.fail("daemon record missed in run_series"),
        )
        series = _cold_series(ledger=server.ledger)
        assert_sweep_matches_series(_daemon_sweep(server), series)

    def test_run_series_record_satisfies_daemon(self, tmp_path):
        """Cross-entry-point dedup, CLI -> daemon: a record written by
        ``run_series`` makes the daemon answer without computing."""
        root = tmp_path / "shared-ledger"
        cold = _cold_series(ledger=root)
        server = _prewarm(ReproServer("127.0.0.1", 0, ledger=root))
        server.start_background()
        try:
            line = _daemon_sweep(server)
            assert line["source"] == "ledger"
            assert server.stats.computes == 0
            assert_sweep_matches_series(line, cold)
        finally:
            server.stop()

    def test_direct_check_identity(self, server):
        cold = _cold_series(
            ledger=False, direct_check_at=1e-2, direct_shots=500
        )
        line = _daemon_sweep(server, direct_check_at=1e-2, direct_shots=500)
        d = line["result"]["direct"]
        assert (d["p"], d["trials"], d["failures"]) == (
            cold.direct.p,
            cold.direct.trials,
            cold.direct.failures,
        )


class TestOtherOpsIdentity:
    def test_ftcheck_identity(self, server):
        from repro.core.ftcheck import check_fault_tolerance

        violations = check_fault_tolerance(cached_protocol("steane"))
        with ServeClient(server.host, server.port, timeout=300.0) as client:
            line = client.ftcheck("steane")
        result = line["result"]
        assert result["fault_tolerant"] == (not violations)
        assert [v["rendered"] for v in result["violations"]] == [
            str(v) for v in violations
        ]

    def test_budget_identity(self, server):
        from repro.core.analysis import two_fault_error_budget

        budget = two_fault_error_budget(cached_protocol("steane"))
        with ServeClient(server.host, server.port, timeout=300.0) as client:
            line = client.budget("steane")
        result = line["result"]
        assert result["f2_exact"] == budget.f2_exact
        assert result["c2_exact"] == budget.c2_exact
        assert result["segment_pairs"] == [
            [a, b, m] for (a, b), m in sorted(budget.by_segment_pair.items())
        ]

    def test_direct_identity(self, server):
        engine = make_sampler(cached_protocol("steane"))
        cold = direct_mc(
            engine,
            E1_1(p=1e-3),
            600,
            rng=np.random.default_rng(SEED),
            workers=1,  # the daemon's sharded draw scheme
        )
        with ServeClient(server.host, server.port, timeout=300.0) as client:
            line = client.direct("steane", 1e-3, shots=600, seed=SEED)
        result = line["result"]
        assert (result["p"], result["trials"], result["failures"]) == (
            cold.p,
            cold.trials,
            cold.failures,
        )


class TestClusterBackend:
    def test_cluster_daemon_with_worker_kill_is_bit_identical(self, tmp_path):
        """A daemon whose chunk backend is two TCP workers — one rigged
        to crash after 2 chunks with its in-flight chunk unacknowledged —
        returns the byte-identical sweep payload the inline daemon does."""
        baseline = _cold_series(ledger=False)
        survivor = ClusterWorker("127.0.0.1", 0)
        dying = ClusterWorker("127.0.0.1", 0, max_chunks=2)
        for worker in (survivor, dying):
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        server = _prewarm(
            ReproServer(
                "127.0.0.1",
                0,
                ledger=tmp_path / "ledger",
                executor=ClusterExecutorFactory(
                    [f"127.0.0.1:{dying.port}", f"127.0.0.1:{survivor.port}"],
                    connect_timeout=10.0,
                ),
            )
        )
        server.start_background()
        try:
            line = _daemon_sweep(server)
            assert line["source"] == "computed"
            assert_sweep_matches_series(line, baseline)
            # Same plan, same key: the cluster-computed record is a full
            # hit for a later inline daemon over the same ledger.
            inline = _prewarm(
                ReproServer("127.0.0.1", 0, ledger=server.ledger.root)
            )
            inline.start_background()
            try:
                warm = _daemon_sweep(inline)
                assert warm["source"] == "ledger"
                assert warm["result"] == line["result"]
            finally:
                inline.stop()
        finally:
            server.stop()
            for worker in (survivor, dying):
                worker.stop()


class TestQueryCliIdentity:
    def test_repro_query_json_round_trips_floats(self, server):
        """The subprocess CLI client reports the daemon's numbers exactly
        (cold CLI == daemon == library, end to end)."""
        cold = _cold_series(ledger=False)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "query",
                "--connect",
                f"{server.host}:{server.port}",
                "--json",
                "sweep",
                "steane",
                "--shots",
                str(SHOTS),
                "--k-max",
                str(K_MAX),
                "--seed",
                str(SEED),
                "--p",
                *[repr(p) for p in GRID],
            ],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                "REPRO_STORE": "off",
                "REPRO_LEDGER": "off",
                "PYTHONPATH": os.pathsep.join(
                    filter(
                        None,
                        [
                            str(
                                __import__("pathlib").Path(
                                    sampler_mod.__file__
                                ).parents[2]
                            ),
                            os.environ.get("PYTHONPATH"),
                        ],
                    )
                ),
            },
        )
        line = json.loads(result.stdout)
        assert_sweep_matches_series(line, cold)
