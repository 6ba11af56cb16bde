"""Cluster workers seed their engine LRU from the artifact store.

A worker that restarts (new process, empty in-memory LRU) used to pay a
payload transfer plus a full compile for every known digest. With the
store enabled, the payload branch writes the compiled engine back under
the session digest, so the next worker process serves the same session
from disk — ``engine_source: "store"`` in the welcome frame — and the
results stay bit-identical to the payload path.
"""

from __future__ import annotations

import threading

import pytest

from repro.sim.cluster import ClusterEvaluator, ClusterWorker
from repro.sim.sampler import make_sampler

from ..conftest import cached_protocol


@pytest.fixture
def ambient_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    return tmp_path / "store"


@pytest.fixture
def spin_worker():
    started: list[ClusterWorker] = []

    def factory(**kwargs):
        worker = ClusterWorker("127.0.0.1", 0, **kwargs)
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        started.append(worker)
        return worker

    yield factory
    for worker in started:
        worker.stop()


def _run_session(engine, address, seed=42):
    host, port = address
    evaluator = ClusterEvaluator(engine, [f"{host}:{port}"], max_slab=256)
    merged = evaluator.reduce(evaluator.planner.plan_stratum(2, 1200, seed))
    info = evaluator._links[0].info
    evaluator.close()
    return merged, info


class TestDiskSeeding:
    def test_restarted_worker_serves_from_store(
        self, ambient_store, spin_worker
    ):
        engine = make_sampler(cached_protocol("steane"), store=False)

        first_worker = spin_worker()
        base, info = _run_session(engine, first_worker.address)
        assert info["engine_cached"] is False
        assert info["engine_source"] == "payload"

        # Same worker process, second session: in-memory LRU.
        again, info = _run_session(engine, first_worker.address)
        assert info["engine_cached"] is True
        assert info["engine_source"] == "memory"

        # Fresh worker process (empty LRU): the engine comes from the
        # disk write-back, no payload transfer happens, and the tallies
        # are bit-identical to the payload-path session.
        first_worker.stop()
        second_worker = spin_worker()
        seeded, info = _run_session(engine, second_worker.address)
        assert info["engine_cached"] is True
        assert info["engine_source"] == "store"
        assert (base.trials, base.failures) == (seeded.trials, seeded.failures)
        assert (base.trials, base.failures) == (again.trials, again.failures)

    def test_store_disabled_keeps_payload_path(
        self, monkeypatch, spin_worker
    ):
        monkeypatch.setenv("REPRO_STORE", "off")
        engine = make_sampler(cached_protocol("steane"), store=False)
        worker = spin_worker()
        _, info = _run_session(engine, worker.address)
        assert info["engine_source"] == "payload"
        worker.stop()
        fresh = spin_worker()
        _, info = _run_session(engine, fresh.address)
        assert info["engine_source"] == "payload"  # nothing on disk

    def test_corrupt_store_entry_falls_back_to_payload(
        self, ambient_store, spin_worker
    ):
        from repro.store import ArtifactStore

        engine = make_sampler(cached_protocol("steane"), store=False)
        worker = spin_worker()
        base, _ = _run_session(engine, worker.address)
        worker.stop()

        # The payload branch writes two engine entries: the make_sampler
        # content key and the session-digest write-back. Corrupt both.
        store = ArtifactStore(ambient_store)
        entries = [e for e in store.entries() if e.kind == "engine"]
        assert entries
        for entry in entries:
            entry.path.write_bytes(entry.path.read_bytes()[:-9])

        fresh = spin_worker()
        recovered, info = _run_session(engine, fresh.address)
        assert info["engine_source"] == "payload"  # quarantined -> transfer
        assert (base.trials, base.failures) == (
            recovered.trials,
            recovered.failures,
        )
