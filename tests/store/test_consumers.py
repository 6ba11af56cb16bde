"""Store integration across the pipeline consumers.

The store's core contract is *latency only, never results*: every
consumer must return bit-identical output with the store cold, warm,
and disabled. These tests also prove the warm paths are actually served
from disk (by planting sentinels under the expected keys) and pin the
truncation semantics of cached certificates and the replay semantics of
SAT transcripts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.catalog import get_code
from repro.core.analysis import two_fault_error_budget
from repro.core.ftcheck import check_fault_tolerance
from repro.core.protocol import synthesize_protocol
from repro.core.serialize import protocol_to_json
from repro.sat.cache import CachedSolver
from repro.sat.cnf import CNF
from repro.sim.sampler import BatchedSampler, make_sampler
from repro.store import ArtifactStore, keys


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh ambient store every consumer in the test resolves."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    return ArtifactStore(tmp_path / "store")


class TestSynthesisCache:
    def test_warm_synthesis_served_from_store(self, store):
        code = get_code("steane")
        cold = synthesize_protocol(code)
        key = keys.protocol_key(
            code,
            prep_method="heuristic",
            verification_method="optimal",
            max_correction_measurements=4,
        )
        assert store.get_text("protocol", key) == protocol_to_json(cold)
        # Plant a sentinel under the key: a warm call must return it,
        # proving the store (not a re-synthesis) produced the result.
        sentinel = synthesize_protocol(get_code("shor"), store=False)
        store.put_text("protocol", key, protocol_to_json(sentinel))
        served = synthesize_protocol(code)
        assert served.code.name == "Shor"

    def test_unloadable_entry_recomputed(self, store):
        code = get_code("steane")
        cold = synthesize_protocol(code)
        key = keys.protocol_key(
            code,
            prep_method="heuristic",
            verification_method="optimal",
            max_correction_measurements=4,
        )
        store.put_text("protocol", key, "{\"not\": \"a protocol\"}")
        recovered = synthesize_protocol(code)
        assert protocol_to_json(recovered) == protocol_to_json(cold)

    def test_store_on_off_bit_identical(self, store):
        on = synthesize_protocol(get_code("steane"))
        off = synthesize_protocol(get_code("steane"), store=False)
        assert protocol_to_json(on) == protocol_to_json(off)

    def test_plus_protocol_forwards_store(self, store):
        from repro.synth.plus import synthesize_plus_protocol

        synthesize_plus_protocol(get_code("steane"))
        kinds = {entry.kind for entry in store.entries()}
        assert "protocol" in kinds


class TestEngineCache:
    def test_warm_engine_served_from_store(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        first = make_sampler(protocol)
        assert isinstance(first, BatchedSampler)
        key = keys.engine_key(protocol, "batched", None)
        # Plant a recognizable engine under the key: a warm call must
        # return the planted object, proving it came from disk.
        sentinel = make_sampler(
            synthesize_protocol(get_code("shor"), store=False), store=False
        )
        store.put_object("engine", key, sentinel)
        served = make_sampler(protocol)
        assert served.protocol.code.name == "Shor"

    def test_reference_engine_never_cached(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        make_sampler(protocol, engine="reference")
        assert not [e for e in store.entries() if e.kind == "engine"]

    def test_corrupt_engine_entry_recompiled(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        make_sampler(protocol)
        (entry,) = [e for e in store.entries() if e.kind == "engine"]
        entry.path.write_bytes(entry.path.read_bytes()[:-7])
        rebuilt = make_sampler(protocol)
        assert isinstance(rebuilt, BatchedSampler)
        assert rebuilt.protocol.code.name == "Steane"

    def test_old_layout_engine_under_old_key_is_a_miss(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        # The key scheme before ENGINE_REVISION, and an engine shaped
        # like that layout: no signature table, no segment CSR.
        old_key = keys._json_key(
            {
                "artifact": "engine",
                "protocol": keys.protocol_digest(protocol),
                "engine": "batched",
                "judge": "none",
            }
        )
        assert keys.engine_key(protocol, "batched", None) != old_key
        stale = make_sampler(protocol, store=False)
        del stale.compiled.unit_ptr, stale.compiled.unit_cols
        for segment in stale.compiled.segments.values():
            del segment.indptr, segment.indices, segment.images
        store.put_object("engine", old_key, stale)
        served = make_sampler(protocol)
        assert served is not stale
        assert hasattr(served.compiled, "unit_ptr")
        loc_idx = np.zeros((3, 1), dtype=np.intp)
        assert served.failures_indexed(loc_idx, loc_idx).shape == (3,)
        kinds = [e.key for e in store.entries() if e.kind == "engine"]
        assert keys.engine_key(protocol, "batched", None) in kinds


class TestCertificateCache:
    def test_certificate_cached_and_bit_identical(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        cold = check_fault_tolerance(protocol)
        key = keys.ftcert_key(keys.protocol_digest(protocol), None)
        cached = store.get_object("ftcert", key)
        assert cached == {"max_violations": 10, "violations": cold}
        assert check_fault_tolerance(protocol) == cold
        assert check_fault_tolerance(protocol, store=False) == cold

    def test_complete_certificate_serves_any_cap(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        key = keys.ftcert_key(keys.protocol_digest(protocol), None)
        # A complete enumeration (fewer violations than its cap) with
        # sentinel contents: any requested cap slices it, no recompute.
        store.put_object(
            "ftcert",
            key,
            {"max_violations": 5, "violations": ["v1", "v2", "v3"]},
        )
        assert check_fault_tolerance(protocol, max_violations=10) == [
            "v1",
            "v2",
            "v3",
        ]
        assert check_fault_tolerance(protocol, max_violations=2) == [
            "v1",
            "v2",
        ]

    def test_truncated_certificate_recomputed_for_higher_cap(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        key = keys.ftcert_key(keys.protocol_digest(protocol), None)
        # A truncated record (len == cap) only covers caps <= 2.
        store.put_object(
            "ftcert",
            key,
            {"max_violations": 2, "violations": ["v1", "v2"]},
        )
        assert check_fault_tolerance(protocol, max_violations=1) == ["v1"]
        # A higher cap cannot be served from the truncated record: the
        # real enumeration runs (steane is FT, so it finds nothing) and
        # overwrites the sentinel.
        assert check_fault_tolerance(protocol, max_violations=5) == []
        assert store.get_object("ftcert", key)["violations"] == []

    def test_model_changes_the_key(self, store):
        from repro.sim.noisemodels import BiasedPauliModel

        protocol = synthesize_protocol(get_code("steane"))
        digest = keys.protocol_digest(protocol)
        model = BiasedPauliModel(p=1e-3, eta=10.0)
        assert keys.ftcert_key(digest, None) != keys.ftcert_key(digest, model)


class TestBudgetCache:
    def test_budget_cached_and_bit_identical(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        cold = two_fault_error_budget(protocol)
        key = keys.budget_key(keys.protocol_digest(protocol), None)
        assert store.get_object("budget", key) == cold
        assert two_fault_error_budget(protocol) == cold
        assert two_fault_error_budget(protocol, store=False) == cold

    def test_max_runs_guard_raises_identically_on_hit(self, store):
        protocol = synthesize_protocol(get_code("steane"))
        two_fault_error_budget(protocol)  # populate the cache
        with pytest.raises(ValueError, match="two-fault budget needs"):
            two_fault_error_budget(protocol, max_runs=10)
        with pytest.raises(ValueError, match="two-fault budget needs"):
            two_fault_error_budget(protocol, max_runs=10, store=False)


class TestCachedSolver:
    def _tiny_cnf(self):
        cnf = CNF()
        x, y = cnf.new_var(), cnf.new_var()
        cnf.add_clause([x, y])
        cnf.add_clause([-x, y])
        return cnf, x, y

    def test_disabled_store_is_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        cnf, x, _ = self._tiny_cnf()
        solver = CachedSolver(cnf)
        assert solver._solver is not None  # real solver, no transcript
        assert solver.solve().sat is True

    def test_transcript_recorded_then_replayed(self, store):
        cnf, x, y = self._tiny_cnf()
        first = CachedSolver(cnf, store=store)
        results = [first.solve(), first.solve([-x]), first.solve([-y])]

        second = CachedSolver(cnf, store=store)
        replayed = [second.solve(), second.solve([-x]), second.solve([-y])]
        assert second._solver is None  # pure replay: no solver was built
        for a, b in zip(results, replayed):
            assert (a.sat, a.model) == (b.sat, b.model)
            assert (a.conflicts, a.decisions, a.propagations) == (
                b.conflicts,
                b.decisions,
                b.propagations,
            )

    def test_exhausted_transcript_continues_live(self, store):
        cnf, x, y = self._tiny_cnf()
        first = CachedSolver(cnf, store=store)
        first.solve()

        baseline = CachedSolver(cnf, store=False)
        expected = [baseline.solve(), baseline.solve([-x])]

        second = CachedSolver(cnf, store=store)
        got = [second.solve(), second.solve([-x])]
        assert second._solver is not None  # materialized on exhaustion
        for a, b in zip(expected, got):
            assert (a.sat, a.model, a.conflicts) == (b.sat, b.model, b.conflicts)

        # The extended transcript was written back: a third run replays
        # both calls without building a solver.
        third = CachedSolver(cnf, store=store)
        third.solve()
        third.solve([-x])
        assert third._solver is None

    def test_diverging_sequence_truncates_and_continues(self, store):
        cnf, x, y = self._tiny_cnf()
        first = CachedSolver(cnf, store=store)
        first.solve()
        first.solve([-x])

        baseline = CachedSolver(cnf, store=False)
        expected = [baseline.solve(), baseline.solve([-y])]

        second = CachedSolver(cnf, store=store)
        got = [second.solve(), second.solve([-y])]  # diverges at call 2
        assert second._solver is not None
        for a, b in zip(expected, got):
            assert (a.sat, a.model, a.conflicts) == (b.sat, b.model, b.conflicts)

    def test_transcript_key_carries_the_search_revision(self, store):
        """A transcript recorded under an older search (keyed by the bare
        CNF digest, as before the revision was folded in) is never
        replayed."""
        from repro.sat.cache import _pack, transcript_key
        from repro.sat.solver import SolveResult
        from repro.store.keys import cnf_digest

        cnf, x, y = self._tiny_cnf()
        assert transcript_key(cnf) != cnf_digest(cnf)
        # A forged old-search record that contradicts the formula.
        bogus = _pack((), SolveResult(False, None, 0, 0, 0))
        store.put_object("sat", cnf_digest(cnf), [bogus])
        solver = CachedSolver(cnf, store=store)
        assert solver.solve().sat is True
        assert solver._solver is not None  # solved live, nothing replayed
        assert len(store.get_object("sat", transcript_key(cnf))) == 1

    def test_synthesis_identical_with_and_without_transcripts(self, store):
        """End-to-end: a store-served synthesis (second call replays the
        SAT transcripts) produces byte-identical protocol JSON."""
        code = get_code("surface_3")
        on_cold = synthesize_protocol(code)
        # Drop the cached protocol but keep the SAT transcripts, so the
        # second synthesis re-runs the pipeline over transcript replay.
        for entry in store.entries():
            if entry.kind == "protocol":
                entry.path.unlink()
        on_warm = synthesize_protocol(code)
        off = synthesize_protocol(code, store=False)
        assert (
            protocol_to_json(on_cold)
            == protocol_to_json(on_warm)
            == protocol_to_json(off)
        )


class TestSimulationIdentity:
    def test_curve_identical_store_on_off(self, store):
        """The figure4 pipeline (subset sampling) is bit-identical with
        the store serving the protocol and engine versus fully disabled."""
        import numpy as np

        from repro.sim.subset import SubsetSampler

        def run(store_arg):
            protocol = synthesize_protocol(get_code("steane"), store=store_arg)
            with SubsetSampler.for_protocol(
                protocol,
                k_max=2,
                rng=np.random.default_rng(7),
                store=store_arg,
            ) as sampler:
                sampler.enumerate_k1_exact()
                sampler.sample(400)
                return [
                    (e.p, e.mean, e.lower, e.upper)
                    for e in sampler.curve([1e-3, 1e-2])
                ]

        cold = run(None)  # populates the ambient store
        warm = run(None)  # serves protocol + engine from it
        off = run(False)
        assert cold == warm == off
