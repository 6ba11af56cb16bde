"""Unit tests for logical-failure determination."""

import numpy as np
import pytest

from repro.codes.catalog import steane_code
from repro.sim.frame import RunResult
from repro.sim.logical import LogicalJudge

from ..conftest import cached_protocol


def result_with(data_x, n=7):
    return RunResult(
        data_x=np.asarray(data_x, dtype=np.uint8),
        data_z=np.zeros(n, dtype=np.uint8),
        flips={},
    )


class TestLogicalJudge:
    def setup_method(self):
        self.code = steane_code()
        self.judge = LogicalJudge(self.code)

    def test_clean_run_no_failure(self):
        assert not self.judge.is_logical_failure(result_with([0] * 7))

    def test_single_x_errors_never_fail(self):
        """Perfect EC corrects any weight-1 residual (d = 3)."""
        for q in range(7):
            error = [0] * 7
            error[q] = 1
            assert not self.judge.is_logical_failure(result_with(error))

    def test_logical_x_fails(self):
        assert self.judge.is_logical_failure(
            result_with(self.code.logical_x[0])
        )

    def test_stabilizer_never_fails(self):
        for row in self.code.hx:
            assert not self.judge.is_logical_failure(result_with(row))

    def test_z_residual_invisible(self):
        """Z errors cannot flip a Z-basis readout of a Z eigenstate."""
        result = RunResult(
            data_x=np.zeros(7, dtype=np.uint8),
            data_z=np.ones(7, dtype=np.uint8),
            flips={},
        )
        assert not self.judge.is_logical_failure(result)

    def test_some_weight_two_error_fails(self):
        failures = 0
        for q1 in range(7):
            for q2 in range(q1 + 1, 7):
                error = [0] * 7
                error[q1] = error[q2] = 1
                if self.judge.is_logical_failure(result_with(error)):
                    failures += 1
        assert failures > 0

    def test_logical_plus_stabilizer_still_fails(self):
        error = self.code.logical_x[0] ^ self.code.hx[0]
        assert self.judge.is_logical_failure(result_with(error))


class TestJudgeOnProtocols:
    @pytest.mark.parametrize("key", ["steane", "shor", "surface_3", "carbon"])
    def test_every_single_fault_judged_harmless(self, key):
        """End-to-end restatement of fault tolerance: protocol + perfect EC
        + destructive readout never fails under one fault."""
        from repro.core.ftcheck import enumerate_checkable_injections
        from repro.sim.frame import ProtocolRunner

        protocol = cached_protocol(key)
        runner = ProtocolRunner(protocol)
        judge = LogicalJudge(protocol.code)
        for location, injection in enumerate_checkable_injections(protocol):
            result = runner.run({location: injection})
            assert not judge.is_logical_failure(result), (
                f"single fault at {location} caused a logical failure"
            )


class TestPackedJudge:
    """``failure_mask`` on packed ``(n, words)`` planes against the
    per-shot judge, for the lookup and the matching decoder."""

    SHOT_COUNTS = [0, 1, 63, 64, 65, 130, 777]

    @staticmethod
    def judges():
        from repro.codes.catalog import get_code

        for key in ["steane", "shor", "surface_3", "carbon", "16_2_4"]:
            yield key, LogicalJudge(get_code(key))
        for key in ["shor", "surface_3"]:
            yield f"{key}+matching", LogicalJudge.with_matching(get_code(key))

    def test_packed_matches_per_shot(self):
        from repro.sim.bitplane import pack_shots

        rng = np.random.default_rng(5)
        for name, judge in self.judges():
            n = judge.code.n
            for shots in self.SHOT_COUNTS:
                # Sparse and dense residuals: many syndromes, both verdicts.
                density = rng.choice([0.1, 0.5])
                data = (rng.random((shots, n)) < density).astype(np.uint8)
                expected = np.array(
                    [judge.is_logical_failure(result_with(row, n)) for row in data],
                    dtype=bool,
                )
                packed = judge.failure_mask(pack_shots(data), shots)
                unpacked = judge.failure_mask(data)
                assert packed.dtype == bool and packed.shape == (shots,), name
                np.testing.assert_array_equal(packed, expected, err_msg=name)
                np.testing.assert_array_equal(unpacked, expected, err_msg=name)

    def test_empty_batch_both_forms(self):
        judge = LogicalJudge(steane_code())
        assert judge.failure_mask(np.zeros((0, 7), dtype=np.uint8)).size == 0
        assert judge.failure_mask(np.zeros((7, 0), dtype=np.uint64), 0).size == 0

    def test_each_syndrome_decoded_once_per_judge(self):
        judge = LogicalJudge(steane_code())
        calls = []
        decode = judge.x_decoder.decode
        judge.x_decoder.decode = lambda s: calls.append(bytes(s)) or decode(s)
        data = (np.random.default_rng(1).random((500, 7)) < 0.3).astype(np.uint8)
        first = judge.failure_mask(data)
        assert len(calls) == len(set(calls)) == 8  # every steane syndrome
        np.testing.assert_array_equal(judge.failure_mask(data), first)
        assert len(calls) == 8

    def test_judge_shared_across_threads(self):
        """Threads filling one judge's syndrome memo concurrently (a
        daemon's compute threads share engines) get the verdicts a
        private judge gives."""
        import sys
        import threading

        from repro.codes.catalog import get_code

        code = get_code("16_2_4")
        rng = np.random.default_rng(9)
        batches = [
            (rng.random((300, code.n)) < 0.2).astype(np.uint8) for _ in range(8)
        ]
        expected = [LogicalJudge(code).failure_mask(b) for b in batches]
        shared = LogicalJudge(code)
        got = [None] * len(batches)

        def work(i):
            got[i] = shared.failure_mask(batches[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(len(batches))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(have, want)
