"""Unit tests for the lookup-table decoder (perfect EC round)."""

import itertools

import numpy as np
import pytest

from repro.codes.catalog import get_code, steane_code
from repro.sim.decoder import LookupDecoder


class TestSteaneDecoder:
    def setup_method(self):
        self.code = steane_code()
        self.decoder = LookupDecoder(self.code.hz)

    def test_zero_syndrome_zero_correction(self):
        zero = np.zeros(3, dtype=np.uint8)
        assert not self.decoder.decode(zero).any()

    def test_single_errors_decoded_exactly(self):
        """d=3: every single-qubit error is corrected perfectly."""
        for q in range(7):
            error = np.zeros(7, dtype=np.uint8)
            error[q] = 1
            residual = self.decoder.correct(error)
            assert not residual.any()

    def test_syndrome_computation(self):
        error = np.zeros(7, dtype=np.uint8)
        error[0] = 1
        syndrome = self.decoder.syndrome(error)
        assert (syndrome == self.code.hz @ error % 2).all()

    def test_all_syndromes_decodable(self):
        for value in range(8):
            syndrome = np.array(
                [(value >> j) & 1 for j in range(3)], dtype=np.uint8
            )
            correction = self.decoder.decode(syndrome)
            assert (self.decoder.syndrome(correction) == syndrome).all()

    def test_decoded_errors_minimum_weight(self):
        """Lookup entries are min-weight representatives per syndrome."""
        for value in range(1, 8):
            syndrome = np.array(
                [(value >> j) & 1 for j in range(3)], dtype=np.uint8
            )
            entry = self.decoder.decode(syndrome)
            weight = int(entry.sum())
            # Brute force the true minimum.
            best = 7
            for pattern in range(1, 2**7):
                vec = np.array(
                    [(pattern >> j) & 1 for j in range(7)], dtype=np.uint8
                )
                if (self.decoder.syndrome(vec) == syndrome).all():
                    best = min(best, int(vec.sum()))
            assert weight == best

    def test_correct_returns_residual_in_kernel(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            error = rng.integers(0, 2, size=7, dtype=np.uint8)
            residual = self.decoder.correct(error)
            assert not (self.code.hz @ residual % 2).any()

    def test_weight_two_error_misdecodes_to_logical(self):
        """d=3 lookup decoding: some weight-2 error must leave a logical
        residual — this is exactly why two faults cause logical errors."""
        hit_logical = False
        for q1 in range(7):
            for q2 in range(q1 + 1, 7):
                error = np.zeros(7, dtype=np.uint8)
                error[[q1, q2]] = 1
                residual = self.decoder.correct(error)
                if (self.code.logical_z @ residual % 2).any():
                    hit_logical = True
        assert hit_logical


class TestGeneralDecoders:
    @pytest.mark.parametrize("key", ["shor", "surface_3", "carbon"])
    def test_single_error_correction(self, key):
        code = get_code(key)
        decoder = LookupDecoder(code.hz)
        logical = code.logical_z
        for q in range(code.n):
            error = np.zeros(code.n, dtype=np.uint8)
            error[q] = 1
            residual = decoder.correct(error)
            # Residual must be stabilizer-or-identity (no logical part):
            assert not (logical @ residual % 2).any()

    def test_shapes(self):
        code = steane_code()
        decoder = LookupDecoder(code.hz)
        assert decoder.m == 3
        assert decoder.n == 7

    def test_unreachable_syndrome_raises(self):
        # Checks with a dependent row: syndrome (1,1) unreachable when both
        # rows are identical.
        decoder = LookupDecoder([[1, 1, 0], [1, 1, 0]])
        with pytest.raises(ValueError):
            decoder.decode(np.array([1, 0], dtype=np.uint8))


def _breadth_first_table(checks):
    """The lookup table as every decoder built it for itself: first
    minimum-weight error per syndrome, weights in increasing order."""
    m, n = checks.shape
    table = {}
    for weight in range(n + 1):
        for support in itertools.combinations(range(n), weight):
            error = np.zeros(n, dtype=np.uint8)
            error[list(support)] = 1
            table.setdefault((checks @ error % 2).astype(np.uint8).tobytes(), error)
    return table


class TestSharedTables:
    @pytest.mark.parametrize("key", ["steane", "shor", "carbon", "16_2_4"])
    def test_decode_results_unchanged(self, key):
        checks = get_code(key).hz
        decoder = LookupDecoder(checks)
        expected = _breadth_first_table(decoder.checks)
        assert list(decoder._table) == list(expected)
        for syndrome, error in expected.items():
            decoded = decoder.decode(np.frombuffer(syndrome, dtype=np.uint8))
            np.testing.assert_array_equal(decoded, error)
            decoded[:] ^= 1  # callers get a copy, never the shared entry
        np.testing.assert_array_equal(
            decoder.decode(np.zeros(checks.shape[0], dtype=np.uint8)),
            np.zeros(checks.shape[1], dtype=np.uint8),
        )

    def test_two_judges_of_one_code_share_one_build(self):
        from repro.sim import decoder as decoder_module
        from repro.sim.logical import LogicalJudge

        code = get_code("carbon")
        decoder_module._lookup_table.cache_clear()
        first = LogicalJudge(code)
        second = LogicalJudge(code)
        assert first.x_decoder._table is second.x_decoder._table
        assert decoder_module._lookup_table.cache_info().misses == 1
