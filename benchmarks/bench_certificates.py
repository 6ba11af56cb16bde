"""Benchmark: batched vs per-shot certificate and error-budget paths.

Times ``check_fault_tolerance`` (the Definition-1 enumeration) and
``two_fault_error_budget`` (the exact quadratic coefficient) on both
engines for the same protocol, asserting identical output — the whole
point of routing every fault-set consumer through the batched substrate.

Pytest mode (timings via pytest-benchmark)::

    PYTHONPATH=src python -m pytest benchmarks/bench_certificates.py --benchmark-only

Recorder mode (writes ``BENCH_certificates.json``, enforces the >= 10x
floor the ISSUE-2 acceptance demands)::

    PYTHONPATH=src python -m benchmarks.bench_certificates [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.core.analysis import two_fault_error_budget
from repro.core.errors import error_reducer
from repro.core.ftcheck import _checkable_strata, check_fault_tolerance
from repro.sim.sampler import make_sampler

from .conftest import bench_protocol


@pytest.mark.parametrize("engine", ["batched", "reference"])
@pytest.mark.parametrize("code_key", ["steane", "surface_3"])
def test_ftcheck(benchmark, code_key, engine):
    protocol = bench_protocol(code_key)
    result = benchmark(check_fault_tolerance, protocol, engine=engine)
    assert result == []


@pytest.mark.parametrize("engine", ["batched", "reference"])
@pytest.mark.parametrize("code_key", ["steane"])
def test_budget(benchmark, code_key, engine):
    protocol = bench_protocol(code_key)
    budget = benchmark.pedantic(
        two_fault_error_budget,
        args=(protocol,),
        kwargs={"engine": engine},
        rounds=1,
        iterations=1,
    )
    assert budget.f2_exact > 0


# -- recorder mode -------------------------------------------------------------


def _time_certificate(
    protocol, engine: str, repeats: int, inner: int = 1
) -> float:
    """Best-of-N timing of the certificate evaluation core (warmed).

    ``inner`` amortizes each timed sample over several back-to-back calls
    — the batched path runs in well under a millisecond, so single-call
    samples would be at the mercy of scheduler jitter on shared CI
    runners (the 10x floor below needs stable numbers, not lucky ones).
    """
    sampler = make_sampler(protocol, engine=engine)
    x_reducer = error_reducer(protocol.code, "X")
    z_reducer = error_reducer(protocol.code, "Z")
    _, loc_idx, draw_idx = _checkable_strata(sampler.locations)
    sampler.residual_weights_indexed(loc_idx, draw_idx, x_reducer, z_reducer)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            sampler.residual_weights_indexed(
                loc_idx, draw_idx, x_reducer, z_reducer
            )
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def run_recorder(code_key: str, repeats: int) -> dict:
    from repro.codes.catalog import get_code
    from repro.core.protocol import synthesize_protocol

    protocol = synthesize_protocol(get_code(code_key))

    verdicts = {
        engine: check_fault_tolerance(protocol, engine=engine)
        for engine in ("batched", "reference")
    }
    ftcheck_identical = verdicts["batched"] == verdicts["reference"]

    ftcheck_batched = _time_certificate(protocol, "batched", repeats, inner=10)
    ftcheck_reference = _time_certificate(
        protocol, "reference", max(3, repeats // 5)
    )

    start = time.perf_counter()
    budget_batched_result = two_fault_error_budget(protocol, engine="batched")
    budget_batched = time.perf_counter() - start
    start = time.perf_counter()
    budget_reference_result = two_fault_error_budget(
        protocol, engine="reference"
    )
    budget_reference = time.perf_counter() - start
    budget_identical = budget_batched_result == budget_reference_result

    return {
        "benchmark": "certificates_smoke",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "code": code_key,
        "checkable_faults": len(
            _checkable_strata(make_sampler(protocol).locations)[0]
        ),
        "locations": len(make_sampler(protocol).locations),
        "ftcheck_batched_seconds": round(ftcheck_batched, 6),
        "ftcheck_reference_seconds": round(ftcheck_reference, 6),
        "ftcheck_speedup": round(ftcheck_reference / ftcheck_batched, 1),
        "ftcheck_verdicts_identical": ftcheck_identical,
        "budget_batched_seconds": round(budget_batched, 4),
        "budget_reference_seconds": round(budget_reference, 4),
        "budget_speedup": round(budget_reference / budget_batched, 1),
        "budget_masses_identical": budget_identical,
        "f2_exact": budget_batched_result.f2_exact,
        "c2_exact": round(budget_batched_result.c2_exact, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", default="steane")
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_certificates.json",
    )
    args = parser.parse_args()

    record = run_recorder(args.code, args.repeats)
    print(json.dumps(record, indent=2))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not (
        record["ftcheck_verdicts_identical"]
        and record["budget_masses_identical"]
    ):
        print("FAIL: engines disagree")
        return 1
    floor = 10.0
    if record["ftcheck_speedup"] < floor or record["budget_speedup"] < floor:
        print(
            f"FAIL: speedup below the {floor}x floor "
            f"(ftcheck {record['ftcheck_speedup']}x, "
            f"budget {record['budget_speedup']}x)"
        )
        return 1
    print(
        f"OK: ftcheck {record['ftcheck_speedup']}x, "
        f"budget {record['budget_speedup']}x, outputs identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
