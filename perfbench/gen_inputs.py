"""Regenerate the benchmark's pinned inputs and expected values.

* ``protocols/<code>.json`` — the protocol the ``simulate`` workload
  loads for each Fig. 4 code, synthesized with the ``run_series``
  defaults (heuristic prep, optimal verification) and written with
  ``dump_protocol``. Synthesis is deterministic and takes no seed; a file
  that exists is kept, because tesseract alone takes minutes of SAT.
* ``pinned.json`` — the Table-I metrics of every ``TABLE1_FAST_ROWS``
  row (``protocol_metrics(...).as_row()``) and the exact two-fault
  coefficient ``c2`` of every pinned protocol, which the correctness
  gates compare against. Neither depends on a random stream.

Usage, from the repository root, with the store off::

    PYTHONPATH=src python3 perfbench/gen_inputs.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    os.environ["REPRO_STORE"] = "off"
    os.environ["REPRO_LEDGER"] = "off"
    from repro import dump_protocol, get_code, load_protocol, synthesize_protocol
    from repro import two_fault_error_budget
    from repro.experiments.figure4 import FIGURE4_CODES
    from repro.experiments.table1 import TABLE1_FAST_ROWS, run_row

    out = HERE / "protocols"
    out.mkdir(exist_ok=True)
    c2 = {}
    for code in FIGURE4_CODES:
        path = out / f"{code}.json"
        start = time.perf_counter()
        if not path.exists():
            dump_protocol(
                synthesize_protocol(
                    get_code(code),
                    prep_method="heuristic",
                    verification_method="optimal",
                ),
                path,
            )
        budget = two_fault_error_budget(load_protocol(path), max_runs=None)
        c2[code] = budget.c2_exact
        print(f"{code}: {time.perf_counter() - start:.1f} s", flush=True)
    rows = {}
    for code, prep, verif in TABLE1_FAST_ROWS:
        rows[f"{code}/{prep}/{verif}"] = run_row(code, prep, verif).metrics.as_row()
    pinned = {"table1_fast_rows": rows, "c2_exact": c2}
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
