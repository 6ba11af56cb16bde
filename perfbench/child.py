"""Child-process entry points of the benchmark.

``python3 perfbench/child.py ready WORKLOAD``
    A fresh interpreter made ready for WORKLOAD: its imports done and its
    inputs loaded. The parent times this for ``setup_s``.
``python3 perfbench/child.py cli ARGV...``
    ``repro ARGV...`` with the layer probe installed, for the traced
    ``cli-start`` run. The times of interpreter start, ``import repro.cli``
    and the probe's installation, and the probe's counts, are written as
    JSON to ``$PERFBENCH_OUT``; the command's own spans go to
    ``$REPRO_TRACE``.
``python3 perfbench/child.py serve ARGV...``
    ``repro serve ARGV...`` with the layer probe installed and its counts
    mirrored into the daemon's metrics registry as ``perfbench.*``, so
    the ``stats`` op reports them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LayerProbe  # noqa: E402


def ready(workload: str) -> int:
    if workload == "synth-cold":
        import repro.core.ftcheck  # noqa: F401
        import repro.experiments.table1  # noqa: F401
    elif workload == "simulate":
        import repro.core.analysis  # noqa: F401
        import repro.core.ftcheck  # noqa: F401
        import repro.experiments.figure4  # noqa: F401
        from repro import load_protocol

        for path in sorted((HERE / "protocols").glob("*.json")):
            load_protocol(path)
    else:
        raise SystemExit(f"no ready step for {workload!r}")
    return 0


def traced_cli(argv: list[str]) -> int:
    started = time.time()
    import repro.cli

    imported = time.time()
    probe = LayerProbe().install()
    installed = time.time()
    try:
        code = repro.cli.main(argv)
    finally:
        probe.uninstall()
        with open(os.environ["PERFBENCH_OUT"], "w") as stream:
            json.dump(
                {
                    "interp": [float(os.environ["PERFBENCH_SPAWN_TS"]), started],
                    "import": [started, imported],
                    "probe": [imported, installed],
                    "metrics": probe.metrics(),
                },
                stream,
            )
    return code


def probed_serve(argv: list[str]) -> int:
    import repro.cli
    from repro.obs.metrics import get_registry

    probe = LayerProbe(registry=get_registry()).install()
    try:
        return repro.cli.main(["serve", *argv])
    finally:
        probe.uninstall()


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "ready":
        return ready(rest[0])
    if mode == "cli":
        return traced_cli(rest)
    if mode == "serve":
        return probed_serve(rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
