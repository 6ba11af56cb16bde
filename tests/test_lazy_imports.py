"""Package exports load their submodules on first use.

``repro.sim`` and ``repro`` resolve exports lazily (PEP 562), so the
simulation path never pays for networkx (the matching decoder), the
cluster transport or ``repro.net`` unless a caller asks for them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _child(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout.strip()


def test_simulation_imports_skip_networkx_cluster_and_net():
    loaded = _child(
        "import sys\n"
        "import repro.core.analysis, repro.experiments.figure4\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'"
        " or m.startswith(('repro.sim.cluster', 'repro.net'))))\n"
    )
    assert loaded == "[]"


def test_lazy_exports_resolve_on_use():
    out = _child(
        "import sys\n"
        "import repro, repro.sim\n"
        "assert 'networkx' not in sys.modules\n"
        "from repro import MatchingDecoder\n"
        "assert MatchingDecoder.__module__ == 'repro.sim.matching'\n"
        "for name in repro.sim.__all__:\n"
        "    assert getattr(repro.sim, name).__name__ == name, name\n"
        "from repro.sim import shard, ClusterEvaluator\n"
        "print('repro.sim.cluster' in sys.modules)\n"
    )
    assert out == "True"


def test_unknown_exports_raise_attribute_error():
    import repro.sim

    with pytest.raises(AttributeError):
        repro.sim.NoSuchEngine
    with pytest.raises(AttributeError):
        repro.NoSuchThing
