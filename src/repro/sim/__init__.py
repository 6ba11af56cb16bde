"""Noise simulation: Pauli-frame execution, sampling engines, decoding.

Three execution engines share one contract (see ``sim.sampler``):

* :class:`ReferenceSampler` — the per-shot :class:`ProtocolRunner` oracle;
* :class:`BatchedSampler` — the bit-packed F2-linear batch engine, which
  matches the reference bit-for-bit under a fixed seed and is the default
  everywhere hot (subset sampling, Fig. 4, the CLI);
* :class:`KernelSampler` — the compiled tier (``repro.sim.kernels``,
  numba-njit when importable, pure-NumPy twins otherwise), bit-identical
  to the batched engine; select it with ``engine="kernel"`` or let
  ``engine="auto"`` pick it when numba is present.

An explicit ``__init__`` (rather than an implicit namespace package) keeps
``find_packages(where="src")`` in ``setup.py`` from silently dropping
``repro.sim`` out of installs and wheels. Its exports are lazy: each one
imports its submodule on first access, so importing one engine module
never pulls in the cluster transport or networkx.
"""

import importlib

#: Public name -> defining submodule.
_EXPORTS = {
    "AdaptiveSlabPolicy": "shard",
    "BatchResult": "sampler",
    "BatchedSampler": "sampler",
    "BiasedPauliModel": "noisemodels",
    "ClusterEvaluator": "cluster",
    "ClusterExecutorFactory": "cluster",
    "ClusterWorker": "cluster",
    "CompiledProtocol": "sampler",
    "CorrelatedPairModel": "noisemodels",
    "DirectEstimate": "subset",
    "E1_1": "noise",
    "InhomogeneousModel": "noisemodels",
    "Injection": "frame",
    "KernelSampler": "sampler",
    "LogicalJudge": "logical",
    "LookupDecoder": "decoder",
    "MatchingDecoder": "matching",
    "ProtocolRunner": "frame",
    "ReferenceSampler": "sampler",
    "RunResult": "frame",
    "ScaledNoiseModel": "noise",
    "ShardPartial": "shard",
    "ShardedEvaluator": "shard",
    "SiteUniverse": "noisemodels",
    "StratumPlanner": "shard",
    "StratumStats": "subset",
    "SubsetEstimate": "subset",
    "SubsetSampler": "subset",
    "Tableau": "tableau",
    "TableauProtocolRunner": "reference",
    "TableauRunResult": "reference",
    "adjacent_2q_pairs": "noisemodels",
    "binomial_weight": "subset",
    "compose_injections": "noise",
    "direct_mc": "subset",
    "draw_counts": "noise",
    "draw_tables": "noise",
    "fault_draws": "noise",
    "is_matchable": "matching",
    "make_sampler": "sampler",
    "materialize_stratum": "noise",
    "merge_injection_dicts": "noise",
    "merge_partials": "shard",
    "parse_mem_budget": "shard",
    "parse_noise_spec": "noisemodels",
    "poisson_binomial_tail": "subset",
    "poisson_binomial_weight": "subset",
    "poisson_binomial_weights": "subset",
    "protocol_locations": "frame",
    "resolve_engine_name": "sampler",
    "resolve_evaluator": "shard",
    "run_circuit": "tableau",
    "sample_injections": "noise",
    "sample_injections_fixed_k": "noise",
    "sample_injections_model": "noise",
    "sample_injections_model_batch": "noise",
    "sample_injections_stratum": "noise",
    "site_universe": "noisemodels",
    "tail_weight": "subset",
    "wilson_interval": "subset",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule behind an export on first use (PEP 562), so
    ``import repro.sim.<module>`` loads only what that module needs."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
