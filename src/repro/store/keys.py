"""Stable content keys for the artifact store (and the cluster handshake).

One digest scheme, shared by every layer that names expensive artifacts:

* :func:`payload_digest` — SHA-256 of pickled engine-payload bytes. This
  is the digest the cluster handshake has always used (extracted here
  from ``repro.sim.cluster``): the coordinator advertises it in the
  session header, the worker re-hashes the shipped bytes against it
  before caching, and — new with the store — both sides use it as the
  disk key for compiled engines, so a restarted worker can seed its
  in-memory LRU from disk without a payload transfer.
* :func:`engine_key` — the *store* key of a compiled engine, derived
  from the canonical protocol JSON digest plus the engine name and
  judge token. Deliberately **not** the payload pickle digest: pickling
  is representation-sensitive (even pickling a compiled sampler can
  perturb the referenced protocol's subsequent pickle bytes), whereas
  the JSON digest is a pure function of the protocol's content. The
  cluster additionally stores each shipped engine under its session
  :func:`payload_digest`, so workers can still seed their LRU from disk
  by the digest the handshake advertises.
* :func:`protocol_key` — what ``synthesize_protocol`` is *about to
  compute*: the code's check matrices plus every synthesis parameter
  (and the serialization format version, so format bumps never collide).
* :func:`protocol_digest` — what a synthesis *produced*: SHA-256 of the
  canonical protocol JSON. Stable across processes and across
  pickle/JSON round-trips (the JSON round-trip is pinned
  instruction-for-instruction identical), which makes it the right base
  for result keys (certificates, budgets).
* :func:`cnf_digest` — SHA-256 over a CNF's variable count and clause
  list, keying SAT solve transcripts.

Pickle-based digests (:func:`payload_digest`, :func:`model_token`) are
representation-sensitive: two *functionally* identical objects with
different in-memory provenance can pickle differently. That is fine for
cache keys — a key split costs a recompute, never a wrong result — but
it is why result and engine keys are built on :func:`protocol_digest`
(canonical JSON) rather than protocol pickles: the JSON digest is
identical across processes, start methods, and pickle round-trips
(verified across fork and spawn workers in ``tests/store/test_keys.py``).
"""

from __future__ import annotations

import hashlib
import json
import pickle

__all__ = [
    "budget_key",
    "chunk_key",
    "cnf_digest",
    "direct_key",
    "engine_key",
    "ftcert_key",
    "model_token",
    "payload_digest",
    "protocol_digest",
    "protocol_key",
    "result_key",
    "series_key",
    "sha256_hex",
]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_key(obj) -> str:
    """Digest of a canonical-JSON-encoded key description."""
    return sha256_hex(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


# -- engines / cluster handshake ----------------------------------------------


def payload_digest(payload_bytes: bytes) -> str:
    """Digest of pickled engine-payload bytes (the cluster session digest)."""
    return sha256_hex(payload_bytes)


def engine_key(protocol, engine_name: str, judge=None) -> str | None:
    """Disk key of a compiled engine; None when the judge can't be named.

    Built on the canonical protocol JSON digest (stable across
    processes and pickle round-trips), not the payload pickle — see the
    module docstring for why. The default ``judge=None`` tokenizes to
    ``"none"``; a custom judge is tokenized by its pickle, and an
    unpicklable judge disables caching for that call.
    """
    token = model_token(judge)
    if not token:
        return None
    return _json_key(
        {
            "artifact": "engine",
            "protocol": protocol_digest(protocol),
            "engine": engine_name,
            "judge": token,
        }
    )


# -- protocols ----------------------------------------------------------------


def protocol_key(
    code,
    *,
    prep_method: str,
    verification_method: str,
    max_correction_measurements: int,
) -> str:
    """Key of a ``synthesize_protocol`` call: code + every parameter."""
    from ..core.serialize import _FORMAT_VERSION

    return _json_key(
        {
            "artifact": "protocol",
            "format_version": _FORMAT_VERSION,
            "code": {
                "name": code.name,
                "hx": code.hx.tolist(),
                "hz": code.hz.tolist(),
            },
            "prep_method": prep_method,
            "verification_method": verification_method,
            "max_correction_measurements": max_correction_measurements,
        }
    )


def protocol_digest(protocol) -> str:
    """Canonical digest of a synthesized protocol (its JSON form)."""
    from ..core.serialize import protocol_to_json

    return sha256_hex(protocol_to_json(protocol).encode("utf-8"))


# -- models and derived results -----------------------------------------------


def model_token(model) -> str:
    """Short stable token for a noise model (None = the uniform E1_1)."""
    if model is None:
        return "none"
    try:
        return sha256_hex(
            pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        )
    except Exception:
        # An unpicklable model cannot be named stably; the caller treats
        # this as "don't cache".
        return ""


def ftcert_key(protocol_digest_hex: str, model) -> str | None:
    """Key of an exact k=1 certificate (``check_fault_tolerance``)."""
    token = model_token(model)
    if not token:
        return None
    return _json_key(
        {
            "artifact": "ftcert",
            "k": 1,
            "protocol": protocol_digest_hex,
            "model": token,
        }
    )


def budget_key(protocol_digest_hex: str, model) -> str | None:
    """Key of an exact k=2 error budget (``two_fault_error_budget``)."""
    token = model_token(model)
    if not token:
        return None
    return _json_key(
        {
            "artifact": "budget",
            "k": 2,
            "protocol": protocol_digest_hex,
            "model": token,
        }
    )


# -- results ledger -----------------------------------------------------------
#
# Result keys name *what a computation is about*, never how it was run:
# the engine name is deliberately absent (results are engine-invariant —
# batched, kernel, and reference produce bit-identical tallies), while
# anything that perturbs the random stream (seed, shot plan, slab size)
# is included. Built on :func:`protocol_digest`, so the same key
# comes out of the CLI, the daemon, fork/spawn pool workers, and a fresh
# interpreter (property-tested in ``tests/serve/test_keys.py``).


def result_key(kind: str, protocol_digest_hex: str, model, plan: dict) -> str | None:
    """Generic ledger key: (kind, protocol digest, noise model, plan).

    ``plan`` must be a JSON-serializable description of the seed/shot
    plan. Returns None when the model cannot be tokenized (unpicklable
    models disable ledger dedup for that call, mirroring the store).
    """
    token = model_token(model)
    if not token:
        return None
    return _json_key(
        {
            "artifact": "result",
            "kind": kind,
            "protocol": protocol_digest_hex,
            "model": token,
            "plan": plan,
        }
    )


def series_key(
    protocol_digest_hex: str,
    model,
    *,
    shots: int,
    k_max: int,
    seed: int,
    exact_k1: bool = True,
    max_slab: int | None = None,
    mem_budget: int | None = None,
    direct_check_at: float | None = None,
    direct_shots: int = 0,
) -> str | None:
    """Key of one sampled stratum-tally series (a ``run_series`` point).

    Series draw from StratumPlanner chunks, identical for any worker
    count, so the worker count is *not* part of the key. ``max_slab``
    re-seeds sampled strata chunk-by-chunk, so it is part of the plan;
    None means the sampler default.
    """
    plan = {
        "shots": int(shots),
        "k_max": int(k_max),
        "seed": int(seed),
        "exact_k1": bool(exact_k1),
        # Constant: kept so keys of existing ledgers stay byte-identical.
        "scheme": "sharded",
        "max_slab": None if max_slab is None else int(max_slab),
        "mem_budget": None if mem_budget is None else int(mem_budget),
        "direct_check_at": direct_check_at,
        "direct_shots": int(direct_shots) if direct_check_at is not None else 0,
    }
    return result_key("series", protocol_digest_hex, model, plan)


def direct_key(
    protocol_digest_hex: str,
    model,
    *,
    shots: int,
    seed: int,
    max_slab: int | None = None,
) -> str | None:
    """Key of a direct Monte-Carlo tally (``direct_mc``).

    ``model`` is the *effective* model the Bernoulli draws use (i.e.
    after any ``with_p`` rescaling), so the physical rate is inside the
    token and needs no separate plan field.
    """
    plan = {
        "shots": int(shots),
        "seed": int(seed),
        "max_slab": None if max_slab is None else int(max_slab),
    }
    return result_key("direct", protocol_digest_hex, model, plan)


def chunk_key(protocol_digest_hex: str, model, chunk) -> str | None:
    """Key of one shard-chunk partial (the fine-grained ledger grain).

    Delegates the chunk description to ``repro.sim.shard.chunk_token``;
    chunks that cannot be named (e.g. a BernoulliChunk carrying an
    unpicklable model) return None and are always computed.
    """
    from ..sim.shard import chunk_token

    token = model_token(model)
    if not token:
        return None
    chunk_desc = chunk_token(chunk)
    if chunk_desc is None:
        return None
    return _json_key(
        {
            "artifact": "result",
            "kind": "chunk",
            "protocol": protocol_digest_hex,
            "model": token,
            "plan": chunk_desc,
        }
    )


# -- SAT ----------------------------------------------------------------------


def cnf_digest(cnf) -> str:
    """Digest of a CNF formula (variable count + exact clause list)."""
    hasher = hashlib.sha256()
    hasher.update(f"v{cnf.num_vars}\n".encode("ascii"))
    for clause in cnf.clauses:
        hasher.update(",".join(map(str, clause)).encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()
