"""Wire schema of the ``repro serve`` JSON-lines protocol.

Protocol 2 opens every connection with a server greeting (before any
request), carrying the version and — when the daemon holds a token —
the :mod:`repro.net.auth` challenge nonce::

    <- {"event": "hello", "protocol_version": 2, "auth": true,
        "nonce": "<hex>"}
    -> {"op": "auth", "nonce": "<hex>", "proof": "<hex>"}
    <- {"event": "auth-ok", "proof": "<hex>"}

(an open daemon sends ``"auth": false`` and skips straight to
requests). Then one request per line, one or more response lines per
request::

    -> {"id": 7, "op": "sweep", "params": {"code": "steane", ...}}
    <- {"id": 7, "event": "progress", ...}          (zero or more)
    <- {"id": 7, "event": "result", "result": {...},
        "source": "computed" | "ledger" | "coalesced", "key": ...}

or, on failure::

    <- {"id": 7, "event": "error", "error": "..."}

``id`` is the client's correlation token (echoed verbatim on every
response line), so one connection can multiplex many in-flight
requests. Params are normalized (defaults filled, types coerced) by
:func:`normalize_request` before anything executes, and the normalized
form — never the raw wire form — feeds the ledger key derivation in
:func:`request_key`, so two spellings of the same query dedup to the
same computation.

This module is pure data/keys (importable client-side); the execution
lives in :mod:`repro.serve.server`.
"""

from __future__ import annotations

from ..store import keys as store_keys

__all__ = [
    "OPS",
    "SERVE_PROTOCOL_VERSION",
    "ServeRequestError",
    "normalize_request",
    "request_key",
]

#: Version 2: the ``repro.net`` security layer — a hello greeting opens
#: every connection, the token challenge–response (when configured)
#: must complete before the first request is dispatched, and the
#: listener may sit behind TLS (transparent at this layer).
SERVE_PROTOCOL_VERSION = 2

#: Every operation the daemon understands. ``ping``/``stats``/
#: ``metrics``/``shutdown`` are control ops (no ledger key; ``metrics``
#: returns the Prometheus text exposition of the daemon's registry);
#: the other four are the paper's headline quantities.
OPS = (
    "ping",
    "stats",
    "metrics",
    "shutdown",
    "sweep",
    "ftcheck",
    "budget",
    "direct",
)

#: Default physical-rate sweep (mirrors ``FIGURE4_SWEEP`` without
#: importing the experiments layer client-side).
_DEFAULT_SWEEP = [
    1e-4,
    1.7782794100389227e-4,
    3.1622776601683794e-4,
    5.623413251903491e-4,
    1e-3,
    1.7782794100389227e-3,
    3.1622776601683794e-3,
    5.623413251903491e-3,
    1e-2,
    1.7782794100389227e-2,
    3.1622776601683794e-2,
    5.623413251903491e-2,
    1e-1,
]


class ServeRequestError(ValueError):
    """A malformed or unsupported request (reported, never fatal)."""


def _require_code(params: dict) -> str:
    code = params.get("code")
    if not isinstance(code, str) or not code:
        raise ServeRequestError("missing required param 'code'")
    return code


def _common(params: dict) -> dict:
    """Protocol/engine/noise selection shared by every compute op."""
    return {
        "code": _require_code(params),
        "prep": str(params.get("prep", "heuristic")),
        "verification": str(params.get("verification", "optimal")),
        "engine": str(params.get("engine", "batched")),
        "noise": params.get("noise") or None,
    }


def normalize_request(op: str, params: dict | None) -> dict:
    """Validate and canonicalize one request's params (defaults filled)."""
    params = dict(params or {})
    if op not in OPS:
        raise ServeRequestError(f"unknown op {op!r}")
    if op in ("ping", "stats", "metrics", "shutdown"):
        return {}
    norm = _common(params)
    if op == "sweep":
        norm.update(
            shots=int(params.get("shots", 4000)),
            k_max=int(params.get("k_max", 3)),
            seed=int(params.get("seed", 2025)),
            exact_k1=bool(params.get("exact_k1", True)),
            sweep=sorted(float(p) for p in params.get("sweep", _DEFAULT_SWEEP)),
            direct_check_at=(
                None
                if params.get("direct_check_at") is None
                else float(params["direct_check_at"])
            ),
            direct_shots=int(params.get("direct_shots", 4000)),
        )
        if norm["shots"] < 0 or norm["k_max"] < 1:
            raise ServeRequestError("shots must be >= 0 and k_max >= 1")
    elif op == "ftcheck":
        norm.update(max_violations=int(params.get("max_violations", 10)))
    elif op == "budget":
        max_runs = params.get("max_runs", 2_000_000)
        norm.update(max_runs=None if max_runs is None else int(max_runs))
    elif op == "direct":
        if params.get("p") is None:
            raise ServeRequestError("direct requires param 'p'")
        norm.update(
            p=float(params["p"]),
            shots=int(params.get("shots", 4000)),
            seed=int(params.get("seed", 2025)),
        )
    return norm


def request_key(
    op: str,
    norm: dict,
    protocol_digest_hex: str,
    model,
    *,
    max_slab: int | None = None,
    mem_budget: int | None = None,
) -> tuple[str, str | None]:
    """(ledger kind, ledger key) of a normalized compute request.

    The key names *what* is being computed — protocol digest, noise
    model, seed/shot plan — never how (engine name and worker counts
    are absent; results are engine- and backend-invariant). For sweeps
    the requested ``sweep`` grid is excluded too: estimates are derived
    per-point from the keyed tally record, so one record serves every
    grid. ``max_slab``/``mem_budget`` are the *server's* slab
    configuration — part of the chunk plan, hence part of the key.
    Returns ``(kind, None)`` when the model cannot be tokenized.
    """
    if op == "sweep":
        return "series", store_keys.series_key(
            protocol_digest_hex,
            model,
            shots=norm["shots"],
            k_max=norm["k_max"],
            seed=norm["seed"],
            exact_k1=norm["exact_k1"],
            max_slab=max_slab,
            mem_budget=mem_budget,
            direct_check_at=norm["direct_check_at"],
            direct_shots=norm["direct_shots"],
        )
    if op == "ftcheck":
        return "ftcheck", store_keys.result_key(
            "ftcheck",
            protocol_digest_hex,
            model,
            {"max_violations": norm["max_violations"]},
        )
    if op == "budget":
        return "budget", store_keys.result_key(
            "budget", protocol_digest_hex, model, {"max_runs": norm["max_runs"]}
        )
    if op == "direct":
        # The *effective* model (rescaled to ``p``) is tokenized by the
        # caller; ``model`` here must already be that effective model.
        return "direct", store_keys.direct_key(
            protocol_digest_hex,
            model,
            shots=norm["shots"],
            seed=norm["seed"],
            max_slab=max_slab,
        )
    raise ServeRequestError(f"op {op!r} has no ledger key")
