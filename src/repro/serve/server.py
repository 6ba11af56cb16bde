"""``repro serve`` — the resident asyncio simulation daemon.

One process, one TCP listener, JSON-lines framing (see
:mod:`repro.serve.schema`). The daemon holds three tiers of state that
a cold CLI process pays for on every invocation:

* **resident protocols** — synthesized once per (code, prep,
  verification) and kept (synthesis itself is artifact-store cached, so
  even the first request is warm on a primed machine);
* **resident engines** — an LRU of compiled engines keyed by the PR 6
  store digests (:func:`repro.store.keys.engine_key`), bounded by
  ``engine_slots``;
* **the results ledger** — every sweep/certificate/budget/direct
  answer is keyed (:func:`repro.serve.schema.request_key`) and
  persisted, so repeats — across daemon restarts, and shared with the
  ``figure4`` CLI, which writes the same ``series`` records — are pure
  lookups.

Request flow: normalize -> resolve protocol -> derive ledger key ->
ledger hit? answer immediately (``source: "ledger"``) -> identical
request already in flight? await it (``source: "coalesced"``; the
exactly-one-compute guarantee) -> else compute on a worker thread,
streaming per-chunk progress events, persist, answer
(``source: "computed"``). Sweep/ftcheck/budget/direct all dispatch
through the one ``resolve_evaluator`` seam — inline, process pool
(``workers``), or the cluster fabric (an ``executor`` factory like
:class:`repro.sim.cluster.ClusterExecutorFactory`) — wrapped in a
:class:`repro.serve.ledger.LedgerEvaluator`, so partially-covered
plans compute only their missing chunks.

A client that disconnects mid-stream does not abort its computation:
the result is still computed and persisted (the next query is a hit),
only the undeliverable events are dropped.

**Transport security** (:mod:`repro.net`, protocol 2): the listener can
sit behind TLS (``--listen 'HOST:PORT?tls=1&certfile=...'``), require
the HMAC token handshake (``?token=...`` / ``REPRO_NET_TOKEN``;
completed before *any* request line is read, so an unauthenticated peer
never reaches ``normalize_request``, the ledger, or a compute thread),
and drop peers outside an ``--allow`` CIDR/host allowlist at accept
time. Results are bit-identical across plaintext and TLS+token
transports — security sits entirely below the request flow.
"""

from __future__ import annotations

import asyncio
import json
import ssl
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..net.auth import (
    NONCE_BYTES,
    client_proof,
    make_nonce,
    server_proof,
    verify_proof,
)
from ..net.endpoint import AddressAllowlist, ambient_token, parse_endpoint
from ..net.framing import FrameCounters
from ..net.tls import server_ssl_context
from ..obs import trace as obs_trace
from ..obs.metrics import get_registry
from ..store import keys as store_keys
from .ledger import LedgerEvaluator, ResultsLedger, resolve_ledger
from .schema import (
    SERVE_PROTOCOL_VERSION,
    ServeRequestError,
    normalize_request,
    request_key,
)

__all__ = ["ReproServer", "ServeStats"]


@dataclass
class ServeStats:
    """Daemon-lifetime counters (the ``stats`` op returns a snapshot).

    The concurrency tests read these for their invariants: N identical
    concurrent requests must end with ``computes == 1`` and
    ``coalesced == N - 1``; a repeated request after a restart must end
    with ``computes == 0`` and ``ledger_hits == 1``.
    """

    requests: int = 0
    computes: int = 0
    ledger_hits: int = 0
    coalesced: int = 0
    engine_compiles: int = 0
    engine_hits: int = 0
    errors: int = 0
    disconnects: int = 0
    #: Connections refused by the token handshake (wrong/missing proof)
    #: or the --allow allowlist — none of them reached a request.
    auth_failures: int = 0

    def snapshot(self) -> dict:
        return dict(vars(self))


class _Inflight:
    """One in-progress computation identical requests coalesce onto."""

    def __init__(self):
        self.event = asyncio.Event()
        self.record = None
        self.error: BaseException | None = None


class ReproServer:
    """The daemon. See the module docstring for the request flow.

    Parameters mirror the CLI: ``workers``/``max_slab``/``mem_budget``
    configure the in-process sharded backend, ``executor`` swaps in a
    cluster factory, ``ledger`` selects the results ledger (``None`` =
    ambient ``REPRO_LEDGER``, ``False`` = off), ``engine_slots`` bounds
    the resident-engine LRU, and ``compute_threads`` bounds concurrent
    computations (keep it >= 2 so a long compute never blocks protocol
    resolution for other clients).

    Transport security (:mod:`repro.net`): ``token`` arms the handshake
    (``None`` falls back to ambient ``REPRO_NET_TOKEN``; ``""`` runs
    open explicitly), ``ssl_context`` wraps the listener in TLS, and
    ``allow`` drops out-of-range peers at accept time. Prefer
    :meth:`from_endpoint` to derive all three from one endpoint spec.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ledger=None,
        engine_slots: int = 8,
        workers: int = 1,
        max_slab: int | None = None,
        mem_budget: int | None = None,
        executor=None,
        compute_threads: int = 4,
        token: str | None = None,
        ssl_context: ssl.SSLContext | None = None,
        allow=None,
    ):
        if engine_slots < 1:
            raise ValueError("engine_slots must be positive")
        self.host = host
        self.port = int(port)
        self._token = ambient_token() if token is None else (token or None)
        self._ssl_context = ssl_context
        self.allow = (
            allow
            if isinstance(allow, AddressAllowlist)
            else AddressAllowlist(allow)
        )
        #: Line-layer byte/frame counters (both directions, every
        #: connection) — same vocabulary as the cluster framer, surfaced
        #: by the ``stats`` op. Touched only on the event loop.
        self._wire = FrameCounters()
        self.ledger: ResultsLedger | None = resolve_ledger(ledger)
        self.engine_slots = int(engine_slots)
        self.workers = int(workers)
        self.max_slab = max_slab
        self.mem_budget = mem_budget
        self.executor = executor
        self.stats = ServeStats()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, int(compute_threads)),
            thread_name_prefix="repro-serve",
        )
        # (code, prep, verification) -> (protocol, digest); protocols
        # are small (instruction lists), so this tier is unbounded.
        self._protocols: dict[tuple, tuple] = {}
        self._protocol_lock = threading.Lock()
        # engine store-key -> (engine, per-engine compute lock), LRU.
        self._engines: "OrderedDict[str, tuple]" = OrderedDict()
        self._engine_lock = threading.Lock()
        # (kind, key) -> _Inflight; loop-confined (touched only on the
        # event loop), which is what makes check-then-register atomic.
        self._inflight: dict[tuple, _Inflight] = {}
        # Open client connections and the event set while there are
        # none; loop-confined, like _inflight.
        self._connections = 0
        self._idle: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    @classmethod
    def from_endpoint(cls, endpoint, **kwargs) -> "ReproServer":
        """Build a daemon from a ``--listen`` endpoint spec: the bind
        address plus every security field (``tls``/``certfile``/
        ``keyfile``/``cafile`` and the resolved token) in one string.
        Remaining keyword arguments go to the constructor unchanged."""
        endpoint = parse_endpoint(endpoint, default_port=7790)
        server = cls(
            endpoint.connect_host,
            endpoint.port,
            # resolve_token already consulted the environment; "" keeps
            # the constructor from consulting it a second time.
            token=endpoint.resolve_token() or "",
            ssl_context=server_ssl_context(endpoint),
            **kwargs,
        )
        server.endpoint = endpoint
        return server

    # -- lifecycle -------------------------------------------------------------

    async def _main(self, ready: threading.Event | None = None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, ssl=self._ssl_context
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if ready is not None:
            ready.set()
        async with self._server:
            await self._stop_event.wait()

    def serve_forever(self) -> None:
        """Run the listener on this thread until interrupted."""
        try:
            asyncio.run(self._main())
        finally:
            self._pool.shutdown(wait=False, cancel_futures=True)

    def start_background(self) -> tuple[str, int]:
        """Run the daemon on a dedicated thread; returns the bound address.

        The test-suite (and embedding) entry point: the port is
        ephemeral by default, so read it from the return value.
        """
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(ready)),
            name="repro-serve-loop",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self.host, self.port

    def stop(self) -> None:
        """Stop the listener and reap the loop thread (idempotent)."""
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
            self._pool.shutdown(wait=False, cancel_futures=True)

    def drain(self, timeout: float = 30.0) -> dict:
        """A :attr:`stats` snapshot of the quiescent daemon.

        Waits on the loop thread until every client connection has
        closed and its requests have finished, then snapshots there, so
        no counter is read mid-request (``requests`` and ``errors`` move
        in one loop step). For a running daemon whose clients are gone.
        """

        async def idle_snapshot() -> dict:
            await self._idle.wait()
            return self.stats.snapshot()

        return asyncio.run_coroutine_threadsafe(
            idle_snapshot(), self._loop
        ).result(timeout)

    # -- resident state --------------------------------------------------------

    def _resolve_protocol(self, norm: dict) -> tuple:
        """(protocol, digest) for a request; synthesized once, kept."""
        key = (norm["code"], norm["prep"], norm["verification"])
        with self._protocol_lock:
            entry = self._protocols.get(key)
        if entry is not None:
            return entry
        from ..codes.catalog import get_code
        from ..core.protocol import synthesize_protocol

        protocol = synthesize_protocol(
            get_code(norm["code"]),
            prep_method=norm["prep"],
            verification_method=norm["verification"],
        )
        entry = (protocol, store_keys.protocol_digest(protocol))
        with self._protocol_lock:
            self._protocols.setdefault(key, entry)
            return self._protocols[key]

    def _get_engine(self, protocol, digest: str, engine_name: str) -> tuple:
        """(engine, compute lock) from the LRU, compiling on miss."""
        from ..sim.sampler import make_sampler, resolve_engine_name

        name = resolve_engine_name(engine_name)
        ekey = store_keys.engine_key(protocol, name) or f"{digest}:{name}"
        with self._engine_lock:
            entry = self._engines.get(ekey)
            if entry is not None:
                self._engines.move_to_end(ekey)
                self.stats.engine_hits += 1
                return entry
        engine = make_sampler(protocol, engine=name)
        with self._engine_lock:
            entry = self._engines.get(ekey)
            if entry is not None:
                # Lost a compile race; keep the resident one.
                self._engines.move_to_end(ekey)
                self.stats.engine_hits += 1
                return entry
            entry = (engine, threading.Lock())
            self._engines[ekey] = entry
            self.stats.engine_compiles += 1
            while len(self._engines) > self.engine_slots:
                self._engines.popitem(last=False)
                get_registry().counter("serve.engine_evictions").inc()
            return entry

    def _model_for(self, norm: dict):
        if not norm.get("noise"):
            return None
        from ..sim.noisemodels import parse_noise_spec

        return parse_noise_spec(norm["noise"])

    def _evaluator_factory(self, digest: str, progress):
        """The ``executor=`` seam every compute op dispatches through.

        Builds the configured backend (in-process sharded pool or the
        cluster fabric) and wraps it in a
        :class:`~repro.serve.ledger.LedgerEvaluator`, so every consumer
        gets chunk-partial reuse and per-chunk progress streaming for
        free. Accepts both executor-seam call shapes.
        """

        def factory(engine, max_slab: int, model=None):
            if self.executor is not None:
                inner = (
                    self.executor(engine, max_slab, model)
                    if model is not None
                    else self.executor(engine, max_slab)
                )
            else:
                from ..sim.shard import ShardedEvaluator

                inner = ShardedEvaluator(
                    engine,
                    workers=max(1, self.workers),
                    max_slab=max_slab,
                    model=model,
                )
            return LedgerEvaluator(
                inner, self.ledger, digest, model, on_partial=progress
            )

        return factory

    # -- compute bodies (worker threads) ---------------------------------------

    def _compute_sweep(self, protocol, digest, norm, model, progress) -> dict:
        """Tally record for a sweep request (same shape ``run_series``
        writes, so the daemon and the figure4 CLI share ledger entries)."""
        import math

        from ..sim.frame import protocol_locations
        from ..sim.noise import E1_1
        from ..sim.subset import SubsetSampler, direct_mc

        engine, run_lock = self._get_engine(protocol, digest, norm["engine"])
        progress({"phase": "engine-ready"})
        factory = self._evaluator_factory(digest, progress)
        with run_lock:
            with SubsetSampler(
                None,
                protocol_locations(protocol),
                k_max=norm["k_max"],
                rng=np.random.default_rng(norm["seed"]),
                engine=engine,
                executor=factory,
                model=model,
                ledger=False,  # the factory already wraps; avoid double
            ) as sampler:
                if norm["exact_k1"]:
                    sampler.enumerate_k1_exact()
                    progress({"phase": "k1-exact"})
                sampler.sample(norm["shots"], p_ref=None)
                progress({"phase": "sampled"})
                ceiling = sampler.p_ceiling
                direct = None
                direct_at = norm["direct_check_at"]
                if direct_at is not None and not (
                    ceiling is not None and direct_at >= ceiling
                ):
                    direct_model = (
                        model.with_p(direct_at)
                        if model is not None
                        else E1_1(p=direct_at)
                    )
                    direct = direct_mc(
                        engine,
                        direct_model,
                        norm["direct_shots"],
                        rng=np.random.default_rng(norm["seed"] + 1),
                        evaluator=sampler.evaluator,
                    )
                f1 = sampler.strata[1].rate if norm["exact_k1"] else math.nan
                return {
                    "code": norm["code"],
                    "k_max": int(sampler.k_max),
                    "strata": {
                        str(k): {
                            "trials": int(s.trials),
                            "failures": int(s.failures),
                            "exact": bool(s.exact),
                        }
                        for k, s in sampler.strata.items()
                    },
                    "f1_exact": None if math.isnan(f1) else f1,
                    "shots": int(sampler.total_trials()),
                    "engine": norm["engine"],
                    "direct": None
                    if direct is None
                    else {
                        "p": float(direct.p),
                        "trials": int(direct.trials),
                        "failures": int(direct.failures),
                    },
                }

    def _sweep_response(self, record: dict, protocol, model, norm: dict) -> dict:
        """Per-point estimates for *this* request's grid, derived from
        the keyed tally record — the same replay path cold, warm, and
        coalesced answers all go through, which is what makes the three
        bit-identical."""
        import math

        from ..sim.frame import protocol_locations
        from ..sim.subset import SubsetSampler

        sampler = SubsetSampler.from_tallies(
            protocol_locations(protocol),
            record["strata"],
            model=model,
            k_max=record["k_max"],
        )
        ceiling = sampler.p_ceiling
        grid = [p for p in norm["sweep"] if ceiling is None or p < ceiling]
        f1 = record.get("f1_exact")
        return {
            "code": record["code"],
            "locations": len(sampler.locations),
            "k_max": int(record["k_max"]),
            "f1_exact": math.nan if f1 is None else float(f1),
            "shots": int(record["shots"]),
            "strata": record["strata"],
            "estimates": [
                {
                    "p": e.p,
                    "mean": e.mean,
                    "lower": e.lower,
                    "upper": e.upper,
                    "tail": e.tail,
                }
                for e in sampler.curve(grid)
            ],
            "skipped": [p for p in norm["sweep"] if p not in grid],
            "direct": record.get("direct"),
        }

    def _compute_ftcheck(self, protocol, digest, norm, model, progress) -> dict:
        from ..core.ftcheck import check_fault_tolerance

        progress({"phase": "enumerating"})
        violations = check_fault_tolerance(
            protocol,
            max_violations=norm["max_violations"],
            engine=norm["engine"],
            max_slab=self.max_slab,
            mem_budget=self.mem_budget,
            executor=self._evaluator_factory(digest, progress),
            model=model,
        )
        return {
            "code": norm["code"],
            "fault_tolerant": not violations,
            "max_violations": norm["max_violations"],
            "violations": [
                {
                    "location": repr(v.location),
                    "injection": repr(v.injection),
                    "x_weight": int(v.x_weight),
                    "z_weight": int(v.z_weight),
                    "flips": {str(b): int(f) for b, f in sorted(v.flips.items())},
                    "rendered": str(v),
                }
                for v in violations
            ],
        }

    def _compute_budget(self, protocol, digest, norm, model, progress) -> dict:
        from ..core.analysis import two_fault_error_budget

        progress({"phase": "enumerating"})
        budget = two_fault_error_budget(
            protocol,
            max_runs=norm["max_runs"],
            engine=norm["engine"],
            max_slab=self.max_slab,
            mem_budget=self.mem_budget,
            executor=self._evaluator_factory(digest, progress),
            model=model,
        )
        return {
            "code": budget.code_name,
            "num_locations": int(budget.num_locations),
            "f2_exact": float(budget.f2_exact),
            "c2_exact": float(budget.c2_exact),
            "segment_pairs": [
                [a, b, float(m)]
                for (a, b), m in sorted(budget.by_segment_pair.items())
            ],
            "kind_pairs": [
                [a, b, float(m)]
                for (a, b), m in sorted(budget.by_kind_pair.items())
            ],
        }

    def _compute_direct(self, protocol, digest, norm, effective_model, progress):
        from ..sim.subset import direct_mc

        engine, run_lock = self._get_engine(protocol, digest, norm["engine"])
        progress({"phase": "engine-ready"})
        with run_lock:
            estimate = direct_mc(
                engine,
                effective_model,
                norm["shots"],
                rng=np.random.default_rng(norm["seed"]),
                executor=self._evaluator_factory(digest, progress),
                max_slab=self.max_slab,
                mem_budget=self.mem_budget,
            )
        return {
            "code": norm["code"],
            "p": float(estimate.p),
            "trials": int(estimate.trials),
            "failures": int(estimate.failures),
        }

    def _effective_direct_model(self, norm: dict, model):
        from ..sim.noise import E1_1

        return model.with_p(norm["p"]) if model is not None else E1_1(p=norm["p"])

    # -- observability ---------------------------------------------------------

    def _registry_snapshot(self) -> dict:
        """The process-global metrics registry with daemon-lifetime state
        mirrored in. ServeStats, the resident-tier sizes, and the
        line-layer wire counters are mirrored into ``serve.*`` gauges at
        snapshot time rather than counted at their increment sites — the
        hot paths stay untouched and repeated snapshots never double
        count. Everything the compute path already counts directly
        (``ledger.*``, ``store.*``, ``shard.*``, ``cluster.*`` — the
        latter folded in at link teardown, which is what keeps operator
        numbers monotone across worker reconnects) is in the registry
        already."""
        registry = get_registry()
        for name, value in self.stats.snapshot().items():
            registry.gauge(f"serve.{name}").set(value)
        registry.gauge("serve.engines").set(len(self._engines))
        registry.gauge("serve.protocols").set(len(self._protocols))
        registry.gauge("serve.inflight").set(len(self._inflight))
        for field in FrameCounters.FIELDS:
            registry.gauge(f"serve.wire.{field}").set(
                getattr(self._wire, field)
            )
        return registry.snapshot()

    def _control_trace(
        self, trace_ctx, op: str, start_wall: float, start_mono: float, **attrs
    ):
        """Fabricated ``serve.<op>`` span records for a traced request
        answered without a compute thread (control ops, ledger hits,
        coalesced waits). Returns a list of records to attach to the
        result event, or ``None`` when the request carried no (valid)
        trace context."""
        tracer = obs_trace.buffering_tracer(trace_ctx) if trace_ctx else None
        if tracer is None:
            return None
        tracer.record(
            f"serve.{op}",
            start_wall=start_wall,
            duration=time.monotonic() - start_mono,
            **attrs,
        )
        return tracer.sink.drain()

    # -- the wire --------------------------------------------------------------

    async def _send(self, writer, lock: asyncio.Lock, payload: dict) -> bool:
        """One response line; False (never an exception) on a dead peer."""
        data = (
            json.dumps(payload, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        try:
            async with lock:
                writer.write(data)
                await writer.drain()
            self._wire.raw_sent += len(data)
            self._wire.wire_sent += len(data)
            self._wire.frames_sent += 1
            return True
        except (ConnectionError, RuntimeError, OSError):
            self.stats.disconnects += 1
            return False

    async def _greet_and_authenticate(self, reader, writer, write_lock) -> bool:
        """Protocol-2 connection opening: the hello greeting, then — when
        a token is configured — the :mod:`repro.net.auth` challenge–
        response over hex-encoded JSON fields. Returns False (connection
        must close) unless the peer may start sending requests; no
        request line is ever read, let alone dispatched, before this
        returns True."""
        greeting = {
            "event": "hello",
            "protocol_version": SERVE_PROTOCOL_VERSION,
            "auth": self._token is not None,
        }
        server_nonce = None
        if self._token is not None:
            server_nonce = make_nonce()
            greeting["nonce"] = server_nonce.hex()
        if not await self._send(writer, write_lock, greeting):
            return False
        if self._token is None:
            return True

        async def refuse(reason: str, rid=None) -> bool:
            self.stats.auth_failures += 1
            await self._send(
                writer, write_lock, {"id": rid, "event": "error", "error": reason}
            )
            return False

        try:
            line = await asyncio.wait_for(reader.readline(), timeout=30)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            self.stats.auth_failures += 1
            return False
        if not line:
            self.stats.auth_failures += 1
            return False
        self._count_request_line(line)
        try:
            request = json.loads(line)
            assert isinstance(request, dict)
        except Exception:
            return await refuse(
                "daemon requires a token: the first line must be an auth op "
                "(connect with ?token=... or set REPRO_NET_TOKEN)"
            )
        rid = request.get("id")
        if request.get("op") != "auth":
            return await refuse(
                "daemon requires a token: got a request before the auth "
                "handshake (connect with ?token=... or set REPRO_NET_TOKEN)",
                rid,
            )
        try:
            client_nonce = bytes.fromhex(request.get("nonce") or "")
            proof = bytes.fromhex(request.get("proof") or "")
        except ValueError:
            return await refuse(
                "token handshake failed: nonce/proof are not valid hex", rid
            )
        if len(client_nonce) != NONCE_BYTES:
            return await refuse(
                f"token handshake failed: auth nonce must be {NONCE_BYTES} "
                "bytes",
                rid,
            )
        expected = client_proof(self._token, server_nonce, client_nonce)
        if not verify_proof(expected, proof):
            return await refuse(
                "token handshake failed: client proof does not verify "
                "(wrong or stale token)",
                rid,
            )
        await self._send(
            writer,
            write_lock,
            {
                "id": rid,
                "event": "auth-ok",
                "proof": server_proof(
                    self._token, server_nonce, client_nonce
                ).hex(),
            },
        )
        return True

    def _count_request_line(self, line: bytes) -> None:
        self._wire.raw_received += len(line)
        self._wire.wire_received += len(line)
        if line.strip():
            self._wire.frames_received += 1

    async def _handle_client(self, reader, writer):
        self._connections += 1
        self._idle.clear()
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._connections -= 1
            if not self._connections:
                self._idle.set()

    async def _serve_connection(self, reader, writer):
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        peer = writer.get_extra_info("peername")
        if not self.allow.permits(peer[0] if peer else ""):
            # Outside the allowlist: not even the greeting goes out.
            self.stats.auth_failures += 1
            try:
                writer.close()
            except Exception:
                pass
            return
        try:
            if not await self._greet_and_authenticate(
                reader, writer, write_lock
            ):
                try:
                    writer.close()
                except Exception:
                    pass
                return
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                self._count_request_line(line)
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._handle_request(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            # In-flight computations continue (their results are
            # ledgered); only delivery stops. Wait for request tasks so
            # coalesced peers on *other* connections are never orphaned.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_request(self, raw: bytes, writer, write_lock) -> None:
        self.stats.requests += 1
        rid = None
        try:
            request = json.loads(raw)
            rid = request.get("id")
            op = request.get("op")
            # Top-level, *not* in params: trace context never reaches
            # normalize_request, so ledger keys are trace-blind and a
            # traced request dedups with its untraced twin.
            trace_ctx = request.get("trace")
            norm = normalize_request(op, request.get("params"))
        except ServeRequestError as exc:
            self.stats.errors += 1
            await self._send(
                writer, write_lock, {"id": rid, "event": "error", "error": str(exc)}
            )
            return
        except Exception:
            self.stats.errors += 1
            await self._send(
                writer,
                write_lock,
                {"id": rid, "event": "error", "error": "malformed request line"},
            )
            return
        try:
            await self._dispatch(rid, op, norm, writer, write_lock, trace_ctx)
        except Exception as exc:  # compute/protocol errors -> error event
            self.stats.errors += 1
            await self._send(
                writer,
                write_lock,
                {"id": rid, "event": "error", "error": f"{type(exc).__name__}: {exc}"},
            )

    async def _dispatch(
        self, rid, op, norm, writer, write_lock, trace_ctx=None
    ) -> None:
        start_wall = time.time()
        start_mono = time.monotonic()

        async def send_result(result: dict) -> None:
            payload = {
                "id": rid,
                "event": "result",
                "result": result,
                "source": "server",
            }
            spans = self._control_trace(trace_ctx, op, start_wall, start_mono)
            if spans:
                payload["trace"] = spans
            await self._send(writer, write_lock, payload)

        if op == "ping":
            await send_result(
                {"ok": True, "protocol_version": SERVE_PROTOCOL_VERSION}
            )
            return
        if op == "stats":
            snapshot = self.stats.snapshot()
            snapshot.update(
                engines=len(self._engines),
                protocols=len(self._protocols),
                inflight=len(self._inflight),
                ledger=None if self.ledger is None else self.ledger.stats.snapshot(),
                ledger_root=None if self.ledger is None else str(self.ledger.root),
                # Same counter vocabulary as ClusterEvaluator.wire_stats
                # (repro.net.framing.FrameCounters) — JSON lines carry
                # no codec, so raw == wire here.
                wire=self._wire.stats("none"),
                transport="tls" if self._ssl_context is not None else "plaintext",
                auth=self._token is not None,
                # The full metrics registry: every counter/gauge/
                # histogram the process has touched, including cluster
                # wire totals folded in at link teardown (so reconnects
                # never zero them) and the serve.* gauge mirror.
                metrics=self._registry_snapshot(),
            )
            await send_result(snapshot)
            return
        if op == "metrics":
            self._registry_snapshot()  # refresh the serve.* gauge mirror
            await send_result(
                {
                    "content_type": "text/plain; version=0.0.4; charset=utf-8",
                    "exposition": get_registry().render_prometheus(),
                }
            )
            return
        if op == "shutdown":
            await send_result({"stopping": True})
            assert self._stop_event is not None
            self._stop_event.set()
            return

        loop = asyncio.get_running_loop()
        compute = {
            "sweep": self._compute_sweep,
            "ftcheck": self._compute_ftcheck,
            "budget": self._compute_budget,
            "direct": self._compute_direct,
        }[op]

        # Protocol synthesis and noise parsing run off-loop (synthesis
        # can be SAT-heavy on a cold store).
        protocol, digest = await loop.run_in_executor(
            self._pool, self._resolve_protocol, norm
        )
        model = await loop.run_in_executor(self._pool, self._model_for, norm)
        key_model = compute_model = model
        if op == "direct":
            compute_model = self._effective_direct_model(norm, model)
            key_model = compute_model
        kind, key = request_key(
            op,
            norm,
            digest,
            key_model,
            max_slab=self.max_slab,
            mem_budget=self.mem_budget,
        )

        async def respond(record, source: str, spans=None) -> None:
            if op == "sweep":
                result = await loop.run_in_executor(
                    self._pool, self._sweep_response, record, protocol, model, norm
                )
            else:
                result = record
            payload = {
                "id": rid,
                "event": "result",
                "result": result,
                "source": source,
                "key": key,
            }
            if spans:
                payload["trace"] = spans
            await self._send(writer, write_lock, payload)

        # 1. Ledger hit: no compute, no engine touch.
        if key is not None and self.ledger is not None:
            record = await loop.run_in_executor(self._pool, self.ledger.get, kind, key)
            if record is not None:
                self.stats.ledger_hits += 1
                spans = self._control_trace(
                    trace_ctx,
                    op,
                    start_wall,
                    start_mono,
                    source="ledger",
                    code=norm.get("code"),
                )
                await respond(record, "ledger", spans)
                return

        # 2. Identical request in flight: await it (exactly-one-compute).
        if key is not None:
            inflight = self._inflight.get((kind, key))
            if inflight is not None:
                self.stats.coalesced += 1
                await inflight.event.wait()
                if inflight.error is not None:
                    raise inflight.error
                spans = self._control_trace(
                    trace_ctx,
                    op,
                    start_wall,
                    start_mono,
                    source="coalesced",
                    code=norm.get("code"),
                )
                await respond(inflight.record, "coalesced", spans)
                return

        # 3. Compute, streaming progress events as chunks land.
        inflight = _Inflight()
        if key is not None:
            self._inflight[(kind, key)] = inflight
        queue: asyncio.Queue = asyncio.Queue()

        def progress(info: dict) -> None:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, info)
            except RuntimeError:  # loop shut down mid-compute
                pass

        self.stats.computes += 1

        def run_compute():
            # Executor threads do not inherit the loop's contextvars, so
            # the request's tracer is installed here, inside the compute
            # thread: the serve.<op> span becomes ambient for the whole
            # computation (shard chunk spans run in-thread; a cluster
            # backend propagates it over its handshake and ingests the
            # workers' shipped spans). Drained records ride back on the
            # result event; an untraced request takes the bare call.
            tracer = (
                obs_trace.buffering_tracer(trace_ctx) if trace_ctx else None
            )
            if tracer is None:
                return (
                    compute(protocol, digest, norm, compute_model, progress),
                    None,
                )
            with tracer.span(
                f"serve.{op}", source="computed", code=norm.get("code")
            ):
                record = compute(
                    protocol, digest, norm, compute_model, progress
                )
            return record, tracer.sink.drain()

        compute_future = loop.run_in_executor(self._pool, run_compute)
        try:
            while True:
                getter = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    {getter, compute_future}, return_when=asyncio.FIRST_COMPLETED
                )
                if getter in done:
                    event = getter.result()
                    event.update(id=rid, event="progress")
                    await self._send(writer, write_lock, event)
                    continue
                getter.cancel()
                break
            record, shipped = await compute_future
        except BaseException as exc:
            inflight.error = exc
            raise
        else:
            inflight.record = record
            if key is not None and self.ledger is not None:
                await loop.run_in_executor(
                    self._pool, self.ledger.put, kind, key, record
                )
            await respond(record, "computed", shipped)
        finally:
            # Drain any progress events raced in after the compute
            # finished, then wake coalesced waiters.
            while not queue.empty():
                queue.get_nowait()
            if key is not None:
                self._inflight.pop((kind, key), None)
            inflight.event.set()
