"""Security fault-injection drills for the ``repro serve`` daemon.

Mirror of ``test_secure_cluster.py`` one stack over: every rejection
must land *before any request is normalized or computed* (asserted via
the daemon's request/compute counters and ``auth_failures``), and
TLS + token answers must be bit-identical to plaintext ones."""

from __future__ import annotations

import socket
import time

import pytest

from repro.net import (
    Endpoint,
    JsonLinesTransport,
    client_proof,
    make_nonce,
    server_ssl_context,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer
from repro.store import keys as store_keys

from ..conftest import cached_protocol

SWEEP_PARAMS = dict(shots=600, k_max=2, seed=5, sweep=[1e-3, 1e-2])


def _prewarm(server: ReproServer) -> None:
    protocol = cached_protocol("steane")
    server._protocols[("steane", "heuristic", "optimal")] = (
        protocol,
        store_keys.protocol_digest(protocol),
    )


@pytest.fixture
def spin_server(tmp_path):
    """Factory starting one in-process daemon with arbitrary security
    knobs; returns ``(server, connect_endpoint)``."""
    started: list[ReproServer] = []
    roots = iter(range(1000))

    def factory(token=None, tls_pair=None, allow=None, ledger=False):
        listen = Endpoint(
            "127.0.0.1",
            0,
            tls=tls_pair is not None,
            certfile=tls_pair[0] if tls_pair else None,
            keyfile=tls_pair[1] if tls_pair else None,
        )
        server = ReproServer(
            "127.0.0.1",
            0,
            ledger=(tmp_path / f"ledger{next(roots)}") if ledger else False,
            token="" if token is None else token,
            ssl_context=server_ssl_context(listen),
            allow=allow,
        )
        _prewarm(server)
        server.start_background()
        started.append(server)
        connect = Endpoint(
            "127.0.0.1",
            server.port,
            tls=tls_pair is not None,
            cafile=tls_pair[0] if tls_pair else None,
        )
        return server, connect

    yield factory
    for server in started:
        server.stop()


class TestTokenFaultInjection:
    def test_wrong_token_refused_before_any_request(self, spin_server):
        server, endpoint = spin_server(token="righttok")
        with pytest.raises(ServeError, match="does not verify"):
            ServeClient(endpoint.render() + "?token=wrongtok")
        assert server.stats.requests == 0
        assert server.stats.computes == 0
        assert server.stats.auth_failures == 1

    def test_tokenless_client_against_token_daemon(self, spin_server):
        server, endpoint = spin_server(token="s3cret")
        with pytest.raises(ServeError, match="requires a token"):
            ServeClient(endpoint)
        assert server.stats.requests == 0

    def test_token_client_against_open_daemon(self, spin_server):
        server, endpoint = spin_server(token=None)
        with pytest.raises(ServeError, match="runs without a token"):
            ServeClient(endpoint, token="s3cret")
        assert server.stats.requests == 0

    def test_truncated_proof_refused(self, spin_server):
        server, endpoint = spin_server(token="s3cret")
        sock = socket.create_connection(endpoint.address, timeout=10)
        transport = JsonLinesTransport(sock)
        try:
            greeting = transport.recv_obj()
            assert greeting["auth"] is True
            server_nonce = bytes.fromhex(greeting["nonce"])
            client_nonce = make_nonce()
            proof = client_proof("s3cret", server_nonce, client_nonce)
            transport.send_obj(
                {
                    "op": "auth",
                    "nonce": client_nonce.hex(),
                    "proof": proof.hex()[:-2],
                }
            )
            reply = transport.recv_obj()
            assert reply["event"] == "error"
            assert "does not verify" in reply["error"]
            assert transport.recv_obj() is None  # connection closed
        finally:
            transport.close()
        assert server.stats.requests == 0
        assert server.stats.auth_failures == 1

    def test_replayed_proof_is_worthless(self, spin_server):
        server, endpoint = spin_server(token="s3cret")

        def open_transport():
            sock = socket.create_connection(endpoint.address, timeout=10)
            transport = JsonLinesTransport(sock)
            greeting = transport.recv_obj()
            return transport, bytes.fromhex(greeting["nonce"])

        first, first_nonce = open_transport()
        recorded_nonce = make_nonce()
        recorded_proof = client_proof("s3cret", first_nonce, recorded_nonce)
        first.send_obj(
            {
                "op": "auth",
                "nonce": recorded_nonce.hex(),
                "proof": recorded_proof.hex(),
            }
        )
        assert first.recv_obj()["event"] == "auth-ok"  # the original works
        first.close()

        second, second_nonce = open_transport()
        assert second_nonce != first_nonce
        second.send_obj(
            {
                "op": "auth",
                "nonce": recorded_nonce.hex(),
                "proof": recorded_proof.hex(),
            }
        )
        reply = second.recv_obj()
        second.close()
        assert reply["event"] == "error"
        assert "does not verify" in reply["error"]
        assert server.stats.requests == 0

    def test_request_line_before_auth_is_refused(self, spin_server):
        """A peer that skips the handshake and fires a request anyway
        must be refused without the op ever executing."""
        server, endpoint = spin_server(token="s3cret")
        sock = socket.create_connection(endpoint.address, timeout=10)
        transport = JsonLinesTransport(sock)
        try:
            transport.recv_obj()  # greeting
            transport.send_obj({"id": 1, "op": "shutdown"})
            reply = transport.recv_obj()
            assert reply["event"] == "error"
            assert transport.recv_obj() is None
        finally:
            transport.close()
        assert server.stats.requests == 0
        assert server._stop_event is None or not server._stop_event.is_set()

    def test_right_token_and_ambient_env(self, spin_server, monkeypatch):
        server, endpoint = spin_server(token="s3cret")
        with ServeClient(endpoint, token="s3cret") as client:
            assert client.ping()["ok"] is True
            stats = client.stats()
            assert stats["auth"] is True
        monkeypatch.setenv("REPRO_NET_TOKEN", "s3cret")
        with ServeClient(endpoint) as client:  # token resolved from env
            assert client.ping()["ok"] is True


class TestTLSFaultInjection:
    def test_tls_client_against_plaintext_daemon(self, spin_server, tls_cert_pair):
        server, plain = spin_server()
        endpoint = Endpoint(
            "127.0.0.1", plain.port, tls=True, cafile=tls_cert_pair[0]
        )
        with pytest.raises((ServeError, ConnectionError)):
            ServeClient(endpoint, connect_timeout=5.0)
        # The plaintext daemon sees the ClientHello as malformed request
        # lines — counted as errors, never as work.
        stats = server.drain()
        assert stats["computes"] == 0
        assert stats["errors"] == stats["requests"]

    def test_plaintext_client_against_tls_daemon(self, spin_server, tls_cert_pair):
        server, secure = spin_server(tls_pair=tls_cert_pair)
        endpoint = Endpoint("127.0.0.1", secure.port)  # tls omitted
        with pytest.raises((ServeError, ConnectionError), match="tls=1|greeting"):
            ServeClient(endpoint, connect_timeout=5.0)
        assert server.stats.requests == 0

    def test_tls_token_answers_bit_identical_to_plaintext(
        self, spin_server, tls_cert_pair
    ):
        """The acceptance drill: the same sweep over TLS + token and
        over an open plaintext daemon, byte-for-byte equal payloads."""
        _, secure = spin_server(token="s3cret", tls_pair=tls_cert_pair)
        _, plain = spin_server()
        with ServeClient(secure, token="s3cret") as client:
            over_tls = client.request("sweep", code="steane", **SWEEP_PARAMS)
            assert client.stats()["transport"] == "tls"
        with ServeClient(plain) as client:
            over_plain = client.request("sweep", code="steane", **SWEEP_PARAMS)
            assert client.stats()["transport"] == "plaintext"
        assert over_tls["result"] == over_plain["result"]


class TestAllowlist:
    def test_peer_outside_allowlist_dropped_before_greeting(self, spin_server):
        server, endpoint = spin_server(allow=["203.0.113.0/24"])
        with pytest.raises((ServeError, ConnectionError, OSError)):
            ServeClient(endpoint, connect_timeout=5.0)
        assert server.stats.requests == 0
        assert server.stats.auth_failures >= 1

    def test_loopback_allowlist_admits_local_client(self, spin_server):
        _, endpoint = spin_server(allow=["127.0.0.0/8", "localhost"])
        with ServeClient(endpoint) as client:
            assert client.ping()["ok"] is True


class TestConnectTimeout:
    def test_connect_timeout_is_distinct_from_request_timeout(self):
        """Cluster semantics: ``connect_timeout`` bounds the greeting
        wait; a silent listener fails fast even when the request
        ``timeout`` is generous."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            start = time.monotonic()
            with pytest.raises(ServeError, match="no greeting"):
                ServeClient(
                    "127.0.0.1",
                    silent.getsockname()[1],
                    timeout=600.0,
                    connect_timeout=0.5,
                )
            assert time.monotonic() - start < 5.0
        finally:
            silent.close()
