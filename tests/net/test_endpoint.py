"""The one endpoint grammar (``repro.net.endpoint``): parse, render,
environment defaults, and the allowlist."""

from __future__ import annotations

import pytest

from repro.net import (
    AddressAllowlist,
    Endpoint,
    ambient_token,
    parse_endpoint,
    parse_endpoints,
)


class TestGrammar:
    def test_plain_hostport(self):
        ep = parse_endpoint("10.0.0.1:7781")
        assert ep == Endpoint("10.0.0.1", 7781)
        assert ep.address == ("10.0.0.1", 7781)
        assert not ep.tls and ep.token is None

    def test_full_query_string(self):
        ep = parse_endpoint(
            "worker.lan:7781?tls=1&cafile=/pki/ca.pem&certfile=/pki/me.pem"
            "&keyfile=/pki/me.key&token=s3cret"
        )
        assert ep.tls
        assert ep.cafile == "/pki/ca.pem"
        assert ep.certfile == "/pki/me.pem"
        assert ep.keyfile == "/pki/me.key"
        assert ep.token == "s3cret"

    def test_token_file_param(self, tmp_path):
        secret = tmp_path / "token.txt"
        secret.write_text("  hunter2\n")
        ep = parse_endpoint(f"h:1?token-file={secret}")
        assert ep.token_file == str(secret)
        assert ep.resolve_token() == "hunter2"

    def test_bare_port_is_loopback(self):
        assert parse_endpoint(":7790").address == ("127.0.0.1", 7790)

    def test_bare_host_needs_default_port(self):
        assert parse_endpoint("somehost", default_port=7790).address == (
            "somehost",
            7790,
        )
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_endpoint("somehost")

    def test_ipv6_literal(self):
        ep = parse_endpoint("[::1]:7781?tls=0")
        assert ep.host == "[::1]"
        assert ep.connect_host == "::1"
        assert ep.port == 7781

    def test_port_zero_is_ephemeral(self):
        assert parse_endpoint("127.0.0.1:0").port == 0

    def test_endpoint_passthrough(self):
        ep = Endpoint("h", 1, tls=True)
        assert parse_endpoint(ep) is ep

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "noport",
            "h:notaport",
            "[::1",
            "h:1?tls=maybe",
            "h:1?frobnicate=1",
            "h:1?token=a&token-file=b",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)

    def test_parse_endpoints_comma_list(self):
        eps = parse_endpoints("a:1,b:2?tls=1, c:3")
        assert [ep.address for ep in eps] == [("a", 1), ("b", 2), ("c", 3)]
        assert [ep.tls for ep in eps] == [False, True, False]

    def test_parse_endpoints_empty_raises(self):
        with pytest.raises(ValueError):
            parse_endpoints("")

    def test_address_tuples_are_not_specs(self):
        with pytest.raises(ValueError, match="cannot parse endpoint"):
            parse_endpoint(("h", 7781))
        with pytest.raises(ValueError, match="cannot parse endpoint"):
            parse_endpoints([("h", 7781)])


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            "h:1",
            ":0",
            "[::1]:7781",
            "h:1?tls=1",
            "h:1?tls=1&cafile=/tmp/ca.pem",
            "h:1?tls=1&certfile=/pki/a.pem&keyfile=/pki/a.key",
            "h:1?token=s3cret",
            "h:1?token-file=/run/secret",
            "h:1?token=odd%26chars%3D",
        ],
    )
    def test_parse_render_parse_is_identity(self, spec):
        ep = parse_endpoint(spec, use_env=False)
        assert parse_endpoint(ep.render(), use_env=False) == ep

    def test_render_quotes_awkward_secrets(self):
        ep = Endpoint("h", 1, token="a&b=c?d")
        again = parse_endpoint(ep.render(), use_env=False)
        assert again.token == "a&b=c?d"

    def test_describe_never_leaks_the_secret(self):
        ep = Endpoint("h", 1, tls=True, token="tops3cret")
        text = ep.describe()
        assert "tops3cret" not in text
        assert "token" in text and "tls" in text

    def test_with_address_keeps_security_fields(self):
        ep = parse_endpoint("h:0?tls=1&token=t", use_env=False)
        bound = ep.with_address("h", 45678)
        assert bound.port == 45678
        assert bound.tls and bound.token == "t"


class TestEnvironmentDefaults:
    def test_ambient_token(self, monkeypatch):
        monkeypatch.delenv("REPRO_NET_TOKEN", raising=False)
        assert ambient_token() is None
        monkeypatch.setenv("REPRO_NET_TOKEN", "  envtok \n")
        assert ambient_token() == "envtok"

    def test_resolve_token_priority(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NET_TOKEN", "envtok")
        secret = tmp_path / "t"
        secret.write_text("filetok")
        assert Endpoint("h", 1, token="inline").resolve_token() == "inline"
        assert (
            Endpoint("h", 1, token_file=str(secret)).resolve_token()
            == "filetok"
        )
        assert Endpoint("h", 1).resolve_token() == "envtok"
        monkeypatch.delenv("REPRO_NET_TOKEN")
        assert Endpoint("h", 1).resolve_token() is None

    def test_missing_token_file_is_readable_error(self):
        with pytest.raises(ValueError, match="token-file"):
            Endpoint("h", 1, token_file="/no/such/file").resolve_token()

    def test_env_tls_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_TLS", "1")
        assert parse_endpoint("h:1").tls
        assert not parse_endpoint("h:1", use_env=False).tls
        assert not parse_endpoint("h:1?tls=0").tls  # explicit beats env
        monkeypatch.setenv("REPRO_NET_TLS", "off")
        assert not parse_endpoint("h:1").tls


class TestAddressAllowlist:
    def test_empty_admits_everyone(self):
        assert AddressAllowlist().permits("203.0.113.9")
        assert not AddressAllowlist(["10.0.0.0/8"]).permits("203.0.113.9")

    def test_cidr_and_bare_ip(self):
        allow = AddressAllowlist(["10.8.0.0/16", "192.0.2.7"])
        assert allow.permits("10.8.3.4")
        assert allow.permits("192.0.2.7")
        assert not allow.permits("10.9.0.1")
        assert not allow.permits("192.0.2.8")

    def test_hostname_entry_resolves(self):
        allow = AddressAllowlist(["localhost"])
        assert allow.permits("127.0.0.1")
        assert not allow.permits("203.0.113.9")

    def test_garbage_peer_is_denied(self):
        assert not AddressAllowlist(["10.0.0.0/8"]).permits("not-an-ip")
