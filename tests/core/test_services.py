"""The service plane: the build_services roster, health reporting,
and the equivalence of the wire handlers with direct service calls."""

import numpy as np
import pytest

from repro import TiptoeEngine
from repro.core.services import build_services
from repro.net import wire
from repro.net.rpc import RpcChannel, frame, unframe
from repro.net.transport import LoopbackTransport, TrafficLog


class TestRoster:
    def test_all_four_services_present(self, engine):
        assert set(engine.services) == {"ranking", "url", "token", "hint"}

    def test_names_match_the_service_objects(self, engine):
        for name, service in engine.services.items():
            assert service.service_name == name
            assert service.endpoint.name == name

    def test_build_services_is_independent_of_the_engine(self, engine):
        services = build_services(engine.index)
        assert set(services) == {"ranking", "url", "token", "hint"}
        for service in services.values():
            service.close()


class TestHealth:
    def test_every_service_reports_ok(self, engine):
        for name, service in engine.services.items():
            report = service.health()
            assert report["service"] == name
            assert report["status"] == "ok"

    def test_ranking_health_counts_workers(self, engine):
        report = engine.services["ranking"].health()
        # One worker -- one kernel plan -- per ranking service.
        assert report["workers"] == 1

    def test_url_health_reports_rows(self, engine):
        report = engine.services["url"].health()
        assert report["rows"] == engine.index.url_db.num_rows


class TestWireHandlersMatchDirectCalls:
    """The endpoint path (decode -> service -> encode) must produce
    byte-for-byte what a direct in-process call would."""

    def test_hint_endpoint_serves_the_exact_hint(self, engine):
        index = engine.index
        ep = engine.services["hint"].endpoint
        _, body = unframe(ep.dispatch(frame("ranking", b"")))
        served, _ = wire.decode_matrix(body)
        np.testing.assert_array_equal(served, index.ranking_prep.hint)
        _, body = unframe(ep.dispatch(frame("url", b"")))
        served, _ = wire.decode_matrix(body)
        np.testing.assert_array_equal(served, index.url_prep.hint)

    def test_channel_routes_to_the_same_bytes(self, engine):
        """RpcChannel over loopback returns exactly what the endpoint
        dispatches, and the traffic log sees both directions."""
        log = TrafficLog()
        channel = RpcChannel(log, engine.transport)
        body = channel.call("hint", "hint", "ranking", b"")
        ep = engine.services["hint"].endpoint
        _, direct = unframe(ep.dispatch(frame("ranking", b"")))
        assert body == direct
        assert log.bytes_up("hint") > 0
        assert log.bytes_down("hint") > 0

    def test_unknown_method_is_a_clear_error(self, engine):
        ep = engine.services["url"].endpoint
        with pytest.raises(KeyError):
            ep.dispatch(frame("nonsense", b""))


class TestEngineModes:
    def test_loopback_engine_owns_its_services(self, engine):
        assert isinstance(engine.transport, LoopbackTransport)
        assert engine.ranking_service is engine.services["ranking"]
        assert engine.url_service is engine.services["url"]

    def test_remote_engine_builds_no_services(self, engine):
        class Dead:
            def request(self, service, request, *, timeout=None):
                raise AssertionError("not called in this test")

            def close(self):
                pass

        remote = TiptoeEngine(engine.index, transport=Dead())
        assert remote.services == {}
        assert remote.ranking_service is None
        assert remote.url_service is None

    def test_endpoint_backcompat_properties(self, engine):
        assert engine.ranking_endpoint is engine.services["ranking"].endpoint
        assert engine.url_endpoint is engine.services["url"].endpoint
        assert engine.token_endpoint is engine.services["token"].endpoint
        assert engine.hint_endpoint is engine.services["hint"].endpoint
