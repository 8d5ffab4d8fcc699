"""The TCP transport: round trips, reconnects, fault recovery, the
slow-loris guard and the circuit breaker."""

from __future__ import annotations

import socket
import time

import pytest

from repro import api, perf
from repro.accelerator import PROPOSED_LA
from repro.errors import (
    CircuitOpenError,
    SessionBudgetExceeded,
    TransportError,
)
from repro.faults import infra
from repro.resilience.incidents import incident_log
from repro.service import ServiceConfig
from repro.service.client import CircuitBreaker, LoopClient, RetryPolicy
from repro.service.net import NetConfig, NetServer
from repro.vm.translator import TranslationOptions, translate_loop
from repro.workloads import kernels as K


@pytest.fixture(autouse=True)
def _clean_slate():
    perf.clear_caches()
    incident_log().clear()
    infra.disarm()
    yield
    infra.disarm()
    perf.clear_caches()
    incident_log().clear()
    incident_log().configure_sink(None)


def _server(**net_kwargs) -> NetServer:
    net_kwargs.setdefault("service", ServiceConfig(workers=1))
    return NetServer(NetConfig(**net_kwargs))


def test_tcp_translate_matches_direct_path():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        with LoopClient(server.host, server.port,
                        session="round-trip") as client:
            assert client.ping()
            served = client.translate(loop)
    perf.clear_caches()
    direct = translate_loop(loop, PROPOSED_LA, TranslationOptions())
    assert served.ok and direct.ok
    assert served.image.ii == direct.image.ii
    assert served.image.schedule.times == direct.image.schedule.times
    assert server.active_connections() == 0


def test_tcp_run_loop_matches_api():
    loop = K.checksum(trip_count=64)
    with _server() as server:
        with LoopClient(server.host, server.port, session="rl") as client:
            served = client.run_loop(loop, seed=77)
    perf.clear_caches()
    assert served == api.run_loop(loop, seed=77)


def test_session_continuity_across_reconnect():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        client = LoopClient(server.host, server.port, session="sticky",
                            budget_units=10_000)
        try:
            assert client.translate(loop).ok
            # Drop the socket behind the client's back; the next call
            # must reconnect and resume the *same* named session.
            client._disconnect()
            assert client.translate(loop).ok
            assert client.stats.reconnects == 2
        finally:
            client.close()
        session = server.service.get_or_open_session("sticky")
        assert session.name == "sticky"


def test_close_is_idempotent_and_concurrent_safe():
    import threading

    from repro.errors import ServiceClosed

    loop = K.fir_filter(taps=4)
    with _server() as server:
        client = LoopClient(server.host, server.port, session="closer")
        assert client.translate(loop).ok
        # Many racing closes (as happens when a pool tears down while
        # a with-block exits) must neither raise nor double-close the
        # descriptor.
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def slam() -> None:
            barrier.wait()
            try:
                client.close()
            except BaseException as exc:  # noqa: BLE001 — the assertion
                errors.append(exc)

        threads = [threading.Thread(target=slam) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = client.close()  # still idempotent after the stampede
        assert stats.requests >= 1
        with pytest.raises(ServiceClosed):
            client.ping()  # closed clients refuse to reconnect


def test_typed_error_crosses_the_wire():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        with LoopClient(server.host, server.port, session="meter",
                        budget_units=1) as client:
            first = client.translate(loop)
            assert first.meter.total_units() > 1
            with pytest.raises(SessionBudgetExceeded) as info:
                client.translate(loop)
            assert info.value.kind == "session-budget"


@pytest.mark.parametrize("mode", infra.NET_FAULT_MODES,
                         ids=lambda m: m.value)
def test_client_recovers_from_each_wire_fault(mode, tmp_path):
    loop = K.fir_filter(taps=4)
    retry = RetryPolicy(attempts=6, base_delay_s=0.01,
                        attempt_timeout_s=0.4)
    with _server() as server:
        with LoopClient(server.host, server.port, session="fault",
                        retry=retry) as client:
            assert client.ping()  # connect + hello before arming
            token = f"test-{mode.value}"
            infra.arm([infra.InfraFaultSpec(mode=mode, token=token,
                                            delay_s=1.0)],
                      str(tmp_path))
            try:
                served = client.translate(loop)
            finally:
                infra.disarm()
    perf.clear_caches()
    direct = translate_loop(loop, PROPOSED_LA, TranslationOptions())
    assert served.ok
    assert served.image.schedule.times == direct.image.schedule.times
    assert infra.fired(str(tmp_path), token)
    injected = [i for i in incident_log().incidents
                if i.details.get("token") == token]
    assert len(injected) == 1 and injected[0].kind == mode.value


def test_slow_loris_client_is_cut_off():
    from repro.service import wire
    with _server(idle_timeout_s=0.3) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as sock:
            sock.sendall(wire.MAGIC[:2])  # trickle, then stall
            sock.settimeout(5.0)
            try:
                leftover = sock.recv(64)
            except (ConnectionResetError, OSError):
                leftover = b""
            assert leftover == b""  # server closed, never hung
        deadline = time.monotonic() + 5.0
        while (server.active_connections() > 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.active_connections() == 0
    slow = [i for i in incident_log().incidents
            if i.kind == "slow-client"]
    assert len(slow) == 1


def test_connect_refused_is_typed():
    client = LoopClient("127.0.0.1", 1,  # reserved port: refused
                        retry=RetryPolicy(attempts=2,
                                          base_delay_s=0.001))
    with pytest.raises(TransportError):
        client.ping(deadline_s=2.0)
    client.close()


def test_circuit_breaker_opens_and_half_opens():
    clock = {"now": 0.0}
    breaker = CircuitBreaker(threshold=2, cooldown_s=1.0,
                             clock=lambda: clock["now"])
    breaker.check()  # closed: no-op
    breaker.record_failure()
    breaker.check()  # one failure: still closed
    breaker.record_failure()
    with pytest.raises(CircuitOpenError):
        breaker.check()
    clock["now"] = 1.5  # past the cooldown: half-open probe allowed
    breaker.check()
    breaker.record_success()
    breaker.check()
    assert breaker.failures == 0


def test_api_connect_uses_settings_defaults():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        with api.connect(server.host, server.port,
                         session="facade") as client:
            assert client.translate(loop).ok


# -- the trust model on a real socket -----------------------------------------

def test_non_loopback_bind_refused_without_secret():
    server = NetServer(NetConfig(host="0.0.0.0"))
    with pytest.raises(TransportError, match="auth secret"):
        server.start()
    server.stop()  # idempotent even though boot was refused


def test_secret_authenticates_end_to_end():
    with _server(auth_secret="s3cret") as server:
        with LoopClient(server.host, server.port, session="keyed",
                        secret="s3cret") as client:
            assert client.ping()


def test_unkeyed_client_rejected_by_keyed_server():
    with _server(auth_secret="s3cret") as server:
        with LoopClient(server.host, server.port, session="unkeyed",
                        retry=RetryPolicy(attempts=2,
                                          attempt_timeout_s=0.5),
                        deadline_s=2.0) as client:
            with pytest.raises(TransportError):
                client.ping()


def test_stop_after_failed_boot_is_clean():
    blocker = socket.socket()
    try:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        server = NetServer(NetConfig(port=port))
        with pytest.raises(TransportError, match="cannot bind"):
            server.start()
        server.stop()  # must not raise on the already-closed loop
        server.stop()
    finally:
        blocker.close()


def test_concurrent_hellos_share_one_session():
    import threading

    from repro.service.server import LoopService, ServiceConfig

    with LoopService(ServiceConfig()) as service:
        barrier = threading.Barrier(8)
        seen = []

        def hello() -> None:
            barrier.wait()
            seen.append(service.get_or_open_session("shared",
                                                    priority=0))

        threads = [threading.Thread(target=hello) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(session) for session in seen}) == 1


def test_stop_with_idle_connection_logs_nothing():
    server = _server().start()
    recorded = []
    server._loop.set_exception_handler(
        lambda loop, context: recorded.append(context))
    client = LoopClient(server.host, server.port, session="idle")
    try:
        assert client.ping()  # the connection now sits idle, open
        raw = socket.create_connection((server.host, server.port))
        try:
            server.stop()
        finally:
            raw.close()
    finally:
        client.close()
    assert recorded == []
    assert server.active_connections() == 0


def test_connection_cancelled_while_closing_ends_normally():
    """A stop() that lands while the handler awaits ``wait_closed`` must
    not leave a cancelled handler task (asyncio logs those)."""
    import asyncio

    server = _server()

    class StuckWriter:
        def __init__(self) -> None:
            self.closing = asyncio.Event()

        def close(self) -> None:
            self.closing.set()

        async def wait_closed(self) -> None:
            await asyncio.Event().wait()

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_eof()  # the client hung up: the handler closes
        writer = StuckWriter()
        task = asyncio.create_task(server._accept(reader, writer))
        await writer.closing.wait()
        task.cancel()
        await asyncio.wait([task])
        return task

    # A private loop: asyncio.run() would unset this thread's current
    # loop, which later tests of the wire layer still rely on.
    loop = asyncio.new_event_loop()
    try:
        task = loop.run_until_complete(scenario())
    finally:
        loop.close()
    assert not task.cancelled()
    assert task.exception() is None
