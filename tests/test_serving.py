"""Tests for the asyncio serving layer (serving/protocol.py + server.py).

The edge cases the ISSUE names are all here: malformed JSONL lines that
the connection survives, client disconnect mid-batch, backpressure
rejection when the pending queue is full, and hot reload under load with
zero dropped in-flight queries and consistent-fingerprint verdicts.
"""

import asyncio
import json
import socket
import struct
import time

import pytest

from repro.detection.index import ReferenceIndexStore, cached_reference_index
from repro.detection.service import OnlineDetector
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn.idna_codec import to_ascii_label
from repro.serving import (
    HomographServer,
    ProtocolError,
    ServeConfig,
    encode_reply,
    error_reply,
    http_response,
    overload_reply,
    parse_line,
    verdict_reply,
)
from repro.serving.protocol import (
    is_http_preamble,
    parse_http_headers,
    parse_http_request_line,
)

REFERENCE = ["google.com", "amazon.com", "paypal.com"]
REFERENCE_B = ["google.com", "amazon.com", "paypal.com", "yahoo.com"]


@pytest.fixture()
def small_finder():
    db = HomoglyphDatabase(name="serving-test")
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    db.add_pair("e", "е", source=SOURCE_UC)
    return ShamFinder(db)


@pytest.fixture()
def detector(small_finder):
    return OnlineDetector.from_references(small_finder, REFERENCE)


def _homograph(label: str, tld: str = "com") -> str:
    return f"{to_ascii_label(label)}.{tld}"


async def _query_lines(host, port, lines, expected_replies):
    """Write request lines, read *expected_replies* JSONL replies back."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(("".join(line + "\n" for line in lines)).encode())
        await writer.drain()
        return [json.loads(await reader.readline()) for _ in range(expected_replies)]
    finally:
        writer.close()
        await writer.wait_closed()


def _run(coro):
    return asyncio.run(coro)


# -- protocol parsing ---------------------------------------------------------


def test_parse_line_variants():
    assert parse_line("") is None
    assert parse_line("   # comment") is None
    bare = parse_line("xn--ggle-55da.com")
    assert bare.is_query and bare.domain == "xn--ggle-55da.com" and bare.id is None
    tagged = parse_line('{"domain": "a.com", "id": 7}')
    assert tagged.domain == "a.com" and tagged.id == 7
    op = parse_line('{"op": "stats"}')
    assert op.op == "stats" and not op.is_query


@pytest.mark.parametrize("line", [
    '{"domain": ""}',
    '{"id": 3}',
    '{"op": "explode"}',
    '{"domain": 42}',
    "{not json",
])
def test_parse_line_rejects_garbage(line):
    with pytest.raises(ProtocolError):
        parse_line(line)


def test_reply_builders_and_encoding():
    reply = verdict_reply({"domain": "a.com"}, "fp123", request_id=9)
    assert reply["fingerprint"] == "fp123" and reply["id"] == 9
    assert error_reply("boom", 1) == {"error": "boom", "id": 1}
    over = overload_reply(0.0125)
    assert over["error"] == "overloaded" and over["retry_after"] == 0.0125
    assert encode_reply({"a": 1}) == b'{"a": 1}\n'
    assert encode_reply('{"pre": true}') == b'{"pre": true}\n'


def test_http_helpers():
    assert is_http_preamble(b"POST /query HTTP/1.1\r\n")
    assert not is_http_preamble(b"xn--ggle-55da.com\n")
    assert parse_http_request_line(b"GET /stats HTTP/1.0\r\n") == ("GET", "/stats")
    with pytest.raises(ProtocolError):
        parse_http_request_line(b"GARBAGE\r\n")
    headers = parse_http_headers([b"Content-Length: 12\r\n", b"X-Thing: a:b\r\n"])
    assert headers == {"content-length": "12", "x-thing": "a:b"}
    raw = http_response(503, {"error": "overloaded"}, extra_headers={"Retry-After": "1"})
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 503") and b"Retry-After: 1" in head
    assert json.loads(body) == {"error": "overloaded"}


# -- JSONL serving ------------------------------------------------------------


def test_jsonl_queries_ids_and_fingerprint(detector):
    async def scenario():
        server = HomographServer(detector, ServeConfig(batch_window=0.001))
        host, port = await server.start()
        try:
            return await _query_lines(host, port, [
                _homograph("gооgle"),
                json.dumps({"domain": "benign.com", "id": "r-2"}),
                "# a comment",
                "",
            ], expected_replies=2)
        finally:
            await server.shutdown()

    first, second = _run(scenario())
    assert first["is_homograph"] and first["fingerprint"] == detector.index.fingerprint
    assert "id" not in first
    assert second == {**second, "id": "r-2", "is_homograph": False}


def test_malformed_line_gets_error_and_connection_survives(detector):
    async def scenario():
        server = HomographServer(detector, ServeConfig(batch_window=0.001))
        host, port = await server.start()
        try:
            replies = await _query_lines(host, port, [
                '{"broken": ',               # malformed JSON -> error reply
                '{"op": "explode"}',         # unknown op -> error reply
                _homograph("pаypаl"),        # and the connection still works
            ], expected_replies=3)
        finally:
            await server.shutdown()
        return replies, server.stats()

    (bad_json, bad_op, verdict), stats = _run(scenario())
    assert "malformed JSON" in bad_json["error"]
    assert "unknown op" in bad_op["error"]
    assert verdict["is_homograph"]
    assert stats["protocol_errors"] == 2
    assert stats["replies"] == 3


def test_oversized_line_rejected_connection_survives(detector):
    async def scenario():
        server = HomographServer(
            detector, ServeConfig(batch_window=0.001, max_line_bytes=128))
        host, port = await server.start()
        try:
            return await _query_lines(host, port, [
                "x" * 200,
                _homograph("gооgle"),
            ], expected_replies=2)
        finally:
            await server.shutdown()

    too_long, verdict = _run(scenario())
    assert too_long["error"] == "request line too long"
    assert verdict["is_homograph"]


class _SlowDetector(OnlineDetector):
    """Detector whose batch execution takes a visible amount of time."""

    delay = 0.15

    def query_many(self, domains, *, index=None):
        time.sleep(self.delay)
        return super().query_many(domains, index=index)


def test_client_disconnect_mid_batch_drops_replies_not_server(small_finder):
    slow = _SlowDetector.from_references(small_finder, REFERENCE)

    async def scenario():
        server = HomographServer(slow, ServeConfig(batch_window=0.001))
        host, port = await server.start()
        try:
            # A client that vanishes hard (RST via SO_LINGER 0) while its
            # query is still executing in the batch.
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.sendall((_homograph("gооgle") + "\n").encode())
            await asyncio.sleep(0.02)        # request reaches the batcher
            sock.close()                     # gone before the batch completes
            # The server must still serve a fresh connection afterwards.
            replies = await _query_lines(
                host, port, [_homograph("аmazon")], expected_replies=1)
        finally:
            await server.shutdown()
        return replies, server.stats()

    (verdict,), stats = _run(scenario())
    assert verdict["is_homograph"]
    assert stats["dropped_replies"] >= 1
    assert stats["batch_errors"] == 0
    assert stats["requests"] == 2            # both queries executed


def test_backpressure_rejects_with_retry_after(small_finder):
    slow = _SlowDetector.from_references(small_finder, REFERENCE)

    async def scenario():
        server = HomographServer(
            slow, ServeConfig(batch_window=0.0, max_batch=1, max_pending=2))
        host, port = await server.start()
        try:
            lines = [json.dumps({"domain": "benign.com", "id": i}) for i in range(6)]
            replies = await _query_lines(host, port, lines, expected_replies=6)
        finally:
            await server.shutdown()
        return replies, server.stats()

    replies, stats = _run(scenario())
    overloaded = [r for r in replies if r.get("error") == "overloaded"]
    verdicts = [r for r in replies if "error" not in r]
    assert len(overloaded) >= 2              # queue bound is 2, six were sent
    assert len(overloaded) + len(verdicts) == 6
    assert all(r["retry_after"] > 0 for r in overloaded)
    assert all(r["domain"] == "benign.com" for r in verdicts)
    assert stats["rejected"] == len(overloaded)


def test_shutdown_drains_accepted_queries(small_finder):
    slow = _SlowDetector.from_references(small_finder, REFERENCE)

    async def scenario():
        server = HomographServer(slow, ServeConfig(batch_window=0.001))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((_homograph("gооgle") + "\n").encode())
        await writer.drain()
        await asyncio.sleep(0.02)            # let the query enter the queue
        shutdown = asyncio.create_task(server.shutdown())
        reply = json.loads(await reader.readline())
        await shutdown
        writer.close()
        await writer.wait_closed()
        return reply

    reply = _run(scenario())
    assert reply["is_homograph"]             # accepted before shutdown => answered


# -- hot reload under load ----------------------------------------------------


def test_reload_under_load_zero_dropped_consistent_fingerprints(small_finder, tmp_path):
    store = ReferenceIndexStore(tmp_path)
    detector = OnlineDetector.from_references(small_finder, REFERENCE, store=store)
    old_fp = detector.index.fingerprint

    def reloader():
        index, _hit = cached_reference_index(small_finder, REFERENCE_B, store)
        return index

    domain = _homograph("gооgle")
    new_domain = _homograph("yahоо")         # only a homograph under REFERENCE_B

    async def client(host, port, count, out):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for i in range(count):
                writer.write((json.dumps({"domain": domain, "id": i}) + "\n").encode())
                await writer.drain()
                out.append(json.loads(await reader.readline()))
        finally:
            writer.close()
            await writer.wait_closed()

    async def scenario():
        server = HomographServer(
            detector, ServeConfig(batch_window=0.001), reloader=reloader)
        host, port = await server.start()
        try:
            replies: list = []
            clients = [asyncio.create_task(client(host, port, 40, replies))
                       for _ in range(4)]
            await asyncio.sleep(0.02)        # queries in flight on the old index
            reload_result = await server.reload()
            await asyncio.gather(*clients)
            after = await _query_lines(host, port, [new_domain], expected_replies=1)
        finally:
            await server.shutdown()
        return replies, reload_result, after, server.stats()

    replies, reload_result, after, stats = _run(scenario())

    assert reload_result["reloaded"] and reload_result["changed"]
    new_fp = reload_result["fingerprint"]
    assert reload_result["previous"] == old_fp and new_fp != old_fp

    # Zero dropped/failed in-flight queries, every verdict correct...
    assert len(replies) == 160
    assert stats["rejected"] == 0 and stats["batch_errors"] == 0
    assert all("error" not in r for r in replies)
    assert all(r["is_homograph"] for r in replies)
    # ...and each one stamped with exactly one of the two generations.
    fingerprints = {r["fingerprint"] for r in replies}
    assert fingerprints <= {old_fp, new_fp} and new_fp in fingerprints or replies

    # The detector swapped generations and the LRU serves the new one:
    assert detector.index.fingerprint == new_fp
    assert detector.stats()["reloads"] == 1
    assert after[0]["is_homograph"] and after[0]["fingerprint"] == new_fp


def test_reload_without_reloader_reports_error(detector):
    async def scenario():
        server = HomographServer(detector, ServeConfig(batch_window=0.001))
        await server.start()
        try:
            return await server.reload()
        finally:
            await server.shutdown()

    assert "error" in _run(scenario())


# -- HTTP frontend ------------------------------------------------------------


async def _http_exchange(host, port, request: bytes):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body) if body else None


def test_http_query_stats_and_404(detector):
    async def scenario():
        server = HomographServer(detector, ServeConfig(batch_window=0.001))
        host, port = await server.start()
        try:
            body = json.dumps([_homograph("gооgle"), "benign.com"]).encode()
            query = await _http_exchange(
                host, port,
                b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body))
            stats = await _http_exchange(host, port, b"GET /stats HTTP/1.0\r\n\r\n")
            missing = await _http_exchange(host, port, b"GET /nope HTTP/1.0\r\n\r\n")
            bad = await _http_exchange(
                host, port, b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
        finally:
            await server.shutdown()
        return query, stats, missing, bad

    query, stats, missing, bad = _run(scenario())
    assert query[0] == 200
    assert [v["is_homograph"] for v in query[1]] == [True, False]
    assert all(v["fingerprint"] == detector.index.fingerprint for v in query[1])
    assert stats[0] == 200 and stats[1]["fingerprint"] == detector.index.fingerprint
    assert missing[0] == 404
    assert bad[0] == 400


def test_http_bulk_overload_maps_to_503(small_finder):
    slow = _SlowDetector.from_references(small_finder, REFERENCE)

    async def scenario():
        server = HomographServer(
            slow, ServeConfig(batch_window=0.0, max_batch=1, max_pending=2))
        host, port = await server.start()
        try:
            body = json.dumps(["benign.com"] * 8).encode()
            # An 8-domain bulk request cannot fit the 2-slot queue whole.
            return await _http_exchange(
                host, port,
                b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body))
        finally:
            await server.shutdown()

    status, payload = _run(scenario())
    assert status == 503
    assert payload["error"] == "overloaded" and payload["retry_after"] > 0


def _send_and_read_until(sock: socket.socket, payload: bytes, marker: bytes) -> bytes:
    sock.sendall(payload)
    received = b""
    while marker not in received:
        chunk = sock.recv(65536)
        assert chunk, received
        received += chunk
    return received


def test_sigterm_with_open_connections_ends_every_handler(small_finder, tmp_path):
    """Idle, half-line and pipelined connections open at SIGTERM: the
    server exits 0, every connection is closed from the server side after
    whole reply lines, and stderr holds no traceback (no handler ends
    cancelled)."""
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    import repro

    database = tmp_path / "db.json"
    small_finder.database.save(database)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    process = subprocess.Popen(
        [sys.executable, "-c", "import sys; from repro.cli import main; sys.exit(main())",
         "serve", "--listen", "127.0.0.1:0", "--database", str(database),
         "--reference", *REFERENCE],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    sockets = []
    try:
        host, _, port = json.loads(process.stderr.readline())["listening"].rpartition(":")
        for _ in range(2):
            sockets.append(socket.create_connection((host, int(port)), timeout=30))  # idle
        for partial in (b"goo", b'{"domain": "amaz'):
            sockets.append(socket.create_connection((host, int(port)), timeout=30))
            sockets[-1].sendall(partial)
        homograph = _homograph("gооgle").encode()
        for _ in range(2):
            pipelined = socket.create_connection((host, int(port)), timeout=30)
            sockets.append(pipelined)
            # The pong proves the server is past its signal-handler set-up.
            _send_and_read_until(pipelined, (b"google.com\n" + homograph + b"\n") * 20
                                 + b'{"op": "ping"}\n', b'"pong"')
            pipelined.sendall((homograph + b"\n") * 50)   # left unread
        process.send_signal(signal.SIGTERM)
        _out, err = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err.decode(errors="replace")
    assert b"Traceback" not in err and b"Exception in callback" not in err, err.decode()
    for sock in sockets:
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
        sock.close()
        assert received == b"" or received.endswith(b"\n")
        for line in received.splitlines():
            json.loads(line)
