"""Tests for the hand-rolled HTTP/1.1 layer: parsing, limits, framing."""

import asyncio
import json

import pytest

from repro.serve.http import (
    HttpError,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    json_response,
    read_request,
    response_bytes,
)


def parse(raw: bytes):
    """Feed raw bytes through read_request on a synthetic stream."""

    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(_run())


def test_simple_get():
    request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    assert request.method == "GET"
    assert request.path == "/healthz"
    assert request.headers["host"] == "x"
    assert request.body == b""
    assert request.keep_alive


def test_post_with_content_length_body():
    body = json.dumps({"model": "alexnet"}).encode()
    raw = (
        b"POST /v1/compile HTTP/1.1\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    request = parse(raw)
    assert request.method == "POST"
    assert request.json() == {"model": "alexnet"}


def test_query_string_and_percent_decoding():
    request = parse(b"GET /v1/stats?a=1&b=x%20y HTTP/1.1\r\n\r\n")
    assert request.path == "/v1/stats"
    assert request.query == {"a": "1", "b": "x y"}


def test_connection_close_disables_keep_alive():
    request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert not request.keep_alive


def test_clean_eof_returns_none():
    assert parse(b"") is None


def test_body_split_across_reads():
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(b"POST /x HTTP/1.1\r\nContent-Length: 6\r\n\r\nabc")
        reader.feed_data(b"def")
        reader.feed_eof()
        return await read_request(reader)

    request = asyncio.run(_run())
    assert request.body == b"abcdef"


class TestRejections:
    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as info:
            parse(b"NONSENSE\r\n\r\n")
        assert info.value.status == 400

    def test_unsupported_protocol(self):
        with pytest.raises(HttpError) as info:
            parse(b"GET / SPDY/9\r\n\r\n")
        assert info.value.status == 400

    def test_header_block_over_limit(self):
        filler = b"X-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n"
        with pytest.raises(HttpError) as info:
            parse(b"GET / HTTP/1.1\r\n" + filler + b"\r\n")
        assert info.value.status == 431

    def test_body_over_limit(self):
        raw = f"POST /x HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        with pytest.raises(HttpError) as info:
            parse(raw.encode())
        assert info.value.status == 413

    def test_chunked_transfer_refused(self):
        with pytest.raises(HttpError) as info:
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert info.value.status == 501

    def test_invalid_content_length(self):
        with pytest.raises(HttpError) as info:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
        assert info.value.status == 400

    def test_negative_content_length(self):
        with pytest.raises(HttpError) as info:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert info.value.status == 400

    def test_truncated_body_is_an_error(self):
        with pytest.raises(HttpError) as info:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert info.value.status == 400

    def test_malformed_header_line(self):
        with pytest.raises(HttpError) as info:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert info.value.status == 400

    def test_empty_body_json_rejected(self):
        request = parse(b"POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        with pytest.raises(HttpError) as info:
            request.json()
        assert info.value.status == 400


class TestResponses:
    def test_response_bytes_framing(self):
        raw = response_bytes(200, b"hello", content_type="text/plain")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 5" in head
        assert b"Connection: keep-alive" in head
        assert body == b"hello"

    def test_json_response_roundtrip_and_extra_headers(self):
        raw = json_response(
            429, {"error": "shed"}, headers={"Retry-After": "2"}, keep_alive=False
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 429 Too Many Requests" in head
        assert b"Retry-After: 2" in head
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "shed"}


class TestHostileBodies:
    """Bad field values end in a taxonomy answer, never a 500.

    Bodies are raw JSON text so that out-of-range literals such as
    ``1e309`` reach the daemon as written.
    """

    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve import ServerThread, ServiceConfig

        thread = ServerThread(ServiceConfig(inline=True, workers=1)).start()
        yield thread
        thread.stop()

    @staticmethod
    def post(server, path: str, body: str):
        from http.client import HTTPConnection

        conn = HTTPConnection(server.host, server.port, timeout=60)
        try:
            conn.request("POST", path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "field",
        [
            '"budget_mb": "abc"',
            '"budget_mb": null',
            '"budget_mb": 1e309',
            '"budget_mb": 1e308',
            '"budget_mb": true',
            '"budget_mb": [2]',
            '"top": "x"',
            '"top": -1',
            '"top": 0',
            '"top": 1.5',
            '"top": true',
            '"precision": 5',
        ],
    )
    def test_bad_dse_field_is_400(self, server, field):
        status, payload = self.post(
            server, "/v1/dse", '{"model": "alexnet", %s}' % field
        )
        assert status == 400, payload
        assert field.split(":")[0].strip('"') in payload["error"]["message"]

    @pytest.mark.parametrize("value", ["5", "true", "[\"int8\"]", "{}"])
    def test_non_string_compile_precision_is_400(self, server, value):
        status, payload = self.post(
            server, "/v1/compile", '{"model": "alexnet", "precision": %s}' % value
        )
        assert status == 400, payload
        assert "'precision' must be a string" in payload["error"]["message"]

    @pytest.mark.parametrize("path", ["/v1/compile", "/v1/dse"])
    @pytest.mark.parametrize(
        "value",
        [
            "NaN",
            "Infinity",
            pytest.param("1" + "0" * 400, id="int-beyond-float"),
            "true",
        ],
    )
    def test_non_finite_or_boolean_deadline_is_400(self, server, path, value):
        status, payload = self.post(
            server, path, '{"model": "alexnet", "deadline_seconds": %s}' % value
        )
        assert status == 400, payload
        assert "'deadline_seconds' must be a positive finite number" in (
            payload["error"]["message"]
        )

    @pytest.mark.parametrize("path", ["/v1/compile", "/v1/dse"])
    def test_unknown_precision_is_400(self, server, path):
        status, payload = self.post(
            server, path, '{"model": "alexnet", "precision": "int3"}'
        )
        assert status == 400, payload
        assert payload["error"]["type"] == "PrecisionNotFoundError"
        assert "unknown precision 'int3'" in payload["error"]["message"]
