"""Differential tests of wire's HTTP/1.1 framing, with the standard
library as the oracle (McKeeman, "Differential Testing for Software",
1998; RFC 9112 section 6 on message body length).

Each case is the bytes of one message, fed over a socket pair to wire's
reader and to the stdlib's: a request to ``_Conn.request()`` and to
``http.server.BaseHTTPRequestHandler``'s parsing, an answer to
``_Conn.answer()`` and to ``http.client.HTTPResponse``. Both must read
the same method, target and body (the same status and body), or both
refuse the message, except where ``DIVERGENCES`` allows otherwise. The
writing end closes after the bytes, so no read waits for more.
"""

from __future__ import annotations

import http.client
import io
import socket
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxbroker.wire import MAX_BODY_BYTES, _Conn

REFUSED = "refused"

# Where wire may read a message otherwise than the stdlib: per drawn
# feature, how wire's result may differ ("refuses": wire refuses what the
# stdlib reads; "differs": both read it, differently), and why.
DIVERGENCES: dict[str, tuple[tuple[str, ...], str]] = {
    "signed-length": (("refuses",), "Content-Length +N: int() reads it, but RFC 9110 8.6 "
                                    "allows 1*DIGIT only"),
    "repeated-length": (("refuses",), "two Content-Length fields: the stdlib takes the first, "
                                      "wire joins them into N,N, which RFC 9112 6.3 lets it refuse"),
    "bad-length": (("refuses",), "http.client reads an answer whose Content-Length is negative "
                                 "or not a number to the end of the stream; RFC 9112 6.3 makes "
                                 "it unrecoverable"),
    "space-before-colon": (("refuses",), "RFC 9112 5.1 requires refusing it; the stdlib's email "
                                         "parser ends the head there and drops the later fields"),
    "obs-fold": (("refuses",), "RFC 9112 5.2 allows refusing a folded line; the stdlib unfolds it"),
    "cut": (("refuses",), "the stdlib takes the end of the stream as the end of a head or of "
                          "trailers, and a cut request line as HTTP/0.9; wire needs each line "
                          "end and the empty line"),
    "interim-103": (("differs", "refuses"), "http.client returns a 1xx other than 100 as the "
                                            "answer; wire skips every interim answer (RFC 9110 "
                                            "15.2) and reads the next"),
    "padded-coding": (("differs",), "wire drops a field value's trailing whitespace (RFC 9110 "
                                    "5.5); http.client keeps it, so 'chunked ' is not chunked"),
    "chunked-no-content": (("differs", "accepts"), "http.client reads a chunked body after 204 "
                                                   "or 304; wire reads none (RFC 9112 6.3)"),
}


def agree(ours, theirs, features) -> None:
    """Assert that two results are equal, or differ only as
    ``DIVERGENCES`` allows for one of ``features``."""
    if ours == theirs:
        return
    kind = "refuses" if ours == REFUSED else "accepts" if theirs == REFUSED else "differs"
    allowed = [f for f in features if kind in DIVERGENCES.get(f, ((), ""))[0]]
    assert allowed, f"wire {kind}: wire read {ours!r}, the stdlib {theirs!r}; drawn {features}"


def feed(data: bytes, read):
    """``read`` applied to the reading end of a socket pair that holds
    ``data`` and then the end of the stream."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.settimeout(1.0)
        theirs.sendall(data)
        theirs.shutdown(socket.SHUT_WR)
        return read(ours)


def wire_request(sock):
    try:
        request = _Conn(sock).request()
    except OSError:
        return REFUSED
    return REFUSED if request is None else (request[0], request[1], request[3])


class _StdlibRefusal(Exception):
    pass


class _StdlibRequest(BaseHTTPRequestHandler):
    """BaseHTTPRequestHandler's parsing of one request, without a server."""

    protocol_version = "HTTP/1.1"

    def __init__(self, rfile):  # no handle(): the test calls parse_request
        self.rfile, self.wfile = rfile, io.BytesIO()

    def send_error(self, code, message=None, explain=None):
        raise _StdlibRefusal(code)


def stdlib_request(sock):
    """The oracle: the request line and head as http.server parses them;
    the body as the old handler framed it (the first Content-Length, as
    int() reads it, from 0 to MAX_BODY_BYTES), and refused with
    Transfer-Encoding, as both servers now do."""
    with sock.makefile("rb") as rfile:
        handler = _StdlibRequest(rfile)
        handler.raw_requestline = rfile.readline(65537)
        if not handler.raw_requestline or len(handler.raw_requestline) > 65536:
            return REFUSED
        try:
            if not handler.parse_request():
                return REFUSED
        except _StdlibRefusal:
            return REFUSED
        if "Transfer-Encoding" in handler.headers:
            return REFUSED
        try:
            length = int(handler.headers.get("Content-Length") or "0")
        except ValueError:
            return REFUSED
        if not 0 <= length <= MAX_BODY_BYTES:
            return REFUSED
        body = rfile.read(length)
        return REFUSED if len(body) < length else (handler.command, handler.path, body)


def wire_answer(sock):
    try:
        status, body, _ = _Conn(sock).answer()
    except OSError:
        return REFUSED
    return status, body


def stdlib_answer(sock):
    response = http.client.HTTPResponse(sock, method="GET")
    try:
        response.begin()
        return response.status, response.read()
    except (http.client.HTTPException, OSError, ValueError):
        return REFUSED
    finally:
        response.close()


EOLS = st.sampled_from([b"\r\n", b"\r\n", b"\n"])  # a bare LF now and then
CASES = st.sampled_from([str.lower, str.upper, str.title, str])
SEPARATORS = st.sampled_from([":", ": ", ":\t", ":  "])


def rarely(odds: int = 20):
    """True about once in ``odds`` draws; shrinks to False."""
    return st.sampled_from([False] * (odds - 1) + [True])


@st.composite
def heads(draw, start_line: bytes, framing: list[tuple[str, str]], features: set[str]) -> bytes:
    """A head: ``start_line`` and field lines, the ``framing`` fields among
    others, with drawn name case, spacing and line ends; now and then a
    space before the colon, a folded line, a line near the 64 KiB bound,
    or a field count near the bound of 100 lines."""
    others = [("Host", "x")] + draw(st.lists(st.sampled_from(
        [("Accept", "application/json"), ("X-Request-Id", "r-1"), ("Via", "a, b")]), max_size=3))
    lines = [start_line + draw(EOLS)]
    if draw(rarely(6)):  # a line of 64 KiB, or one byte more, with its line end
        eol = draw(EOLS)
        lines.append(b"X-Long: " + b"v" * (draw(st.sampled_from([65536, 65537])) - 8 - len(eol))
                     + eol)
    if draw(rarely(4)):  # a head of 100 lines with its empty line, or one more
        lines.append(b"X-Pad: 0\r\n" * (draw(st.sampled_from([99, 100])) - len(lines) + 1
                                           - len(others) - len(framing)))
    for name, value in draw(st.permutations(others + framing)):
        separator = draw(SEPARATORS)
        if draw(rarely()):
            separator = " " + separator
            features.add("space-before-colon")
        trailing = draw(st.sampled_from(["", "", " ", "\t"]))
        if trailing and name == "Transfer-Encoding":
            features.add("padded-coding")
        lines.append(f"{draw(CASES)(name)}{separator}{value}{trailing}".encode() + draw(EOLS))
        if draw(rarely()):
            lines.append(b" folded" + draw(EOLS))
            features.add("obs-fold")
    return b"".join(lines) + draw(EOLS)


@st.composite
def chunked(draw, body: bytes) -> bytes:
    """``body`` in chunks, with size forms, extensions and trailers."""
    out, rest = b"", body
    while rest:
        size = draw(st.integers(1, len(rest)))
        form = draw(st.sampled_from(["%x", "%X", "%04x"]))
        extension = draw(st.sampled_from(["", ";ext", "; a=b"]))
        out += (form % size + extension).encode() + draw(EOLS) + rest[:size] + b"\r\n"
        rest = rest[size:]
    out += b"0" + draw(st.sampled_from([b"", b";x"])) + draw(EOLS)
    for trailer in draw(st.lists(st.sampled_from([b"X-Trailer: t", b"Expires: 0"]), max_size=2)):
        out += trailer + draw(EOLS)
    return out + draw(EOLS)


@st.composite
def framings(draw, body: bytes, features: set[str]) -> tuple[list[tuple[str, str]], bytes]:
    """The fields that frame ``body`` one drawn way, right or wrong, and
    the bytes that follow the head."""
    n = len(body)
    kind = draw(st.sampled_from(["length"] * 6 + ["none", "none", "chunked", "chunked"] + [
        "padded", "short", "long-body", "too-big", "signed", "repeated", "listed", "negative",
        "word", "chunked+length"]))
    if kind.startswith("chunked"):
        fields = [("Transfer-Encoding", draw(st.sampled_from(["chunked", "Chunked"])))]
        if kind == "chunked+length":
            fields.append(("Content-Length", str(n)))
        features.add("chunked")
        return fields, draw(chunked(body))
    value = {"length": str(n), "padded": "%03d" % n, "short": str(n + 3),
             "long-body": str(n // 2), "too-big": str(MAX_BODY_BYTES + 1), "signed": f"+{n}",
             "repeated": str(n), "listed": f"{n}, {n}", "negative": "-1", "word": "ten"}.get(kind)
    features.add({"signed": "signed-length", "repeated": "repeated-length"}.get(
        kind, "bad-length" if kind in ("listed", "negative", "word") else kind))
    fields = [] if value is None else [("Content-Length", value)] * (2 if kind == "repeated" else 1)
    return fields, body


@st.composite
def cut(draw, data: bytes, features: set[str]) -> bytes:
    """``data``, or now and then a prefix of it cut at any byte."""
    if not draw(rarely(5)):
        return data
    at = draw(st.integers(0, len(data)))
    if at < len(data):
        features.add("cut")
    return data[:at]


@st.composite
def requests(draw) -> tuple[bytes, frozenset[str]]:
    features: set[str] = set()
    method = draw(st.sampled_from(["GET", "POST", "DELETE", "PATCH"]))
    target = draw(st.sampled_from(
        ["/", "/notify", "/topics/a%2Fb/services", "/subscriptions/s-1/topics/t/last?request_id=q"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]))
    if draw(rarely(8)):
        version = draw(st.sampled_from(["HTTP/2.0", "http/1.1", "HTTP/1"]))
    fields, payload = draw(framings(draw(st.binary(max_size=24)), features))
    head = draw(heads(f"{method} {target} {version}".encode(), fields, features))
    return draw(cut(head + payload, features)), frozenset(features)


@st.composite
def answers(draw) -> tuple[bytes, frozenset[str]]:
    features: set[str] = set()
    interim = b""
    for status in draw(st.sampled_from([[], [], [100], [100, 100], [103]])):
        if status == 103:
            features.add("interim-103")
            interim += b"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"
        else:
            interim += b"HTTP/1.1 100 Continue" + draw(EOLS) + draw(EOLS)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]))
    status = draw(st.sampled_from([200, 201, 204, 304, 404, 500]))
    reason = draw(st.sampled_from([" OK", " Some Reason", ""]))
    fields, payload = draw(framings(draw(st.binary(max_size=24)), features))
    if status in (204, 304) and "chunked" in features:
        features.add("chunked-no-content")
    head = draw(heads(f"{version} {status}{reason}".encode(), fields, features))
    return draw(cut(interim + head + payload, features)), frozenset(features)


FRAMING = settings(max_examples=150, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


class TestDifferential:
    @FRAMING
    @given(requests())
    def test_request_reader_agrees_with_http_server(self, case):
        data, features = case
        agree(feed(data, wire_request), feed(data, stdlib_request), features)

    @FRAMING
    @given(answers())
    def test_answer_reader_agrees_with_http_client(self, case):
        data, features = case
        agree(feed(data, wire_answer), feed(data, stdlib_answer), features)


# One message per row of DIVERGENCES, where wire and the stdlib do differ
# that way: the table lists no divergence that does not happen.
SHOWN = {
    "signed-length": (wire_request, stdlib_request,
                      b"POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nab"),
    "repeated-length": (wire_request, stdlib_request,
                        b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab"),
    "bad-length": (wire_answer, stdlib_answer,
                   b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nab"),
    "space-before-colon": (wire_request, stdlib_request,
                           b"POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\nab"),
    "obs-fold": (wire_request, stdlib_request,
                 b"GET / HTTP/1.1\r\nX-A: a\r\n b\r\n\r\n"),
    "cut": (wire_request, stdlib_request, b"GET / HTTP/1.1\r\nHost: x\r\n"),
    "interim-103": (wire_answer, stdlib_answer,
                    b"HTTP/1.1 103 Early Hints\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nab"),
    "padded-coding": (wire_answer, stdlib_answer,
                      b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked \r\n\r\n2\r\nab\r\n0\r\n\r\n"),
    "chunked-no-content": (wire_answer, stdlib_answer,
                           b"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n"
                           b"2\r\nab\r\n0\r\n\r\n"),
}


@pytest.mark.parametrize("feature", sorted(DIVERGENCES))
def test_each_divergence_happens(feature):
    ours, theirs, data = SHOWN[feature]
    got, expected = feed(data, ours), feed(data, theirs)
    kind = "refuses" if got == REFUSED else "accepts" if expected == REFUSED else "differs"
    assert got != expected and kind in DIVERGENCES[feature][0]
