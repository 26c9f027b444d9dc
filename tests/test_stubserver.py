from __future__ import annotations

import contextlib
import email.utils
import io
import json
import socket
import string
import struct
import sys
import time

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import serve_in_thread
from faqgen import stubserver
from faqgen.chunker import Chunk, SourceDocument, segment_sentences
from faqgen.domains import classify, default_lexicon
from faqgen.gateway import (
    BackendEndpointSet,
    STUB_HANDLERS,
    generate_questions,
)
from faqgen.pipeline import PipelineConfig, run
from faqgen.stubserver import MAX_BODY_BYTES, BindFailure, create_server

CONTEXT = "Cats sleep daily. Dogs bark loudly. Birds fly south."
# The in-process stubs read the chunk whose context a request carries.
CHUNK = Chunk(index=0, sentences=tuple(segment_sentences(CONTEXT)))

# Lexicon terms, stopwords (stopword-only sentences have no question anchor)
# and a punctuation-only token (a sentence of it has no tokens at all).
WORDS = ["cats", "dogs", "music", "football", "quantum", "melody", "sentence",
         "the", "it", "is", "of", "--"]
SENTENCES = st.builds(
    lambda words, end: " ".join(words).capitalize() + end,
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
    st.sampled_from([".", "!", "?", ""]),
)


def post(url, path, payload):
    return requests.post(f"{url}{path}", json=payload, timeout=5)


class TestHealthAndRouting:
    def test_health(self, stub_server_url):
        response = requests.get(f"{stub_server_url}/v1/health", timeout=5)
        assert response.status_code == 200
        assert response.json() == {"status": "ok"}

    def test_unknown_path_404(self, stub_server_url):
        assert post(stub_server_url, "/v1/nothing", {}).status_code == 404
        assert requests.get(f"{stub_server_url}/v1/missing", timeout=5).status_code == 404

    def test_invalid_json_422(self, stub_server_url):
        response = requests.post(
            f"{stub_server_url}/v1/domain", data=b"not json", timeout=5
        )
        assert response.status_code == 422
        assert "error" in response.json()

    def test_deeply_nested_json_422(self, stub_server_url):
        response = requests.post(
            f"{stub_server_url}/v1/domain", data=b"[" * 200_000, timeout=5
        )
        assert response.status_code == 422
        assert "error" in response.json()
        assert requests.get(f"{stub_server_url}/v1/health", timeout=5).status_code == 200

    @pytest.mark.parametrize("body", ["[1]", ""])
    def test_body_that_is_not_an_object_422(self, stub_server_url, body):
        status, payload = raw_post(
            stub_server_url, f"POST /v1/domain HTTP/1.0\r\nContent-Length: {len(body)}", body
        )
        assert status == b"422"
        assert payload == {"error": "request body must be a JSON object"}

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/questions", r'{"context": "\ud800 Hello world.", "domain": "Music", "cap": 1}'),
            ("/v1/answer_phrase", r'{"context": "Hello world. \udc00", "question": "What?"}'),
        ],
    )
    def test_lone_surrogate_422(self, stub_server_url, path, body):
        # Valid JSON, but a reply echoing the surrogate cannot be UTF-8.
        response = requests.post(f"{stub_server_url}{path}", data=body.encode(), timeout=5)
        assert response.status_code == 422
        assert isinstance(response.json()["error"], str)
        assert requests.get(f"{stub_server_url}/v1/health", timeout=5).status_code == 200


class TestValidation:
    @pytest.mark.parametrize(
        "path,payload",
        [
            ("/v1/domain", {"context": "   "}),
            ("/v1/questions", {"context": "", "domain": "Gaming", "cap": 3}),
            ("/v1/answer_phrase", {"context": " ", "question": "What?"}),
            ("/v1/complete_answer", {"context": "", "question": "What?", "answer_phrase": "x"}),
        ],
    )
    def test_blank_context_422(self, stub_server_url, path, payload):
        response = post(stub_server_url, path, payload)
        assert response.status_code == 422
        assert "error" in response.json()

    def test_unknown_domain_422(self, stub_server_url):
        response = post(
            stub_server_url,
            "/v1/questions",
            {"context": CONTEXT, "domain": "Astrology", "cap": 3},
        )
        assert response.status_code == 422

    def test_cap_below_one_422(self, stub_server_url):
        response = post(
            stub_server_url,
            "/v1/questions",
            {"context": CONTEXT, "domain": "Gaming", "cap": 0},
        )
        assert response.status_code == 422

    def test_missing_question_422(self, stub_server_url):
        response = post(stub_server_url, "/v1/answer_phrase", {"context": CONTEXT})
        assert response.status_code == 422


class TestRoundTrip:
    def test_questions_match_in_process_stub(self, stub_server_url):
        response = post(
            stub_server_url,
            "/v1/questions",
            {"context": CONTEXT, "domain": "Diaries and Daily Life", "cap": 5},
        )
        assert response.status_code == 200
        assert response.json() == STUB_HANDLERS["questions"](
            {"context": CONTEXT, "domain": "Diaries and Daily Life", "cap": 5},
            None, CHUNK,
        )

    def test_domain_matches_lexicon_classifier(self, stub_server_url):
        context = "The quantum experiment used new laboratory technology."
        response = post(stub_server_url, "/v1/domain", {"context": context})
        assert response.json() == {"domain": classify(context, default_lexicon())}

    def test_answer_phrase_and_completion_match(self, stub_server_url):
        question = "What does the passage state about dogs?"
        phrase = post(
            stub_server_url, "/v1/answer_phrase", {"context": CONTEXT, "question": question}
        )
        assert phrase.json() == STUB_HANDLERS["answer_phrase"](
            {"context": CONTEXT, "question": question}, None, CHUNK
        )
        body = {"context": CONTEXT, "question": question,
                "answer_phrase": phrase.json()["answer_phrase"]}
        answer = post(stub_server_url, "/v1/complete_answer", body)
        assert answer.json() == STUB_HANDLERS["complete_answer"](
            body, None, CHUNK
        )

    def test_gateway_client_against_stub_server_equals_in_process(self, stub_server_url):
        endpoints = BackendEndpointSet(
            questions_url=f"{stub_server_url}/v1/questions", max_retries=0
        )
        chunk = Chunk(index=7, sentences=tuple(segment_sentences(CONTEXT)))
        remote = generate_questions(chunk, "Diaries and Daily Life", endpoints=endpoints)
        local = generate_questions(chunk, "Diaries and Daily Life")
        assert remote == local


def read_reply(sock: socket.socket) -> tuple[bytes, bytes] | None:
    """One reply's status code and body from *sock*, or None when the
    server has closed the connection instead of replying."""
    data = b""
    try:
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(next(
            line.split(b":")[1] for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        ))
        while len(body) < length:
            chunk = sock.recv(4096)
            if not chunk:
                return None
            body += chunk
    except ConnectionResetError:
        return None
    return head.split()[1], body


def connect(url: str) -> socket.socket:
    host, port = url.removeprefix("http://").split(":")
    return socket.create_connection((host, int(port)), timeout=5)


def raw_post(url: str, head: str, body: str) -> tuple[bytes, dict]:
    """Send *head* and *body* on one socket and return the reply's status
    code and JSON body."""
    with connect(url) as sock:
        sock.sendall(f"{head}\r\n\r\n{body}".encode("latin-1"))
        status, payload = read_reply(sock)
    return status, json.loads(payload)


class TestFraming:
    # int() takes "1_0" as 10 and "+2" as 2; "²" is a digit to str.isdigit().
    # An empty length or a second one leaves the body's end in doubt.
    @pytest.mark.parametrize(
        "length",
        ["abc", "-5", "1_0", "+2", "\xb2", "0x2", "",
         pytest.param("2\r\nContent-Length: 1", id="twice")],
    )
    def test_bad_content_length_400(self, stub_server_url, length):
        status, payload = raw_post(
            stub_server_url, f"POST /v1/domain HTTP/1.0\r\nContent-Length: {length}", "{}"
        )
        assert status == b"400"
        assert "error" in payload

    def test_content_length_of_thousands_of_digits_is_read(self, stub_server_url):
        # int() refuses a decimal string of more than 4,300 digits; the body
        # here is two bytes long, so the request gets its reply.
        status, payload = raw_post(
            stub_server_url,
            "POST /v1/domain HTTP/1.0\r\nContent-Length: " + "0" * 5000 + "2",
            "{}",
        )
        assert status == b"422"
        assert payload == {"error": "blank or missing 'context'"}

    def test_oversized_content_length_413_without_reading_body(self, stub_server_url):
        # Only two bytes of the declared body are ever sent: a server that
        # tried to read it all would wait until the client timed out.
        status, payload = raw_post(
            stub_server_url,
            f"POST /v1/domain HTTP/1.0\r\nContent-Length: {MAX_BODY_BYTES + 1}",
            "{}",
        )
        assert status == b"413"
        assert "error" in payload


DOMAIN_BODY = json.dumps({"context": CONTEXT})
DOMAIN_REQUEST = (
    f"POST /v1/domain HTTP/1.1\r\nHost: stub\r\nContent-Length: {len(DOMAIN_BODY)}"
    f"\r\n\r\n{DOMAIN_BODY}"
).encode("ascii")


def domain_reply() -> tuple[bytes, bytes]:
    body = {"domain": classify(CONTEXT, default_lexicon())}
    return b"200", json.dumps(body, ensure_ascii=False).encode("utf-8")


UNREAD_BODY = '{"context": "x"}'


class TestKeepAlive:
    def test_requests_share_one_connection(self, stub_server_url):
        with connect(stub_server_url) as sock:
            for _ in range(3):
                sock.sendall(DOMAIN_REQUEST)
                assert read_reply(sock) == domain_reply()

    @pytest.mark.parametrize(
        "head,status",
        [
            (f"POST /v1/missing HTTP/1.1\r\nContent-Length: {len(UNREAD_BODY)}", b"404"),
            ("POST /v1/domain HTTP/1.1\r\nContent-Length: abc", b"400"),
            (f"POST /v1/domain HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}", b"413"),
            # The server reads only bodies framed by Content-Length.
            ("POST /v1/domain HTTP/1.1\r\nTransfer-Encoding: chunked", b"400"),
        ],
    )
    def test_unread_body_is_never_the_next_request(self, stub_server_url, head, status):
        # The server answers before reading the body. If the connection
        # stayed open, the body would be parsed as the next request line.
        with connect(stub_server_url) as sock:
            sock.sendall(f"{head}\r\nHost: stub\r\n\r\n{UNREAD_BODY}".encode("ascii"))
            reply = read_reply(sock)
            assert reply is not None and reply[0] == status
            try:
                sock.sendall(DOMAIN_REQUEST)
            except (BrokenPipeError, ConnectionResetError):
                return
            assert read_reply(sock) in (None, domain_reply())

    @pytest.mark.parametrize(
        "version, connection, stays_open",
        [
            (b"HTTP/1.0", None, False),
            (b"HTTP/1.0", b"keep-alive", True),
            (b"HTTP/1.1", b"close", False),
            (b"HTTP/1.1", None, True),
        ],
    )
    def test_version_and_connection_header_decide_closing(
        self, stub_server_url, version, connection, stays_open
    ):
        line = b"POST /v1/domain " + version
        if connection:
            line += b"\r\nConnection: " + connection
        with connect(stub_server_url) as sock:
            sock.sendall(DOMAIN_REQUEST.replace(b"POST /v1/domain HTTP/1.1", line, 1))
            assert read_reply(sock) == domain_reply()
            if stays_open:
                sock.sendall(DOMAIN_REQUEST)
                assert read_reply(sock) == domain_reply()
            else:
                assert sock.recv(1) == b""

    @pytest.mark.parametrize("line", [b"no colon here", b" Folded: value", b"Name : value"])
    def test_malformed_header_line_is_400_and_its_body_unread(self, stub_server_url, line):
        # A header line the server cannot name must not hide the
        # Content-Length after it, or the body would be the next request.
        request = DOMAIN_REQUEST.replace(b"Host: stub", b"Host: stub\r\n" + line, 1)
        status, payload = only_reply(exchange(stub_server_url, request))
        assert status == 400 and list(payload) == ["error"]

    def test_double_slash_path_is_collapsed(self, stub_server_url):
        reply = only_reply(exchange(stub_server_url, b"GET //v1/health HTTP/1.1\r\n\r\n"))
        assert reply == (200, {"status": "ok"})

    def test_expect_continue_is_answered_before_the_body(self, stub_server_url):
        # A client that sends "Expect: 100-continue" holds its body back
        # until the interim reply arrives, or until its own timeout.
        head = DOMAIN_REQUEST.replace(b"Host: stub", b"Host: stub\r\nExpect: 100-continue", 1)
        head, _, body = head.partition(b"\r\n\r\n")
        with connect(stub_server_url) as sock:
            sock.settimeout(1)
            sock.sendall(head + b"\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                received = sock.recv(4096)
                assert received, "closed before any interim reply"
                interim += received
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            assert read_reply(sock) == domain_reply()


class TestDateHeader:
    def test_replies_in_a_row_carry_the_date(self, stub_server_url):
        for _ in range(2):
            head = exchange(stub_server_url, DOMAIN_REQUEST).partition(b"\r\n\r\n")[0]
            fields = dict(line.split(": ", 1) for line in head.decode("latin-1").split("\r\n")[1:])
            sent = email.utils.parsedate_to_datetime(fields["Date"])
            assert abs(sent.timestamp() - time.time()) < 2


class TestRequestDeadline:
    """A connection whose next request head and body have not arrived
    ``REQUEST_SECONDS`` after the server began to wait for them is closed,
    with no reply and no traceback."""

    @pytest.fixture
    def quick_server(self, monkeypatch):
        """A server of its own with a 0.2 s bound; yields its URL and what it
        printed to stderr."""
        monkeypatch.setattr(stubserver, "REQUEST_SECONDS", 0.2)
        server = create_server("127.0.0.1", 0)
        serve_in_thread(server)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                yield f"http://127.0.0.1:{server.server_address[1]}", err
        finally:
            server.shutdown()
            server.server_close()

    def test_silent_connection_is_closed(self, quick_server):
        url, err = quick_server
        with connect(url) as sock:
            start = time.perf_counter()
            assert sock.recv(1) == b""
            assert time.perf_counter() - start < 1
        assert health_ok(url)
        assert err.getvalue() == ""

    def test_trickled_head_is_closed(self, quick_server):
        url, err = quick_server
        with connect(url) as sock:
            sock.settimeout(0.05)
            start = time.perf_counter()
            received = None
            # A byte per 50 ms: the whole head would take over 2 s.
            for byte in DOMAIN_REQUEST:
                try:
                    sock.sendall(bytes([byte]))
                    received = sock.recv(65536)
                except TimeoutError:
                    continue
                except ConnectionError:
                    received = b""
                break
            seconds = time.perf_counter() - start
        assert received == b""
        assert seconds < 1
        assert health_ok(url)
        assert err.getvalue() == ""


class TestOfflineEqualsHttp:
    @given(
        sentences=st.lists(SENTENCES, min_size=1, max_size=8),
        chunk_size=st.integers(3, 30),
        cap=st.integers(1, 5),
        count=st.integers(1, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_pipeline_output_is_the_same(self, stub_server_url, sentences, chunk_size, cap, count):
        document = SourceDocument.from_text("doc", " ".join(sentences))
        offline = PipelineConfig(
            chunk_size_words=chunk_size, question_cap=cap, requested_faq_count=count,
            worker_count=1,
        )
        http = PipelineConfig(
            chunk_size_words=chunk_size, question_cap=cap, requested_faq_count=count,
            worker_count=1,
            endpoints=BackendEndpointSet(
                **{f"{step}_url": f"{stub_server_url}/v1/{step}"
                   for step in ("domain", "questions", "answer_phrase", "complete_answer")},
                max_retries=0,
            ),
        )
        local, remote = run(document, offline), run(document, http)
        assert local.faqs == remote.faqs
        assert local.total_generated == remote.total_generated
        assert local.per_chunk_domains == remote.per_chunk_domains
        assert [(w.kind, w.chunk_index) for w in local.warnings] == [
            (w.kind, w.chunk_index) for w in remote.warnings
        ]
        if not local.warnings and not remote.warnings:
            assert local.to_json() == remote.to_json()


    def test_many_workers_over_http(self, stub_server_url, fixture_document_text):
        # Each worker thread posts through its own session; a session or
        # connection shared between threads could mix up replies.
        document = SourceDocument.from_text("doc", " ".join([fixture_document_text] * 4))
        endpoints = BackendEndpointSet(
            **{f"{step}_url": f"{stub_server_url}/v1/{step}"
               for step in ("domain", "questions", "answer_phrase", "complete_answer")},
            max_retries=0,
        )
        offline = run(document, PipelineConfig(chunk_size_words=10, requested_faq_count=20))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            remote = run(document, PipelineConfig(
                chunk_size_words=10, requested_faq_count=20, worker_count=8, endpoints=endpoints
            ))
        finally:
            sys.setswitchinterval(interval)
        assert not offline.warnings
        assert remote.to_json() == offline.to_json()


class TestBind:
    def test_bind_failure(self, stub_server_url):
        port = int(stub_server_url.rsplit(":", 1)[1])
        with pytest.raises(BindFailure):
            create_server("127.0.0.1", port)


# Every status the stub server sends, as the README lists them.
DOCUMENTED_STATUSES = {200, 400, 404, 413, 414, 422, 431, 501, 505}


def exchange(url: str, request: bytes) -> bytes:
    """Send *request*, shut down the socket's write side and return every
    byte the server sends before it closes the connection."""
    with connect(url) as sock:
        try:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server replied and closed before reading it all
        data = b""
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except ConnectionResetError:
            pass  # it closed with unread request bytes, after its reply
    return data


def only_reply(data: bytes) -> tuple[int, dict]:
    """The status and JSON body of *data*, which must be exactly one
    HTTP/1.1 reply framed by its Content-Length."""
    head, separator, body = data.partition(b"\r\n\r\n")
    assert separator, data[:200]
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    version, status, _ = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert headers["Content-Type"] == "application/json; charset=utf-8"
    assert len(body) == int(headers["Content-Length"]), "more or less than one reply"
    return int(status), json.loads(body)


def health_ok(url: str) -> bool:
    return only_reply(exchange(url, b"GET /v1/health HTTP/1.1\r\n\r\n")) == (200, {"status": "ok"})


class TestHttpErrors:
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            pytest.param(b"GARBAGE\r\n\r\n", 400, id="one-word"),
            pytest.param(b"\r\n", 400, id="blank"),
            pytest.param(b"POST /v1/domain\r\n\r\n", 400, id="no-version-post"),
            # A two-word GET is HTTP/0.9 to http.server, which sends no status line.
            pytest.param(b"GET /v1/health\r\n\r\n", 400, id="no-version-get"),
            pytest.param(b"GET /v1/health HTTP/0.8\r\n\r\n", 400, id="http-0.8"),
            pytest.param(b"GET /v1/health HTTP/2.0\r\n\r\n", 505, id="http-2"),
            pytest.param(
                b"PUT /v1/domain HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501, id="put"
            ),
            pytest.param(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414, id="long-line"),
            pytest.param(
                b"GET /v1/health HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431,
                id="long-header",
            ),
            pytest.param(
                b"GET /v1/health HTTP/1.1\r\n" + b"X-Many: y\r\n" * 101 + b"\r\n", 431,
                id="many-headers",
            ),
        ],
    )
    def test_json_error_with_status_line(self, stub_server_url, request_bytes, status):
        reply = only_reply(exchange(stub_server_url, request_bytes))
        assert reply[0] == status
        assert list(reply[1]) == ["error"] and isinstance(reply[1]["error"], str)
        assert health_ok(stub_server_url)

    def test_client_reset_prints_no_traceback(self):
        body = json.dumps({"context": "Cats sleep daily. " * 20_000}).encode("ascii")
        request = b"POST /v1/domain HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        # A server of its own: server_close() joins its handler threads, so
        # all they print has reached stderr before it is read.
        server = create_server("127.0.0.1", 0)
        serve_in_thread(server)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                for _ in range(3):
                    with connect(url) as sock:
                        # Linger 0: close() resets the connection at once.
                        sock.setsockopt(
                            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                        )
                        sock.sendall(request)
                assert health_ok(url)
            finally:
                server.shutdown()
                server.server_close()
        assert err.getvalue() == ""


LATIN1_LINE = st.text(st.characters(max_codepoint=255, blacklist_characters="\r\n"), max_size=30)
TOKEN = st.text(string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~", min_size=1, max_size=12)
REQUEST_LINE = st.one_of(
    st.builds(
        lambda *words: " ".join(word for word in words if word),
        st.sampled_from(["GET", "POST", "POST", "POST", "PUT", "HEAD", "get", ""]) | TOKEN,
        st.sampled_from(["/v1/health", "/v1/domain", "/v1/questions", "/v1/answer_phrase",
                         "/v1/complete_answer", "/", "//v1/health", "/v1/nothing", ""])
        | LATIN1_LINE.filter(lambda text: " " not in text),
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/0.9", "HTTP/1",
                         "http/1.1", "HTTP/1.1.1", "HTTP/01.1", ""]),
    ),
    LATIN1_LINE,
)
HEADER = st.tuples(
    st.sampled_from(["Host", "Connection", "Content-Type", "Transfer-Encoding"]) | TOKEN,
    st.sampled_from(["close", "keep-alive", "chunked", "application/json"]) | LATIN1_LINE,
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
PROTOCOL_BODY = st.fixed_dictionaries(
    {},
    optional={
        "context": st.sampled_from([CONTEXT, "", "\ud800 Hello world."]) | st.text(max_size=40),
        "domain": st.sampled_from(["Music", "Gaming", "Astrology"]),
        "cap": st.sampled_from([1, 3, 0, True, "2", 2**63, 10**30]),
        "question": st.sampled_from(["What does the passage state about dogs?", ""]),
        "answer_phrase": st.sampled_from(["dogs bark", " "]),
    },
)
BODY = st.one_of(
    st.builds(lambda body: json.dumps(body).encode("ascii"), PROTOCOL_BODY),
    st.builds(lambda value: json.dumps(value).encode("ascii"), JSON_VALUE),
    st.binary(max_size=40),
)
# A Content-Length below the body's length would leave the rest to be read
# as a second request, so every declared length covers the body, or is one
# the server rejects before reading.
CONTENT_LENGTH = st.sampled_from(["exact", "exact", "over", "twice", None, "1_0", "+2", "-1",
                                  "x", "", str(MAX_BODY_BYTES + 1)])


@st.composite
def raw_requests(draw) -> bytes:
    body = draw(BODY)
    length = draw(CONTENT_LENGTH)
    headers = draw(st.lists(HEADER, max_size=4))
    if length is None:
        body = b""
    else:
        declared = {"exact": len(body), "over": len(body) + 3}.get(length, length)
        if length == "twice":
            declared = f"{len(body)}\r\nContent-Length: {len(body) + 1}"
        headers.insert(0, ("Content-Length", str(declared)))
    head = draw(REQUEST_LINE) + "\r\n" + "".join(f"{name}: {value}\r\n" for name, value in headers)
    return (head + "\r\n").encode("latin-1") + body


def framed_post(step: str, **body) -> bytes:
    """A well-framed POST of *body* to the step's path."""
    data = json.dumps(body).encode("ascii")
    return b"POST /v1/%b HTTP/1.1\r\nContent-Length: %d\r\n\r\n%b" % (
        step.encode("ascii"), len(data), data
    )


class TestAnyRequestProperty:
    @settings(max_examples=150, deadline=None)
    @given(request_bytes=raw_requests())
    # Drawn requests rarely reach a handler, so each step gets a valid one.
    @example(request_bytes=framed_post("questions", context=CONTEXT, domain="Music", cap=2**63))
    @example(request_bytes=framed_post("questions", context=CONTEXT, domain="Music", cap=10**30))
    @example(request_bytes=framed_post("domain", context=CONTEXT))
    @example(request_bytes=framed_post(
        "answer_phrase", context=CONTEXT, question="What does the passage state about dogs?"
    ))
    @example(request_bytes=framed_post(
        "complete_answer", context=CONTEXT, question="What does the passage state about dogs?",
        answer_phrase="dogs bark",
    ))
    def test_one_json_reply_and_no_traceback(self, stub_server_url, request_bytes):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            # The server closes only after any traceback is printed.
            status, payload = only_reply(exchange(stub_server_url, request_bytes))
            assert health_ok(stub_server_url)
        assert status in DOCUMENTED_STATUSES
        if status != 200:
            assert list(payload) == ["error"] and isinstance(payload["error"], str)
        assert "Traceback" not in err.getvalue()
