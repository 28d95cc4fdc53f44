"""Closed-loop HTTP load generator for ``repro serve http``.

Each connection is a thread holding one keep-alive socket; it sends its
next request only after the previous reply has been read in full, so the
loop models callers that wait for each answer. Requests are numbered from
one shared counter and their bodies are built from a fixed, seed-derived
article stream, so the inputs do not depend on which connection sends
them. Latency is socket to socket: from just before ``sendall`` to the
last byte of the reply body.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import REQUEST_ID_HEADER

REQUEST_SCHEMA = "repro.serve.request/1"
SOCKET_TIMEOUT = 60.0


class Article:
    """One corpus article as the load generator sends it.

    A ``variant`` appends that many spaces to the text: the tokens, hence
    the features and the prediction, are unchanged, but the text (and so
    the serving feature-cache key) is new.
    """

    __slots__ = ("text", "creator_id", "subject_ids", "label", "_head", "_tail")

    def __init__(self, text: str, creator_id: str, subject_ids: List[str], label: int):
        self.text, self.creator_id, self.subject_ids = text, creator_id, subject_ids
        self.label = label
        # The JSON object after the minted id, split inside the text string
        # so a variant is two concatenations.
        self._head = '"text": ' + json.dumps(text)[:-1]
        self._tail = '", ' + json.dumps(
            {"creator_id": creator_id, "subject_ids": subject_ids})[1:]

    def fragment(self, variant: int) -> str:
        return self._head + " " * variant + self._tail

    def payload(self, variant: int) -> Dict:
        return {"text": self.text + " " * variant, "creator_id": self.creator_id,
                "subject_ids": self.subject_ids}


class Record:
    """One request as the client saw it."""

    __slots__ = ("request_id", "articles", "phase", "t_send", "t_recv",
                 "status", "body", "error")

    def __init__(self, request_id: str, articles: Sequence[Tuple[int, int]],
                 phase: str):
        self.request_id = request_id
        self.articles = articles
        self.phase = phase
        self.t_send = 0.0
        self.t_recv = 0.0
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None

    def article_ids(self) -> List[str]:
        return [f"{self.request_id}.{k}" for k in range(len(self.articles))]


def encode_body(request_id: str, articles: Sequence[Article], picks) -> bytes:
    """``picks`` are the request's ``(article index, variant)`` pairs."""
    parts = [
        '{"article_id": "%s.%d", %s' % (request_id, k, articles[i].fragment(v))
        for k, (i, v) in enumerate(picks)
    ]
    return (
        '{"schema": "%s", "return_proba": true, "articles": [%s]}'
        % (REQUEST_SCHEMA, ", ".join(parts))
    ).encode()


def _connect(host: str, port: int):
    sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")


def _exchange(sock, reader, head: bytes, body: bytes):
    sock.sendall(head + body)
    status_line = reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(None, 2)[1])
    length = 0
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    data = reader.read(length)
    if len(data) != length:
        raise ConnectionError("short reply body")
    return status, data


class ClosedLoop:
    """``connections`` closed-loop senders over one request stream.

    ``next_articles(n)`` returns the ``(article index, variant)`` pairs of
    request ``n``; ``run(phases)`` runs ``(name, seconds)`` phases back to
    back. The first ``malformed`` requests of the ``timed`` phase carry a
    wrong schema tag (the benchmark's own tests use them to check failure
    accounting).
    """

    def __init__(self, host: str, port: int, articles: Sequence[Article],
                 next_articles: Callable[[int], Sequence[Tuple[int, int]]],
                 connections: int, malformed: int = 0):
        self.host, self.port = host, port
        self.articles = articles
        self.next_articles = next_articles
        self.connections = connections
        self.malformed = malformed
        self.records: List[Record] = []
        self.phase_bounds: Dict[str, tuple] = {}
        self._counter = itertools.count()
        self._malformed_sent = itertools.count()
        self._phase = ""
        self._stop = threading.Event()

    def _sender(self) -> None:
        try:
            sock, reader = _connect(self.host, self.port)
        except OSError as exc:
            record = Record("connect", (), self._phase)
            record.error = repr(exc)
            self.records.append(record)
            return
        try:
            while not self._stop.is_set():
                n = next(self._counter)
                request_id = f"r{n}"
                picks = self.next_articles(n)
                record = Record(request_id, picks, self._phase)
                body = encode_body(request_id, self.articles, picks)
                if (self._phase == "timed" and self.malformed
                        and next(self._malformed_sent) < self.malformed):
                    body = body.replace(REQUEST_SCHEMA.encode(), b"bogus/0", 1)
                head = (
                    "POST /v1/predict HTTP/1.1\r\nHost: bench\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"{REQUEST_ID_HEADER}: {request_id}\r\n\r\n"
                ).encode()
                record.t_send = time.perf_counter()
                try:
                    record.status, record.body = _exchange(sock, reader, head, body)
                except (OSError, ValueError, IndexError) as exc:
                    record.error = repr(exc)
                    reader.close()
                    sock.close()
                    try:
                        sock, reader = _connect(self.host, self.port)
                    except OSError:
                        record.t_recv = time.perf_counter()
                        self.records.append(record)
                        return
                record.t_recv = time.perf_counter()
                self.records.append(record)
        finally:
            reader.close()
            sock.close()

    def run(self, phases) -> None:
        threads = [
            threading.Thread(target=self._sender, name=f"bench-conn-{i}", daemon=True)
            for i in range(self.connections)
        ]
        self._phase = phases[0][0]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for name, seconds in phases:
            self._phase = name
            time.sleep(max(0.0, start + seconds - time.perf_counter()))
            self.phase_bounds[name] = (start, time.perf_counter())
            start = self.phase_bounds[name][1]
        self._stop.set()
        for thread in threads:
            thread.join(SOCKET_TIMEOUT + 5.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
