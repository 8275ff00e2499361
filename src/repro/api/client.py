"""The daemon client: the :class:`~repro.api.session.Session` facade over TCP.

:func:`connect` opens a socket to a running ``repro serve`` daemon and
returns a :class:`ServiceSession` — the same facade as
:class:`~repro.api.session.LocalSession`, answered remotely.  Results travel
through :mod:`repro.service.protocol`, which preserves pattern order, fids,
and metrics exactly, so a service-path query is byte-identical to the direct
path.  Server-side failures arrive as structured payloads and re-raise here
as the same :mod:`repro.errors` types a local session would raise.
"""

from __future__ import annotations

import socket

from repro.errors import QueryTimeoutError, ServiceError
from repro.mapreduce import ClusterConfig
from repro.service import protocol
from repro.service.cache import CacheInfo
from repro.service.protocol import DEFAULT_SERVICE_PORT

from repro.api.corpus import as_corpus
from repro.api.session import CorpusInfo, Session


class ServiceSession(Session):
    """A session served by a remote mining daemon.

    One TCP connection, one request in flight at a time (the protocol is
    strictly request/response); open several sessions for concurrent
    clients.  ``timeout`` bounds every round trip — an overrun raises
    :class:`~repro.errors.QueryTimeoutError` and poisons the connection
    (the stranded response could otherwise be misread as the next reply).
    """

    def __init__(self, sock: socket.socket, timeout: float | None = None) -> None:
        self._socket = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self._timeout = timeout
        self._closed = False
        self.last_query_cached = False

    # ------------------------------------------------------------- transport
    def _call(self, operation: str, **request) -> dict:
        if self._closed:
            raise ServiceError("session is closed")
        request["op"] = operation
        self._socket.settimeout(self._timeout)
        try:
            protocol.write_message(self._wfile, request)
            response = protocol.read_message(self._rfile)
        except (TimeoutError, socket.timeout) as error:
            self.close()
            raise QueryTimeoutError(operation, self._timeout or 0.0) from error
        except OSError as error:
            self.close()
            raise ServiceError(f"connection to mining service lost: {error}") from error
        if response is None:
            self.close()
            raise ServiceError("mining service closed the connection")
        if not response.get("ok"):
            protocol.raise_error_payload(response.get("error") or {})
        return response["result"]

    # --------------------------------------------------------------- corpora
    def attach_corpus(self, name: str, corpus, dictionary=None) -> CorpusInfo:
        attached = as_corpus(corpus if dictionary is None else (corpus, dictionary))
        payload = self._call(
            "attach_corpus", name=str(name), corpus=protocol.encode_corpus(attached)
        )
        return CorpusInfo(**payload)

    def detach_corpus(self, name: str) -> None:
        self._call("detach_corpus", name=name)

    def corpora(self) -> dict[str, CorpusInfo]:
        payload = self._call("corpora")
        return {name: CorpusInfo(**info) for name, info in payload.items()}

    # --------------------------------------------------------------- queries
    def mine(
        self,
        corpus: str,
        constraint,
        sigma: int | None = None,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ):
        payload = self._call(
            "mine",
            corpus=corpus,
            constraint=protocol.encode_constraint(constraint),
            sigma=sigma,
            algorithm=algorithm,
            config=protocol.encode_config(config),
            options=options,
        )
        self.last_query_cached = bool(payload["cached"])
        return protocol.decode_result(payload["result"])

    def sweep(
        self,
        corpus: str,
        constraints,
        sigma: int | None = None,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ):
        # One round trip for the whole sweep; the daemon runs it as
        # LocalSession.sweep does.
        payload = self._call(
            "sweep",
            corpus=corpus,
            constraints=[
                protocol.encode_constraint(constraint) for constraint in constraints
            ],
            sigma=sigma,
            algorithm=algorithm,
            config=protocol.encode_config(config),
            options=options,
        )
        answers = payload["results"]
        if answers:
            self.last_query_cached = bool(answers[-1]["cached"])
        return [protocol.decode_result(answer["result"]) for answer in answers]

    def top_k(
        self,
        corpus: str,
        constraint,
        k: int,
        sigma: int = 1,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ):
        payload = self._call(
            "top_k",
            corpus=corpus,
            constraint=protocol.encode_constraint(constraint),
            k=k,
            sigma=sigma,
            algorithm=algorithm,
            config=protocol.encode_config(config),
            options=options,
        )
        return [
            (tuple(pattern), frequency) for pattern, frequency in payload["patterns"]
        ]

    # ----------------------------------------------------------------- cache
    def cache_info(self) -> CacheInfo:
        return protocol.decode_cache_info(self._call("cache_info"))

    def clear_cache(self) -> int:
        return self._call("clear_cache")["dropped"]

    # ------------------------------------------------------------- lifecycle
    def ping(self, sleep_s: float = 0.0) -> dict:
        """Round-trip health check (``sleep_s`` artificially delays the reply)."""
        return self._call("ping", sleep_s=sleep_s)

    def shutdown_server(self) -> None:
        """Ask the daemon to stop serving (the connection closes after)."""
        self._call("shutdown")
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for stream in (self._rfile, self._wfile):
            try:
                stream.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass


def connect(
    host: str = "127.0.0.1",
    port: int = DEFAULT_SERVICE_PORT,
    timeout: float | None = None,
    connect_timeout: float = 5.0,
) -> ServiceSession:
    """Open a :class:`ServiceSession` to a running ``repro serve`` daemon.

    ``port`` defaults to :data:`~repro.service.protocol.DEFAULT_SERVICE_PORT`
    — the port ``repro serve`` binds by default — so a plain ``connect()``
    reaches a plainly started daemon.  ``timeout`` (seconds) bounds each
    query round trip; ``None`` waits indefinitely.  The returned session is
    a context manager::

        with repro.api.connect() as session:
            session.attach_corpus("demo", corpus)
            result = session.mine("demo", "(a).*(b)", sigma=2)
    """
    if port == 0:
        # Port 0 is a *bind* convention (pick an ephemeral port); no daemon
        # can ever be listening on it, so dialing it is always a mistake —
        # usually a server's requested port leaking into the client call.
        raise ServiceError(
            "cannot connect to port 0: it asks the OS for an ephemeral port "
            "and is only meaningful when *binding* a server; pass the port "
            "the daemon printed at startup (repro serve defaults to "
            f"{DEFAULT_SERVICE_PORT})"
        )
    try:
        sock = socket.create_connection((host, port), timeout=connect_timeout)
    except OSError as error:
        raise ServiceError(
            f"cannot reach mining service at {host}:{port}: {error}"
        ) from error
    # hot queries answer in microseconds; Nagle would add ~40ms per round trip
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(timeout)
    return ServiceSession(sock, timeout=timeout)
