"""The mining daemon: a threading socket server around one warm session.

:class:`MiningServer` listens on a TCP socket (loopback by default), speaks
the JSON-lines protocol of :mod:`repro.service.protocol`, and answers every
request from one shared :class:`repro.api.LocalSession` — so attached
corpora, interned kernels, and the LRU result cache stay warm across
requests *and* across client connections.  Start it programmatically
(``with MiningServer() as server: ...``) or from the CLI (``repro serve``);
connect with :func:`repro.api.connect`.
"""

from __future__ import annotations

import socketserver
import threading
import time

from repro.service import protocol


class _ClientHandler(socketserver.StreamRequestHandler):
    """One thread per client connection; requests are handled in order."""

    # Small request/response lines suffer Nagle + delayed-ACK stalls (~40ms
    # per round trip) — fatal for a cache that answers in microseconds.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: MiningServer = self.server  # type: ignore[assignment]
        while True:
            try:
                request = protocol.read_message(self.rfile)
            except Exception:
                break  # torn or malformed stream: drop the connection
            if request is None:
                break
            try:
                response = server.dispatch(request)
            except Exception as error:  # noqa: BLE001 - every failure goes on the wire
                response = {"ok": False, "error": protocol.error_payload(error)}
            try:
                protocol.write_message(self.wfile, response)
            except Exception:
                break
            if request.get("op") == "shutdown":
                server.request_shutdown()
                break


class MiningServer(socketserver.ThreadingTCPServer):
    """A warm mining daemon sharing one session across all clients.

    Binds ``host:port`` (port 0 picks an ephemeral port; read
    :attr:`address` after construction).  :meth:`serve_background` runs the
    accept loop on a daemon thread, which is what both the tests and
    ``repro serve`` use.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_cache_entries: int | None = None,
        session=None,
    ) -> None:
        from repro.api.session import LocalSession, preload_miners

        preload_miners()  # before the socket listens: no request pays an import
        super().__init__((host, port), _ClientHandler)
        self.session = (
            session if session is not None else LocalSession(max_cache_entries)
        )
        self._thread: threading.Thread | None = None
        self._shutdown_requested = threading.Event()
        self._serving = False

    # ------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        return self.server_address[0], self.server_address[1]

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def serve_background(self) -> tuple[str, int]:
        """Run the accept loop on a daemon thread; returns the address."""
        self._serving = True  # before the thread flips it: close() may race the start
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-mining-server", daemon=True
        )
        self._thread.start()
        return self.address

    def request_shutdown(self) -> None:
        """Stop the accept loop from a handler thread (non-blocking)."""
        if self._shutdown_requested.is_set():
            return
        self._shutdown_requested.set()
        threading.Thread(target=self.shutdown, daemon=True).start()

    def close(self) -> None:
        """Stop serving and release the socket and the session."""
        if self._serving:
            # shutdown() deadlocks unless the serve_forever loop is running.
            self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()
        self.session.close()

    def __enter__(self) -> "MiningServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- dispatch
    def dispatch(self, request: dict) -> dict:
        """Answer one protocol request (exceptions become error payloads)."""
        operation = request.get("op")
        handler = getattr(self, f"_op_{str(operation).replace('-', '_')}", None)
        if operation is None or handler is None:
            from repro.errors import ServiceError

            raise ServiceError(f"unknown service operation {operation!r}")
        return {"ok": True, "result": handler(request)}

    # ------------------------------------------------------------ operations
    def _op_ping(self, request: dict) -> dict:
        # ``sleep_s`` exists so client-timeout handling is testable.
        sleep_s = float(request.get("sleep_s", 0) or 0)
        if sleep_s:
            time.sleep(sleep_s)
        return {"protocol": protocol.PROTOCOL_VERSION, "server": "repro"}

    def _op_attach_corpus(self, request: dict) -> dict:
        corpus = protocol.decode_corpus(request["corpus"])
        info = self.session.attach_corpus(request["name"], corpus)
        return info.as_dict()

    def _op_detach_corpus(self, request: dict) -> dict:
        self.session.detach_corpus(request["name"])
        return {}

    def _op_corpora(self, request: dict) -> dict:
        return {
            name: info.as_dict() for name, info in self.session.corpora().items()
        }

    def _query_arguments(self, request: dict) -> dict:
        sigma = request.get("sigma")  # ``null``: the constraint's or the operation's default
        return {
            "sigma": None if sigma is None else protocol.decode_count(sigma, "sigma"),
            "algorithm": request.get("algorithm", "dseq"),
            "config": protocol.decode_config(request.get("config")),
            **(request.get("options") or {}),
        }

    def _op_mine(self, request: dict) -> dict:
        result, cached = self.session.query(
            request["corpus"],
            constraint=protocol.decode_constraint(request["constraint"]),
            **self._query_arguments(request),
        )
        return {"result": protocol.encode_result(result), "cached": cached}

    def _op_sweep(self, request: dict) -> dict:
        arguments = self._query_arguments(request)
        answers = []
        for encoded in request["constraints"]:
            result, cached = self.session.query(
                request["corpus"],
                constraint=protocol.decode_constraint(encoded),
                **arguments,
            )
            answers.append({"result": protocol.encode_result(result), "cached": cached})
        return {"results": answers}

    def _op_top_k(self, request: dict) -> dict:
        k = protocol.decode_count(request.get("k"), "k")
        arguments = self._query_arguments(request)
        arguments["sigma"] = arguments["sigma"] if arguments["sigma"] is not None else 1
        ranked = self.session.top_k(
            request["corpus"],
            constraint=protocol.decode_constraint(request["constraint"]),
            k=k,
            **arguments,
        )
        return {
            "patterns": [[list(pattern), frequency] for pattern, frequency in ranked]
        }

    def _op_cache_info(self, request: dict) -> dict:
        return self.session.cache_info().as_dict()

    def _op_clear_cache(self, request: dict) -> dict:
        return {"dropped": self.session.clear_cache()}

    def _op_shutdown(self, request: dict) -> dict:
        return {"stopping": True}
