"""Mining as a service: a warm daemon with a bounded query cache.

Everything the library amortizes within one process run — attached
:class:`~repro.sequences.store.EncodedSequenceStore` corpora, interned
compiled kernels, per-worker grid memos — is kept warm *across* queries by a
long-lived server:

* :class:`~repro.service.cache.QueryCache` — a bounded LRU of finished
  :class:`~repro.core.results.MiningResult` objects, keyed by
  ``(corpus content hash, constraint, σ, algorithm, ClusterConfig
  fingerprint, options)``;
* :mod:`~repro.service.protocol` — the JSON-lines wire protocol shared by
  the server and the :func:`repro.api.connect` client, including the
  structured error payloads that re-raise daemon-side failures as the same
  :mod:`repro.errors` types on the client;
* :class:`~repro.service.server.MiningServer` — a threading socket server
  wrapping one shared :class:`~repro.api.LocalSession`, started from Python
  or via ``repro serve``.

The service implements exactly the :class:`repro.api.Session` facade, so a
query answered by the daemon is byte-identical to the same query answered by
the in-process library path.
"""

from repro._lazy import lazy_exports

# An in-process session needs only the cache; see repro._lazy.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.service.cache": ("CacheInfo", "QueryCache"),
        "repro.service.protocol": (
            "DEFAULT_SERVICE_PORT",
            "PROTOCOL_VERSION",
            "decode_cache_info",
            "decode_result",
            "encode_result",
            "error_payload",
            "raise_error_payload",
        ),
        "repro.service.server": ("MiningServer",),
    },
)
