"""The JSON-lines wire protocol between ``repro serve`` and its clients.

One request per line, one response per line, UTF-8 JSON with no embedded
newlines.  Every payload here round-trips *exactly*: dictionaries ship their
items verbatim (gid, fid, document frequency, hierarchy links — never
re-derived, so fids survive the trip), results ship their patterns in
insertion order with full job metrics, and server-side failures travel as
structured error payloads that :func:`raise_error_payload` re-raises on the
client as the same :mod:`repro.errors` types.  That exactness is what makes
a daemon-served query byte-identical to the in-process library path.
"""

from __future__ import annotations

import dataclasses
import json

from repro import errors as _errors
from repro.core.results import MiningResult
from repro.datasets.constraints import Constraint
from repro.dictionary import Dictionary
from repro.dictionary.dictionary import Item
from repro.errors import MapReduceError, MiningError, ServiceError, check_int
from repro.mapreduce import ClusterConfig, FaultPolicy
from repro.mapreduce.metrics import JobMetrics
from repro.patex import PatEx
from repro.sequences import SequenceDatabase
from repro.service.cache import CacheInfo

#: Bumped whenever a payload shape changes incompatibly (2: a fault policy
#: travels as its two fields only; 3: a config has no ``blob_dir``, and its
#: ``spill_dir`` must be null; 4: neither a config nor job metrics name a
#: reduce partitioner; 5: a config names no ``num_reduce_tasks``).
PROTOCOL_VERSION = 5

#: The port ``repro serve`` binds — and :func:`repro.api.connect` dials — by
#: default.  Shared here so the two sides cannot drift apart (the client used
#: to default to port 0, which no listening daemon can ever occupy).
DEFAULT_SERVICE_PORT = 9043


# ----------------------------------------------------------------- framing
def write_message(wfile, payload: dict) -> None:
    """Write one protocol message (a JSON object on its own line)."""
    wfile.write(json.dumps(payload, separators=(",", ":")).encode("utf-8"))
    wfile.write(b"\n")
    wfile.flush()


def read_message(rfile) -> dict | None:
    """Read one protocol message; ``None`` means the peer closed the stream."""
    line = rfile.readline()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except ValueError as error:
        raise ServiceError(f"malformed protocol message: {error}") from error
    if not isinstance(payload, dict):
        raise ServiceError(
            f"protocol messages must be JSON objects, got {type(payload).__name__}"
        )
    return payload


# -------------------------------------------------------------- dictionaries
def encode_dictionary(dictionary: Dictionary) -> dict:
    """Ship a dictionary's items verbatim.

    The file reader (:func:`~repro.dictionary.read_dictionary`) reassigns
    fids by frequency rank, so it cannot be used for transport: patterns are
    fid tuples, and a fid remap would silently re-label every result.  The
    wire format therefore carries the exact items.
    """
    return {
        "items": [
            [
                item.gid,
                item.fid,
                item.document_frequency,
                sorted(item.parent_fids),
                sorted(item.children_fids),
            ]
            for item in sorted(dictionary, key=lambda item: item.fid)
        ]
    }


def decode_dictionary(payload: dict) -> Dictionary:
    return Dictionary(
        Item(
            gid=gid,
            fid=fid,
            document_frequency=document_frequency,
            parent_fids=frozenset(parents),
            children_fids=frozenset(children),
        )
        for gid, fid, document_frequency, parents, children in payload["items"]
    )


# -------------------------------------------------------------------- corpora
def encode_corpus(corpus) -> dict:
    """A corpus as ``{"dictionary": ..., "sequences": [[fid, ...], ...]}``."""
    return {
        "dictionary": encode_dictionary(corpus.dictionary),
        "sequences": [list(sequence) for sequence in corpus.database],
    }


def decode_corpus(payload: dict):
    from repro.api.corpus import Corpus

    return Corpus(
        SequenceDatabase(payload["sequences"]),
        decode_dictionary(payload["dictionary"]),
    )


# -------------------------------------------------------------------- configs
_CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(ClusterConfig))

#: Largest wire ``num_workers``: 4× the 64 of the largest experiment (``table5``),
#: well short of a pool or a simulated schedule that could exhaust the daemon.
MAX_WIRE_WORKERS = 256


def encode_config(config: ClusterConfig | None) -> dict | None:
    """A config as its field dict (names only — live objects cannot travel;
    a fault policy travels as its own field dict)."""
    if config is None:
        return None
    if not isinstance(config.backend, str):
        raise ServiceError(
            "cannot send a live Cluster instance to the service; "
            "pass a backend name in ClusterConfig(backend=...)"
        )
    if not isinstance(config.codec, str):
        raise ServiceError(
            "cannot send a live Codec instance to the service; "
            "pass a codec name in ClusterConfig(codec=...)"
        )
    payload = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    if config.fault_policy is not None:
        payload["fault_policy"] = dataclasses.asdict(config.fault_policy)
    return payload


def decode_count(value, name: str) -> int:
    """A wire σ or ``top_k``'s ``k``: an int >= 1 — never ``true``, a float,
    a string or ``null``."""
    try:
        return check_int(value, name)
    except MiningError as error:
        raise ServiceError(f"bad {name} on the wire: {error}") from error


def decode_config(payload: dict | None) -> ClusterConfig | None:
    if payload is None:
        return None
    unknown = set(payload) - set(_CONFIG_FIELDS)
    if unknown:
        raise ServiceError(f"unknown ClusterConfig fields on the wire: {sorted(unknown)}")
    # Where the daemon writes and sweeps is its operator's choice (its own
    # TMPDIR), never a client's.
    if payload.get("spill_dir") is not None:
        raise ServiceError("spill_dir cannot be set on the wire; the daemon uses its own")
    policy = payload.get("fault_policy")
    if policy is not None:
        if not isinstance(policy, dict):
            raise ServiceError(
                f"fault_policy on the wire must be an object, got {type(policy).__name__}"
            )
        try:
            policy = FaultPolicy(**policy)
        except (TypeError, MapReduceError) as error:
            raise ServiceError(f"bad fault_policy on the wire: {error}") from error
        payload = {**payload, "fault_policy": policy}
    try:
        config = ClusterConfig(**payload)
    except MapReduceError as error:
        raise ServiceError(f"bad ClusterConfig on the wire: {error}") from error
    if config.num_workers is not None and config.num_workers > MAX_WIRE_WORKERS:
        raise ServiceError(
            f"num_workers on the wire must be at most {MAX_WIRE_WORKERS}, "
            f"got {config.num_workers}"
        )
    return config


# ---------------------------------------------------------------- constraints
def encode_constraint(constraint) -> dict:
    """A constraint in any of the public API's accepted shapes."""
    if isinstance(constraint, Constraint):
        return {
            "kind": "catalogue",
            "key": constraint.key,
            "expression": constraint.expression,
            "sigma": constraint.sigma,
            "dataset": constraint.dataset,
            "description": constraint.description,
            "specialized": constraint.specialized,
        }
    if isinstance(constraint, PatEx):
        return {"kind": "patex", "expression": constraint.expression}
    if isinstance(constraint, str):
        return {"kind": "patex", "expression": constraint}
    if isinstance(constraint, dict):
        return {"kind": "gap", "parameters": dict(constraint)}
    raise ServiceError(
        f"cannot encode constraint of type {type(constraint).__name__} for the wire"
    )


def decode_constraint(payload: dict):
    kind = payload.get("kind")
    if kind == "patex":
        return payload["expression"]
    if kind == "gap":
        return dict(payload["parameters"])
    if kind == "catalogue":
        return Constraint(
            key=payload["key"],
            expression=payload["expression"],
            sigma=payload["sigma"],
            dataset=payload["dataset"],
            description=payload["description"],
            specialized=payload["specialized"],
        )
    raise ServiceError(f"unknown constraint kind on the wire: {kind!r}")


# -------------------------------------------------------------------- results
_METRIC_FIELDS = tuple(field.name for field in dataclasses.fields(JobMetrics))


def encode_result(result: MiningResult) -> dict:
    """A result with its patterns in insertion order and full job metrics.

    Ordered ``[pattern, frequency]`` pairs (not a JSON object) keep the
    pattern iteration order intact, so a decoded result compares — and
    iterates — byte-identically to the miner's original.
    """
    return {
        "algorithm": result.algorithm,
        "patterns": [
            [list(pattern), frequency] for pattern, frequency in result.patterns().items()
        ],
        "metrics": {name: getattr(result.metrics, name) for name in _METRIC_FIELDS},
    }


def decode_result(payload: dict) -> MiningResult:
    """Rebuild a result, ignoring metric keys this version does not know."""
    wire_metrics = payload["metrics"]
    missing = [name for name in _METRIC_FIELDS if name not in wire_metrics]
    if missing:
        raise ServiceError(f"JobMetrics fields missing on the wire: {missing}")
    metrics = JobMetrics(**{name: wire_metrics[name] for name in _METRIC_FIELDS})
    return MiningResult(
        {tuple(pattern): frequency for pattern, frequency in payload["patterns"]},
        metrics=metrics,
        algorithm=payload["algorithm"],
    )


# ---------------------------------------------------------------- cache info
_CACHE_INFO_FIELDS = tuple(field.name for field in dataclasses.fields(CacheInfo))


def decode_cache_info(payload: dict) -> CacheInfo:
    """Rebuild a :class:`~repro.service.cache.CacheInfo` from its wire form.

    The one tolerant decoder for both sides: unknown keys are ignored (the
    server's ``as_dict`` already ships the derived ``hit_rate``, and a newer
    server may ship counters an older client does not know), and missing
    keys fall back to the dataclass defaults — so protocol additions never
    break old clients.
    """
    return CacheInfo(
        **{name: payload[name] for name in _CACHE_INFO_FIELDS if name in payload}
    )


# --------------------------------------------------------------------- errors
#: Exception types the client re-raises by name.  Everything in
#: :mod:`repro.errors` plus the builtins the API validates with.
_ERROR_REGISTRY = {
    name: value
    for name, value in vars(_errors).items()
    if isinstance(value, type) and issubclass(value, Exception)
}
_ERROR_REGISTRY.update(
    {cls.__name__: cls for cls in (ValueError, TypeError, KeyError, RuntimeError)}
)


def error_payload(error: Exception) -> dict:
    """Flatten a server-side exception into a wire payload."""
    attributes = {
        key: value
        for key, value in vars(error).items()
        if not key.startswith("_") and isinstance(value, (str, int, float, bool))
    }
    return {
        "type": type(error).__name__,
        "message": str(error),
        "attributes": attributes,
    }


def raise_error_payload(payload: dict) -> None:
    """Re-raise a wire error payload as the matching exception type.

    Known types are reconstructed without running their custom constructors
    (the payload message is already fully formatted); simple public
    attributes (``name``, ``operation``, ...) are restored.  Unknown types
    degrade to :class:`~repro.errors.ServiceError` with the original type
    name in the message.
    """
    name = payload.get("type", "ServiceError")
    message = payload.get("message", "unknown service error")
    cls = _ERROR_REGISTRY.get(name)
    if cls is None:
        raise ServiceError(f"{name}: {message}")
    error = cls.__new__(cls)
    Exception.__init__(error, message)
    for key, value in (payload.get("attributes") or {}).items():
        try:
            setattr(error, key, value)
        except AttributeError:  # pragma: no cover - frozen/slotted exceptions
            pass
    raise error
