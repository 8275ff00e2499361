"""Shared exception types for the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DictionaryError(ReproError):
    """Raised for inconsistent dictionaries or hierarchies (cycles, unknown items)."""


class UnknownItemError(DictionaryError):
    """Raised when an item (gid or fid) is not present in a dictionary."""

    def __init__(self, item: object) -> None:
        super().__init__(f"unknown item: {item!r}")
        self.item = item


class PatExSyntaxError(ReproError):
    """Raised when a pattern expression cannot be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        location = "" if position is None else f" at position {position}"
        super().__init__(f"{message}{location}")
        self.position = position


class FstError(ReproError):
    """Raised for invalid FST constructions or simulations."""


class NfaError(ReproError):
    """Raised for invalid output-NFA constructions or serializations."""


class MiningError(ReproError):
    """Raised when a mining run cannot be completed."""


def check_int(value, name: str, least: int = 1, error: type[ReproError] = MiningError) -> int:
    """Return ``value`` if it is an int (a bool is none here) of at least
    ``least``; raise ``error`` otherwise.  The one check of σ, ``k``, worker
    counts, spill budgets and task attempts, asked before any work."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise error(f"{name} must be >= {least} and an int, got {value!r}")
    return value


class CandidateExplosionError(MiningError):
    """Raised when candidate or run enumeration exceeds a configured safety cap.

    The paper's NAIVE/SEMI-NAIVE baselines and D-CAND run out of memory for very
    loose constraints.  The reproduction reports those outcomes as this explicit
    error instead of exhausting host memory.
    """

    def __init__(self, what: str, limit: int) -> None:
        super().__init__(
            f"{what} exceeded the configured limit of {limit}; "
            "the constraint is too loose for this algorithm (paper reports OOM)"
        )
        self.what = what
        self.limit = limit


class MapReduceError(ReproError):
    """Raised when a simulated MapReduce job fails."""


class ServiceError(ReproError):
    """Raised for mining-service failures (daemon, protocol, or client side).

    Daemon-side failures travel over the wire as structured
    ``{"type", "message"}`` payloads and are re-raised by the client as the
    same exception type (see :mod:`repro.service.protocol`); unknown types
    degrade to this base class.
    """


class CorpusNotAttachedError(ServiceError):
    """Raised when a query names a corpus the session has not attached."""

    def __init__(self, name: str, attached: "list[str] | None" = None) -> None:
        known = "" if not attached else f"; attached corpora: {', '.join(sorted(attached))}"
        super().__init__(f"no corpus named {name!r} is attached{known}")
        self.name = name


class QueryTimeoutError(ServiceError):
    """Raised when a service query does not answer within the client timeout."""

    def __init__(self, operation: str, timeout: float) -> None:
        super().__init__(
            f"service operation {operation!r} timed out after {timeout:g}s"
        )
        self.operation = operation
        self.timeout = timeout
