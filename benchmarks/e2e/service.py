"""The ``service_mix`` workload: a fixed closed-loop script against ``repro serve``.

One client, one request in flight, next request only after the previous reply
(a closed loop: the callers this models each wait for their answer).  A
session is a fresh daemon subprocess with the corpus attached over the wire
(that is set-up), then the script: five cold ``mine`` requests and one cold
``top_k``, each followed by a burst of cache hits issued round-robin over
every query made so far.  ``config=None`` throughout — what a client that
passes nothing gets.

Cold replies are checked against sequential DESQ-DFS; every hit reply must
equal the cold reply of the same query; the daemon's cache counters must equal
the scripted hit rate; the daemon must exit 0 and leave nothing behind.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import harness, spec
from .harness import WorkloadResult

_LISTENING = re.compile(r"listening on (\S+):(\d+)")

#: ``python -c`` body that runs the CLI without runpy's double-import warning.
_CLI = "import sys; from repro.cli.main import main; sys.exit(main(sys.argv[1:]))"

DAEMON_START_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, tmpdir: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-c", _CLI, "serve", "--port", "0"],
            env=harness.subprocess_env(tmpdir),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.host, self.port = self._read_address()

    def _read_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("repro serve did not announce its address")

    def peak_rss_kb(self) -> int:
        """The daemon's resident-set high-water mark (``VmHWM``), in KiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise OSError(f"no VmHWM line for pid {self.process.pid}")

    def stop(self) -> int:
        """Wait for a daemon that was asked to shut down; kill one that lingers."""
        try:
            code = self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        return code


def _timed(call):
    started = time.perf_counter()
    value = call()
    return value, time.perf_counter() - started


class _Script:
    """The scripted session against one daemon; collects per-request times."""

    def __init__(self, workload, session, corpus, oracles, result: WorkloadResult) -> None:
        self.workload = workload
        self.session = session
        self.corpus = corpus
        self.oracles = oracles
        self.result = result
        self.cold_s: list[float] = []
        self.hit_s: list[float] = []
        self.wire_bytes = 0
        #: Cache lookups the script expects the daemon to have counted.
        self.expected_hits = 0
        self.expected_misses = 0
        #: Every query made so far: (label, request thunk, hit-reply checker,
        #: cache lookups one repeat of it performs).
        self.known: list[tuple] = []
        self._cursor = 0
        #: Oracle comparisons of the cold replies, run after the session so
        #: that client-side checking stays out of ``session_wall_s``.
        self._deferred: list[tuple] = []

    def _attempt(self, label: str, cold: bool, thunk, check) -> None:
        from repro.errors import ReproError

        self.result.attempted += 1
        try:
            reply, seconds = _timed(thunk)
        except (ReproError, OSError) as error:
            self.result.fail(label, [f"{type(error).__name__}: {error}"])
            return
        (self.cold_s if cold else self.hit_s).append(seconds)
        problems = check(reply)
        if problems:
            self.result.fail(label, problems)

    def _hits(self) -> None:
        """The burst after a cold request: round-robin over every known query."""
        for _ in range(self.workload.hits_per_phase):
            label, thunk, check, lookups = self.known[self._cursor % len(self.known)]
            self._cursor += 1
            self.expected_hits += lookups
            self._attempt(f"hit {label}", False, thunk, check)

    def _mine_phase(self, query, expected_digest: str) -> None:
        from repro.datasets import constraint

        label = f"{query.constraint}({query.sigma}) {query.algorithm}"
        request = constraint(query.constraint, query.sigma)
        dictionary = self.corpus.dictionary
        cold_patterns: dict = {}

        def thunk():
            return self.session.mine("corpus", request, algorithm=query.algorithm)

        def check_cold(reply) -> list[str]:
            cold_patterns.update(reply.patterns())
            self.wire_bytes += reply.metrics.wire_bytes
            self._deferred.append((f"cold {label}", verify_cold))
            if self.session.last_query_cached:
                return ["first request was served from the cache"]
            return []

        def verify_cold() -> list[str]:
            digest = harness.result_digest(cold_patterns, dictionary)
            if digest != expected_digest:
                return [f"digest {digest} != oracle {expected_digest}"]
            return []

        def check_hit(reply) -> list[str]:
            problems = []
            if not self.session.last_query_cached:
                problems.append("repeat was not served from the cache")
            if not reply.same_patterns_as(cold_patterns):
                problems.append("cached reply differs from the cold reply")
            return problems

        self.expected_misses += 1
        self._attempt(f"cold {label}", True, thunk, check_cold)
        self.known.append((label, thunk, check_hit, 1))
        self._hits()

    def _top_k_phase(self) -> None:
        from repro.datasets import constraint

        workload = self.workload
        expression = constraint(workload.top_k_constraint, 1).expression
        label = f"top_k({workload.top_k_constraint}, k={workload.top_k})"
        cold_ranked: list = []

        def thunk():
            return self.session.top_k("corpus", expression, k=workload.top_k)

        def check_cold(reply) -> list[str]:
            cold_ranked.extend(reply)
            self._deferred.append((f"cold {label}", verify_cold))
            return [] if reply else ["top_k returned nothing"]

        def verify_cold() -> list[str]:
            if not cold_ranked:
                return []
            # Every pattern outside an exact top-k has support <= the k-th, so
            # mining at that support must reproduce the reply as its head.
            floor = cold_ranked[-1][1]
            reference = harness.oracle(self.corpus, workload.top_k_constraint, floor)
            if reference.sorted_patterns()[: len(cold_ranked)] != cold_ranked:
                return [f"top_k reply is not the head of DESQ-DFS at sigma={floor}"]
            return []

        def check_hit(reply) -> list[str]:
            return [] if reply == cold_ranked else ["repeated top_k reply differs"]

        # top_k descends through support thresholds, one cache lookup each (a
        # threshold an earlier query already mined is a hit even now).  The
        # client cannot see the descent, so its length is read off the
        # daemon's counters; every repeat must then hit exactly that often.
        before = self.session.cache_info()
        self._attempt(f"cold {label}", True, thunk, check_cold)
        after = self.session.cache_info()
        self.expected_hits += after.hits - before.hits
        self.expected_misses += after.misses - before.misses
        descent = (after.hits + after.misses) - (before.hits + before.misses)
        self.known.append((label, thunk, check_hit, descent))
        self._hits()

    def run(self) -> dict:
        before = self.session.cache_info()
        started = time.perf_counter()
        for query, (expected_digest, _count) in zip(self.workload.queries, self.oracles):
            self._mine_phase(query, expected_digest)
        self._top_k_phase()
        wall = time.perf_counter() - started
        after = self.session.cache_info()

        hits = after.hits - before.hits
        misses = after.misses - before.misses
        self.result.attempted += 1
        if (hits, misses) != (self.expected_hits, self.expected_misses):
            self.result.fail(
                "cache counters",
                [
                    f"hits/misses {hits}/{misses} != scripted "
                    f"{self.expected_hits}/{self.expected_misses}"
                ],
            )
        for label, verify in self._deferred:
            problems = verify()
            if problems:
                self.result.fail(label, problems)
        return {
            "session_wall_s": wall,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_entries": after.entries,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }


def _process_cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of ``pid`` so far, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class _Session:
    """What one completed session measured, raw (``scale``: see ``BoxSpeed``)."""

    scale: float
    setup_scale: float
    setup_s: float
    cold_s: list[float]
    hit_s: list[float]
    daemon_cpu_s: float
    daemon_peak_kb: int
    wire_bytes: int
    summary: dict


def run_service_workload(
    workload,
    seed: int,
    seconds: float | None = None,
    repeats: int | None = None,
    probe_layers: bool = False,
) -> WorkloadResult:
    """Run whole sessions (fresh daemon each) for a while or ``repeats`` times."""
    import repro
    from repro.errors import ReproError

    workdir = harness.workdir_for(workload.name, seed)
    result = WorkloadResult(
        workload.name,
        record={
            "dataset": workload.dataset,
            "input_sequences": workload.size,
            "queries": [
                f"{q.constraint}({q.sigma}) {q.algorithm}" for q in workload.queries
            ],
            "top_k": f"{workload.top_k_constraint} k={workload.top_k}",
            "hits_per_phase": workload.hits_per_phase,
            "clients": 1,
            "loop": "closed",
            "config": None,
        },
    )
    # Oracles once, outside every timed region: same files, same loading path.
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    corpus = harness.load_corpus(files)
    if probe_layers:
        # Before anything else can have cached the store digest.
        _, result.layers["api.corpus.content_hash_s"] = _timed(corpus.content_hash)
    oracles = [
        harness.oracle_digest(corpus, query.constraint, query.sigma)
        for query in workload.queries
    ]
    result.counts.update(
        input_sequences=files.count,
        input_items=files.items,
        patterns=[count for _digest, count in oracles],
        pattern_digest=harness.lines_digest(digest + "\n" for digest, _count in oracles),
    )

    sessions: list[_Session] = []
    box = harness.BoxSpeed()

    def one_session() -> float:
        box.factor()  # fresh leading burst for this session's set-up
        started = time.perf_counter()
        result.attempted += 1  # the session as a whole: start, teardown, leaks
        with harness.LeakCheck(workdir / "tmp") as leak_check:
            session_files = harness.generate_corpus(
                workload.dataset, workload.size, seed, workdir / "corpus"
            )
            session_corpus = harness.load_corpus(session_files)
            daemon = Daemon(leak_check.tmpdir)
            completed = None
            try:
                with repro.connect(
                    host=daemon.host, port=daemon.port, timeout=REQUEST_TIMEOUT_S
                ) as session:
                    attach_started = time.perf_counter()
                    session.attach_corpus("corpus", session_corpus)
                    setup_done = time.perf_counter()
                    setup_scale = box.factor()
                    if probe_layers:
                        result.layers["service.attach_s"] = setup_done - attach_started
                        pings = [_timed(session.ping)[1] for _ in range(50)]
                        result.layers["service.ping_ms"] = statistics.median(pings) * 1e3
                    cpu_before = _process_cpu_seconds(daemon.process.pid)
                    script = _Script(workload, session, session_corpus, oracles, result)
                    summary = script.run()
                    completed = _Session(
                        scale=box.factor(),
                        setup_scale=setup_scale,
                        setup_s=setup_done - started,
                        cold_s=script.cold_s,
                        hit_s=script.hit_s,
                        daemon_cpu_s=_process_cpu_seconds(daemon.process.pid) - cpu_before,
                        daemon_peak_kb=daemon.peak_rss_kb(),
                        wire_bytes=script.wire_bytes,
                        summary=summary,
                    )
                    session.shutdown_server()
            except (ReproError, OSError) as error:
                result.fail("session", [f"{type(error).__name__}: {error}"])
                daemon.process.kill()
            finally:
                exit_code = daemon.stop()
        if completed is not None:
            problems = [f"leaked {leak}" for leak in leak_check.leaks]
            if exit_code != 0:
                problems.append(f"daemon exit code {exit_code}")
            if problems:
                result.fail("daemon teardown", problems)
            sessions.append(completed)
        return time.perf_counter() - started

    harness.repeat_until(seconds, repeats, one_session)
    shutil.rmtree(workdir, ignore_errors=True)

    cold_requests = len(workload.queries) + 1
    for done in sessions:
        cold_total = sum(done.cold_s)
        work = cold_requests * files.count
        result.add_sample("setup_s", done.setup_s * done.setup_scale, raw=done.setup_s)
        result.add_sample("mine_wall_s", cold_total * done.scale, raw=cold_total)
        result.add_sample(
            "mine_cpu_s", done.daemon_cpu_s * done.scale, raw=done.daemon_cpu_s
        )
        result.add_sample(
            "input_seqs_per_s", work / (cold_total * done.scale), raw=work / cold_total
        )
        result.add_sample("peak_rss_mb", done.daemon_peak_kb / 1024.0)
        result.add_sample("shuffle_wire_bytes", done.wire_bytes)
        # The ISSUE's service-only figures (spec.SERVICE_METRICS), as measured.
        result.add_sample("cold_total_s", cold_total)
        result.add_sample("session_wall_s", done.summary["session_wall_s"])
        if done.hit_s:
            result.add_sample("hit_query_ms", 1e3 * statistics.median(done.hit_s))
    if len({done.wire_bytes for done in sessions}) > 1:
        result.fail("sessions", ["shuffle_wire_bytes did not repeat exactly"])
    if sessions:
        layers = result.layers
        for name in spec.SERVICE_METRICS:
            if name in result.samples:
                layers[name] = statistics.median(result.samples[name])
        # Pooled over sessions: >= 300 samples, so >= 15 lie beyond the p95.
        pooled = sorted(sample for done in sessions for sample in done.hit_s)
        if pooled:
            layers["service.hit_p95_ms"] = 1e3 * pooled[int(0.95 * len(pooled))]
        last = sessions[-1]
        layers["service.cache.hit_rate"] = last.summary["hit_rate"]
        layers["service.cache.entries"] = last.summary["cache_entries"]
        result.counts.update(
            wire_bytes=last.wire_bytes,
            cache_hits=last.summary["cache_hits"],
            cache_misses=last.summary["cache_misses"],
        )
    return result
