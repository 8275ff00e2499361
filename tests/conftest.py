"""Shared fixtures: the paper's running example (Fig. 2) and helpers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings as hypothesis_settings

from repro.dictionary import Dictionary, Item
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, WeightedSequence

# Hypothesis profiles: "ci" derandomizes so the property-based suites are
# reproducible in CI (select with HYPOTHESIS_PROFILE=ci); "dev" keeps the
# default randomized exploration for local runs.
hypothesis_settings.register_profile("ci", derandomize=True, deadline=None)
hypothesis_settings.register_profile("dev")
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: Directory holding the golden JSON snapshots of experiment outputs.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_probe(script: str, *argv: str):
    """Run ``script`` in a fresh interpreter on this checkout's ``src``; the
    last line it prints, parsed as JSON (for what only a new process shows:
    which modules a query loads, what a daemon imports before it listens)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(output.stdout.strip().splitlines()[-1])


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden JSON snapshots under tests/golden/ "
        "instead of comparing against them",
    )


@pytest.fixture()
def golden(request):
    """Compare data against a named golden file (or refresh it).

    Usage: ``golden("table2", rows)``.  Run ``pytest --update-golden`` after
    an intentional change to regenerate the snapshots; the diff then shows up
    in code review like any other change.
    """

    def check(name: str, data):
        path = GOLDEN_DIR / f"{name}.json"
        rendered = json.dumps(data, indent=2, sort_keys=True)
        if request.config.getoption("--update-golden"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(rendered + "\n", encoding="utf-8")
            return
        assert path.exists(), (
            f"golden file {path} is missing; run pytest --update-golden to create it"
        )
        expected = json.loads(path.read_text(encoding="utf-8"))
        assert data == expected, (
            f"{name} drifted from its golden snapshot; if the change is "
            f"intentional, refresh with pytest --update-golden"
        )

    return check


@pytest.fixture()
def no_new_shm_entries():
    """Fail the test if it leaves a new entry in ``/dev/shm`` (where it exists)."""

    def entries() -> set[str]:
        return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    before = entries()
    yield
    assert entries() - before == set()


@pytest.fixture()
def no_backoff(monkeypatch):
    """Zero the task and blob retry backoff, so retries never sleep.

    The task backoff is slept by the driver, the blob backoff by each task;
    process pools are built per run and fork from the driver, so their
    workers inherit the patched constants too.
    """
    from repro.mapreduce import blobstore, faults

    for module, name in (
        (faults, "TASK_BACKOFF_BASE_S"),
        (faults, "TASK_BACKOFF_CAP_S"),
        (blobstore, "BLOB_BACKOFF_BASE_S"),
        (blobstore, "BLOB_BACKOFF_CAP_S"),
    ):
        monkeypatch.setattr(module, name, 0.0)


@pytest.fixture()
def reduce_tasks_per_worker(monkeypatch):
    """``set(ratio)`` makes clusters built afterwards in this test run
    ``ratio`` reduce buckets per worker (the bucket count is no setting)."""
    from repro.mapreduce import base

    def set_ratio(ratio: int) -> None:
        monkeypatch.setattr(base, "REDUCE_TASKS_PER_WORKER", ratio)

    return set_ratio


def make_running_example_dictionary() -> Dictionary:
    """The dictionary of Fig. 2 with the paper's exact item order.

    fids follow the paper's total order ``b < A < d < a1 < c < e < a2``
    (most frequent first, ties broken as in the paper).
    """
    # gid -> (fid, document frequency, parents)
    spec = {
        "b": (1, 5, ()),
        "A": (2, 4, ()),
        "d": (3, 3, ()),
        "a1": (4, 3, ("A",)),
        "c": (5, 2, ()),
        "e": (6, 1, ()),
        "a2": (7, 1, ("A",)),
    }
    fid_of = {gid: fid for gid, (fid, _, _) in spec.items()}
    children: dict[str, set[str]] = {gid: set() for gid in spec}
    for gid, (_, _, parents) in spec.items():
        for parent in parents:
            children[parent].add(gid)
    items = [
        Item(
            gid=gid,
            fid=fid,
            document_frequency=freq,
            parent_fids=frozenset(fid_of[p] for p in parents),
            children_fids=frozenset(fid_of[c] for c in children[gid]),
        )
        for gid, (fid, freq, parents) in spec.items()
    ]
    return Dictionary(items)


#: The sequence database Dex of Fig. 2a, as gid sequences.
RUNNING_EXAMPLE_SEQUENCES = (
    ("a1", "c", "d", "c", "b"),
    ("e", "e", "a1", "e", "a1", "e", "b"),
    ("c", "d", "c", "b"),
    ("a2", "d", "b"),
    ("a1", "a1", "b"),
)


def make_running_example_database(dictionary: Dictionary) -> SequenceDatabase:
    """The sequence database Dex of Fig. 2a."""
    return SequenceDatabase.from_gid_sequences(dictionary, RUNNING_EXAMPLE_SEQUENCES)


#: The example subsequence constraint π_ex of Sec. II.
#:
#: The paper writes π_ex = ``.*(A)[(.↑).*]*(b).*`` but its FST (Fig. 4) and the
#: candidate sets of Fig. 3 allow *every* item between the captured ``A`` and the
#: captured ``b`` to be skipped uncaptured (e.g. ``a1b ∈ G_πex(T1)``), which
#: corresponds to the expression below.  We use the form that reproduces the
#: paper's FST and candidate sets exactly.
RUNNING_EXAMPLE_PATEX = ".*(A)[(.^)|.]*(b).*"


@pytest.fixture(scope="session")
def ex_dictionary() -> Dictionary:
    return make_running_example_dictionary()


@pytest.fixture(scope="session")
def ex_database(ex_dictionary) -> SequenceDatabase:
    return make_running_example_database(ex_dictionary)


@pytest.fixture(scope="session")
def ex_patex() -> PatEx:
    return PatEx(RUNNING_EXAMPLE_PATEX)


@pytest.fixture(scope="session")
def ex_fst(ex_patex, ex_dictionary):
    return ex_patex.compile(ex_dictionary)


def weighted(sequence, weight: int = 1) -> WeightedSequence:
    """``sequence`` as a job's map input: one record of a corpus's unique view."""
    return WeightedSequence(tuple(sequence), weight)


def gids(dictionary: Dictionary, candidates) -> set[str]:
    """Render a set of fid tuples as space-less gid strings, e.g. ``a1Ab``."""
    return {"".join(dictionary.decode(candidate)) for candidate in candidates}
