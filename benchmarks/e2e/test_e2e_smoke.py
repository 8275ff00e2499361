"""Smoke test of the end-to-end benchmark, collected by CI's ``pytest benchmarks``.

Runs all four workloads plus the traced replay at ``--scale tiny --repeats 1``
through the real command line and checks the result schema, the digests, that
every metric ``BENCHMARK.json`` declares is emitted, and that comparing a run
against itself passes.  Timings at this scale mean nothing and are not
asserted.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from . import cli, harness

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "-m", "benchmarks.e2e"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*arguments, check=True):
    completed = subprocess.run(
        [*RUN, *arguments], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    if check:
        assert completed.returncode == 0, completed.stderr[-2000:]
    return completed


@pytest.fixture(scope="module")
def declaration():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "result.json"
    _run("--scale", "tiny", "--repeats", "1", "--out", str(path))
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_declaration_is_well_formed(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [entry["name"] for entry in declaration["workloads"]]
    names += [entry["name"] for entry in declaration["end_to_end"]]
    names += [entry["name"] for entry in declaration["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    assert all(NAME.match(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in declaration["end_to_end"])
    assert any(entry["name"] == "setup_s" for entry in declaration["end_to_end"])


def test_suite_document_schema_and_digests(document, declaration):
    _path, result = document
    assert result["schema"] == "repro-e2e-bench/1"
    for key in ("python", "platform", "nproc", "git_commit", "seed", "scale", "repeats"):
        assert key in result["environment"]
    declared_workloads = [entry["name"] for entry in declaration["workloads"]]
    assert sorted(result["workloads"]) == sorted(declared_workloads)
    end_to_end = {entry["name"] for entry in declaration["end_to_end"]}
    per_layer = {entry["name"] for entry in declaration["per_layer"]}
    service_only = {"cold_total_s", "hit_query_ms", "session_wall_s"}
    for name, workload in result["workloads"].items():
        assert workload["failed"] == 0, (name, workload["notes"])
        assert workload["correct"] and workload["failed_share"] == 0
        expected = end_to_end | (service_only if name == "service_mix" else set())
        assert set(workload["timings"]) == expected
        assert set(workload["layers"]) == per_layer
        # times are judged at the reference box speed; the raw ones stay beside them
        assert len(workload["timings"]["mine_wall_s"]["raw_samples"]) == 1
        assert "raw_samples" not in workload["timings"]["peak_rss_mb"]
        for summary in workload["timings"].values():
            assert summary["n"] >= 1 and summary["median"] > 0
            assert summary["q1"] <= summary["median"] <= summary["q3"]
            assert len(summary["samples"]) == summary["n"]
        # counts are kept apart from timings and carry the oracle's digest
        assert re.fullmatch(r"[0-9a-f]{64}", workload["counts"]["pattern_digest"])
        assert workload["counts"]["wire_bytes"] > 0
    # the mining workloads were replayed, and the replay agreed with the real run
    for name in declared_workloads[:3]:
        layers = result["workloads"][name]["layers"]
        assert layers["mapreduce.wire.bytes"]["value"] == (
            result["workloads"][name]["counts"]["wire_bytes"]
        )
        assert layers["replay.layer_coverage"]["value"] > 0.5
        assert (ROOT / result["workloads"][name]["counts"]["trace"]).is_file()
    service = result["workloads"]["service_mix"]
    assert service["layers"]["service.cache.hit_rate"]["value"] > 0.5


def test_compare_against_itself_passes(document):
    path, _result = document
    completed = _run("--compare", str(path), "--new", str(path))
    assert "worse" not in completed.stdout.split("verdict", 1)[1]


def test_compare_flags_a_regression(document, tmp_path):
    path, result = document
    slower = json.loads(json.dumps(result))
    timing = slower["workloads"]["nyt_n4_dseq"]["timings"]["mine_wall_s"]
    for key in ("median", "q1", "q3"):
        timing[key] *= 2
    timing["samples"] = [sample * 2 for sample in timing["samples"]]
    slower["workloads"]["nyt_n4_dseq"]["counts"]["wire_bytes"] += 1
    regressed = tmp_path / "slower.json"
    regressed.write_text(json.dumps(slower), encoding="utf-8")
    completed = _run("--compare", str(path), "--new", str(regressed), check=False)
    assert completed.returncode == 1
    assert "counts.wire_bytes" in completed.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_mode_prints_every_declared_metric(declaration, trace):
    completed = _run(
        "--workload", "amzn_a3_dcand", "--seed", "29", "--seconds", "1",
        "--trace", trace, "--scale", "tiny", "--repeats", "1",
    )
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {entry["name"]: entry["unit"] for entry in declaration[section]}
    assert {name: metric["unit"] for name, metric in last["metrics"].items()} == declared
    if trace == "0":
        assert all(metric["value"] > 0 for metric in last["metrics"].values())


def test_driver_mode_reports_a_run_whose_every_repeat_fails(monkeypatch, tmp_path, capsys):
    """All repeats failing must still end in the JSON line, not in a traceback."""
    broken = tmp_path / "run_query.py"
    broken.write_text("raise SystemExit(7)\n", encoding="utf-8")
    monkeypatch.setattr(harness, "RUN_QUERY", broken)
    code = cli.main(
        ["--workload", "nyt_n4_dseq", "--seed", "13", "--trace", "0",
         "--scale", "tiny", "--repeats", "2"]
    )
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["attempted"] == 2 and last["failed"] >= 2
    assert last["metrics"]["mine_wall_s"] == {"value": None, "unit": "s"}
    assert last["metrics"]["setup_s"]["value"] > 0
