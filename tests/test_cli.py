"""End-to-end tests of the ``repro`` command-line interface.

Each test drives :func:`repro.cli.main.main` exactly like the console script
would, using temporary files for inputs and outputs.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.cli.common import read_hierarchy_file
from repro.cli.experiment import parse_sizes
from repro.errors import ReproError
from repro.sequences import read_binary_database, read_dictionary


def run_cli(*argv: str) -> tuple[int, str]:
    """Run the CLI and capture stdout written through the stream argument."""
    stream = io.StringIO()
    code = main(list(argv), stream=stream)
    return code, stream.getvalue()


@pytest.fixture()
def small_dataset(tmp_path):
    """A tiny generated NYT-like dataset on disk (sequences + dictionary)."""
    output_dir = tmp_path / "nyt"
    code, _ = run_cli(
        "generate", "--dataset", "NYT", "--size", "80", "--seed", "7",
        "--output-dir", str(output_dir),
    )
    assert code == 0
    return output_dir


# -------------------------------------------------------------------- general
class TestParser:
    def test_help_without_command(self):
        code, output = run_cli()
        assert code == 2
        assert "COMMAND" in output

    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("generate", "stats", "mine", "inspect", "constraints", "convert", "experiment"):
            assert command in text

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


# ------------------------------------------------------------------- generate
class TestGenerate:
    def test_writes_sequences_and_dictionary(self, tmp_path):
        output_dir = tmp_path / "data"
        code, output = run_cli(
            "generate", "--dataset", "PROT", "--size", "50",
            "--output-dir", str(output_dir), "--binary",
        )
        assert code == 0
        assert (output_dir / "sequences.txt").exists()
        assert (output_dir / "dictionary.json").exists()
        assert (output_dir / "sequences.rsdb").exists()
        assert "50 sequences" in output
        database = read_binary_database(output_dir / "sequences.rsdb")
        assert len(database) == 50

    def test_jsonl_format(self, tmp_path):
        output_dir = tmp_path / "data"
        code, _ = run_cli(
            "generate", "--dataset", "AMZN", "--size", "30",
            "--output-dir", str(output_dir), "--format", "jsonl",
        )
        assert code == 0
        lines = (output_dir / "sequences.jsonl").read_text().splitlines()
        assert len(lines) == 30
        assert json.loads(lines[0])["items"]

    def test_rejects_bad_size(self, tmp_path):
        code, _ = run_cli(
            "generate", "--dataset", "NYT", "--size", "0", "--output-dir", str(tmp_path)
        )
        assert code == 2

    def test_dictionary_round_trips(self, small_dataset):
        dictionary = read_dictionary(small_dataset / "dictionary.json")
        assert len(dictionary) > 0


# ----------------------------------------------------------------------- stats
class TestStats:
    def test_prints_table(self, small_dataset):
        code, output = run_cli(
            "stats",
            "--sequences", str(small_dataset / "sequences.txt"),
            "--dictionary", str(small_dataset / "dictionary.json"),
            "--flist", "5",
        )
        assert code == 0
        assert "sequences" in output
        assert "mean_length" in output
        assert "f-list" in output

    def test_without_dictionary(self, small_dataset):
        code, output = run_cli(
            "stats", "--sequences", str(small_dataset / "sequences.txt")
        )
        assert code == 0
        assert "unique_items" in output

    def test_missing_file(self, tmp_path):
        code, _ = run_cli("stats", "--sequences", str(tmp_path / "missing.txt"))
        assert code == 2


# ------------------------------------------------------------------------ mine
class TestMine:
    def test_mine_running_example(self, tmp_path):
        sequences = tmp_path / "dex.txt"
        sequences.write_text(
            "a1 c d c b\ne e a1 e a1 e b\nc d c b\na2 d b\na1 a1 b\n"
        )
        hierarchy = tmp_path / "hierarchy.txt"
        hierarchy.write_text("a1 A\na2 A\n")
        output = tmp_path / "patterns.tsv"
        code, text = run_cli(
            "mine",
            "--sequences", str(sequences),
            "--hierarchy", str(hierarchy),
            "--pattern", ".*(A)[(.^)|.]*(b).*",
            "--sigma", "2",
            "--algorithm", "dseq",
            "--output", str(output),
            "--metrics",
        )
        assert code == 0
        rows = dict(
            (line.split("\t")[0], int(line.split("\t")[1]))
            for line in output.read_text().splitlines()
        )
        # The paper's running example result (Sec. II).
        assert rows == {"a1 b": 3, "a1 a1 b": 2, "a1 A b": 2}
        assert "3 frequent patterns" in text
        assert "shuffle" in text

    def test_algorithms_agree(self, tmp_path):
        sequences = tmp_path / "dex.txt"
        sequences.write_text("a c b\na b\nc b\na c c b\n")
        results = {}
        for algorithm in ("dseq", "dcand", "naive", "semi-naive", "desq-dfs"):
            stream_path = tmp_path / f"{algorithm}.tsv"
            code, _ = run_cli(
                "mine",
                "--sequences", str(sequences),
                "--pattern", ".*(a)[.*(b)]?.*",
                "--sigma", "2",
                "--algorithm", algorithm,
                "--output", str(stream_path),
            )
            assert code == 0
            results[algorithm] = sorted(stream_path.read_text().splitlines())
        assert len(set(map(tuple, results.values()))) == 1

    def test_constraint_by_name(self, small_dataset):
        code, output = run_cli(
            "mine",
            "--sequences", str(small_dataset / "sequences.txt"),
            "--dictionary", str(small_dataset / "dictionary.json"),
            "--constraint", "N4",
            "--sigma", "5",
            "--top", "3",
            "--output-format", "jsonl",
        )
        assert code == 0
        assert "frequent patterns" in output

    def test_rejects_bad_sigma(self, small_dataset):
        code, _ = run_cli(
            "mine",
            "--sequences", str(small_dataset / "sequences.txt"),
            "--pattern", "(.)",
            "--sigma", "0",
        )
        assert code == 2

    def test_codec_and_spill_budget_flags(self, tmp_path):
        """Every codec mines the same patterns; a tiny budget spills to disk."""
        sequences = tmp_path / "dex.txt"
        sequences.write_text("a c b\na b\nc b\na c c b\n")
        outputs = {}
        for codec in ("compact", "zlib"):
            output = tmp_path / f"{codec}.tsv"
            code, text = run_cli(
                "mine",
                "--sequences", str(sequences),
                "--pattern", ".*(a)[.*(b)]?.*",
                "--sigma", "2",
                "--codec", codec,
                "--spill-budget", "0",
                "--output", str(output),
                "--metrics",
            )
            assert code == 0
            assert "bytes wire" in text
            assert "spilled" in text
            outputs[codec] = sorted(output.read_text().splitlines())
        assert len(set(map(tuple, outputs.values()))) == 1

    def test_spill_budget_accepts_suffixes(self, tmp_path):
        sequences = tmp_path / "dex.txt"
        sequences.write_text("a b\na b\n")
        code, _ = run_cli(
            "mine",
            "--sequences", str(sequences),
            "--pattern", ".*(a)(b).*",
            "--sigma", "1",
            "--spill-budget", "64k",
        )
        assert code == 0
        code, _ = run_cli(
            "mine",
            "--sequences", str(sequences),
            "--pattern", ".*(a)(b).*",
            "--sigma", "1",
            "--spill-budget", "lots",
        )
        assert code == 2

    def test_distributed_and_sequential_miners_agree(self, tmp_path):
        """D-SEQ and both sequential miners mine the same patterns."""
        sequences = tmp_path / "dex.txt"
        sequences.write_text("a c b\na b\nc b\na c c b\n")
        outputs = {}
        for algorithm in ("dseq", "desq-dfs", "desq-count"):
            output = tmp_path / f"{algorithm}.tsv"
            code, _ = run_cli(
                "mine",
                "--sequences", str(sequences),
                "--pattern", ".*(a)[.*(b)]?.*",
                "--sigma", "2",
                "--algorithm", algorithm,
                "--output", str(output),
            )
            assert code == 0
            outputs[algorithm] = sorted(output.read_text().splitlines())
        assert len(set(map(tuple, outputs.values()))) == 1

    def test_grid_flag_selects_the_grid_engine(self, tmp_path):
        """Both grid engines mine the same patterns (the CLI-level differential)."""
        sequences = tmp_path / "grid.txt"
        sequences.write_text("a c b\na b\nc b\na c c b\n")
        outputs = {}
        for grid in ("flat", "legacy"):
            output = tmp_path / f"{grid}.tsv"
            code, _ = run_cli(
                "mine",
                "--sequences", str(sequences),
                "--pattern", ".*(a)[.*(b)]?.*",
                "--sigma", "2",
                "--grid", grid,
                "--output", str(output),
            )
            assert code == 0
            outputs[grid] = sorted(output.read_text().splitlines())
        assert outputs["flat"] == outputs["legacy"]

    def test_grid_flag_rejected_for_sequential_miners(self, tmp_path):
        sequences = tmp_path / "grid.txt"
        sequences.write_text("a b\n")
        code, _ = run_cli(
            "mine",
            "--sequences", str(sequences),
            "--pattern", ".*(a).*",
            "--sigma", "1",
            "--algorithm", "desq-dfs",
            "--grid", "legacy",
        )
        assert code == 2

    def test_max_runs_and_max_candidates_flags(self, tmp_path):
        sequences = tmp_path / "dex.txt"
        sequences.write_text("a c b\na b\nc b\n")
        # Generous caps leave the result unchanged.
        code, text = run_cli(
            "mine",
            "--sequences", str(sequences),
            "--pattern", ".*(a)[.*(b)]?.*",
            "--sigma", "2",
            "--algorithm", "naive",
            "--max-runs", "1000",
            "--max-candidates", "1000",
        )
        assert code == 0
        assert "frequent patterns" in text
        # A cap of one candidate per sequence turns the run into the paper's
        # out-of-memory outcome, surfaced as a CLI error.
        code, _ = run_cli(
            "mine",
            "--sequences", str(sequences),
            "--pattern", ".*(a)[.*(b)]?.*",
            "--sigma", "2",
            "--algorithm", "naive",
            "--max-candidates", "1",
        )
        assert code == 2

    def test_cap_flags_rejected_where_not_applicable(self, tmp_path):
        sequences = tmp_path / "dex.txt"
        sequences.write_text("a b\n")
        base = [
            "mine",
            "--sequences", str(sequences),
            "--pattern", ".*(a)(b).*",
            "--sigma", "1",
        ]
        code, _ = run_cli(*base, "--algorithm", "desq-dfs", "--max-runs", "10")
        assert code == 2
        code, _ = run_cli(*base, "--algorithm", "dseq", "--max-candidates", "10")
        assert code == 2
        code, _ = run_cli(*base, "--algorithm", "dseq", "--max-runs", "0")
        assert code == 2

    def test_shuffle_flags_rejected_for_sequential_miners(self, tmp_path):
        sequences = tmp_path / "dex.txt"
        sequences.write_text("a b\n")
        for flags in (["--codec", "zlib"], ["--spill-budget", "0"]):
            code, _ = run_cli(
                "mine",
                "--sequences", str(sequences),
                "--pattern", ".*(a)(b).*",
                "--sigma", "1",
                "--algorithm", "desq-dfs",
                *flags,
            )
            assert code == 2


# --------------------------------------------------------------------- inspect
class TestInspect:
    def test_statistics_and_dot(self, tmp_path):
        sequences = tmp_path / "dex.txt"
        sequences.write_text("a1 c d c b\na1 a1 b\n")
        hierarchy = tmp_path / "hierarchy.txt"
        hierarchy.write_text("a1 A\na2 A\n")
        dot_path = tmp_path / "fst.dot"
        code, output = run_cli(
            "inspect",
            "--sequences", str(sequences),
            "--hierarchy", str(hierarchy),
            "--pattern", ".*(A)[(.^)|.]*(b).*",
            "--dot", str(dot_path),
            "--candidates", "2",
            "--sigma", "1",
        )
        assert code == 0
        assert "transitions" in output
        assert "T1 (" in output and "T2 (" in output
        assert dot_path.read_text().startswith("digraph")


# ----------------------------------------------------------------- constraints
class TestConstraints:
    def test_listing(self):
        code, output = run_cli("constraints")
        assert code == 0
        for name in ("N1", "A4", "T3"):
            assert name in output

    def test_expressions_flag(self):
        code, output = run_cli("constraints", "--expressions")
        assert code == 0
        assert "ENTITY" in output


# --------------------------------------------------------------------- convert
class TestConvert:
    def test_text_to_jsonl(self, tmp_path):
        source = tmp_path / "data.txt"
        source.write_text("a b c\nb c\n")
        target = tmp_path / "data.jsonl"
        code, output = run_cli("convert", "--input", str(source), "--output", str(target))
        assert code == 0
        assert "converted 2 sequences" in output
        assert len(target.read_text().splitlines()) == 2

    def test_text_to_binary_and_back(self, small_dataset, tmp_path):
        binary = tmp_path / "data.rsdb"
        code, _ = run_cli(
            "convert",
            "--input", str(small_dataset / "sequences.txt"),
            "--output", str(binary),
            "--dictionary", str(small_dataset / "dictionary.json"),
        )
        assert code == 0
        text_again = tmp_path / "back.txt"
        code, _ = run_cli(
            "convert",
            "--input", str(binary),
            "--output", str(text_again),
            "--dictionary", str(small_dataset / "dictionary.json"),
        )
        assert code == 0
        original = (small_dataset / "sequences.txt").read_text().strip().splitlines()
        restored = text_again.read_text().strip().splitlines()
        assert restored == original

    def test_binary_requires_dictionary(self, tmp_path):
        source = tmp_path / "data.txt"
        source.write_text("a b\n")
        code, _ = run_cli(
            "convert", "--input", str(source), "--output", str(tmp_path / "out.rsdb")
        )
        assert code == 2


# ------------------------------------------------------------------ experiment
class TestExperiment:
    def test_list(self):
        code, output = run_cli("experiment", "--list")
        assert code == 0
        assert "table5" in output and "fig11" in output

    def test_table2_with_small_sizes(self):
        code, output = run_cli(
            "experiment", "--name", "table2",
            "--sizes", "NYT=60,AMZN=60,AMZN-F=60,CW=60",
        )
        assert code == 0
        assert "hierarchy_items" in output

    def test_grid_and_cap_flags_rejected_for_statistics_tables(self):
        base = ["experiment", "--name", "table2", "--sizes", "NYT=60,AMZN=60,AMZN-F=60,CW=60"]
        code, _ = run_cli(*base, "--grid", "legacy")
        assert code == 2
        code, _ = run_cli(*base, "--max-runs", "10")
        assert code == 2
        code, _ = run_cli(
            "experiment", "--name", "table4",
            "--sizes", "NYT=60,AMZN=60,AMZN-F=60,CW=60",
            "--max-candidates", "10",
        )
        assert code == 2

    def test_grid_flag_reaches_the_experiment_runs(self):
        code, output = run_cli(
            "experiment", "--name", "fig9c",
            "--sizes", "AMZN=80",
            "--grid", "legacy",
        )
        assert code == 0
        assert "shuffle size" in output

    def test_cap_flags_reach_the_experiment_runs(self):
        # A one-run cap forces the candidate-enumerating baselines into the
        # paper's out-of-memory outcome, reported per row as status "oom".
        code, output = run_cli(
            "experiment", "--name", "fig9c",
            "--sizes", "AMZN=80",
            "--max-runs", "1",
        )
        assert code == 0
        assert "oom" in output

    def test_parse_sizes(self):
        assert parse_sizes("NYT=500, amzn=1200") == {"NYT": 500, "AMZN": 1200}
        assert parse_sizes(None) is None
        with pytest.raises(ReproError):
            parse_sizes("NYT:500")
        with pytest.raises(ReproError):
            parse_sizes("NYT=lots")


# --------------------------------------------------------------------- helpers
class TestHierarchyFile:
    def test_read(self, tmp_path):
        path = tmp_path / "hierarchy.txt"
        path.write_text("# comment\na1 A\na2 A\nB\n\n")
        hierarchy = read_hierarchy_file(path)
        assert hierarchy.parents("a1") == frozenset({"A"})
        assert "B" in hierarchy

    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "hierarchy.txt"
        path.write_text("a b c\n")
        with pytest.raises(ReproError):
            read_hierarchy_file(path)


# ------------------------------------------------------------ fault tolerance
@pytest.fixture()
def tiny_corpus(tmp_path):
    sequences = tmp_path / "dex.txt"
    sequences.write_text("a c b\na b\nc b\na c c b\n")
    return sequences


class TestMineFaultFlags:
    def _mine(self, sequences, *extra):
        return run_cli(
            "mine", "--sequences", str(sequences),
            "--pattern", ".*(a).*(b).*", "--sigma", "2", *extra,
        )

    def test_retries_and_timeout_accepted_on_cluster_miner(self, tiny_corpus):
        code, text = self._mine(
            tiny_corpus, "--retries", "2", "--task-timeout", "30", "--metrics"
        )
        assert code == 0
        assert "frequent patterns" in text
        # Fault-free run: the fault-tolerance metrics line stays silent.
        assert "fault tolerance" not in text

    def test_retries_zero_means_fail_fast(self, tiny_corpus):
        code, _ = self._mine(tiny_corpus, "--retries", "0")
        assert code == 0

    def test_negative_retries_rejected(self, tiny_corpus):
        code, _ = self._mine(tiny_corpus, "--retries", "-1")
        assert code == 2

    @pytest.mark.parametrize("timeout", ["0", "nan", "inf"])
    def test_non_positive_timeout_rejected(self, tiny_corpus, timeout):
        code, _ = self._mine(tiny_corpus, "--task-timeout", timeout)
        assert code == 2

    def test_retries_rejected_for_sequential_miner(self, tiny_corpus):
        code, _ = self._mine(
            tiny_corpus, "--algorithm", "desq-dfs", "--retries", "1"
        )
        assert code == 2

    def test_timeout_rejected_for_sequential_miner(self, tiny_corpus):
        code, _ = self._mine(
            tiny_corpus, "--algorithm", "desq-count", "--task-timeout", "5"
        )
        assert code == 2

    def test_fault_metrics_line_prints_when_retries_happened(self):
        from repro.cli.common import print_metrics
        from repro.mapreduce.metrics import JobMetrics

        metrics = JobMetrics(num_workers=2)
        metrics.tasks_failed = 2
        metrics.task_retry_count = 2
        metrics.blob_retry_count = 3
        metrics.recovered_host_count = 1
        stream = io.StringIO()
        print_metrics(metrics, stream=stream)
        text = stream.getvalue()
        assert "fault tolerance" in text
        assert "2 task retries" in text
        assert "1 hosts recovered" in text


class TestRunGc:
    @pytest.fixture()
    def spill_root(self, tmp_path):
        import time

        root = tmp_path / "spill"
        now = int(time.time())
        for name in (f"repro-run-{now - 10_000}-dead", f"repro-run-{now}-live", "foreign"):
            (root / name).mkdir(parents=True)
            (root / name / "blob").write_bytes(name.encode())
        return root

    def test_dry_run_reports_without_deleting(self, spill_root):
        code, text = run_cli(
            "gc", "--spill-dir", str(spill_root), "--ttl", "3600", "--dry-run"
        )
        assert code == 0
        (dead,) = spill_root.glob("repro-run-*-dead")
        assert f"would remove {dead.name}" in text
        assert "1 expired run dir(s)" in text
        assert (dead / "blob").is_file()

    def test_sweeps_only_expired_run_dirs(self, spill_root):
        (dead,) = spill_root.glob("repro-run-*-dead")
        code, text = run_cli("gc", "--spill-dir", str(spill_root), "--ttl", "3600")
        assert code == 0
        assert f"removed {dead.name}" in text
        assert not dead.exists()
        (live,) = spill_root.glob("repro-run-*-live")
        assert (live / "blob").is_file()
        assert (spill_root / "foreign" / "blob").read_bytes() == b"foreign"

    def test_dry_run_lists_exactly_what_the_sweep_deletes(self, spill_root):
        (dead,) = spill_root.glob("repro-run-*-dead")
        for name in ("repro-run-nan-x", "repro-run--1-x"):
            (spill_root / name).mkdir()
        (spill_root / "repro-run-1-x").symlink_to(
            spill_root / "foreign", target_is_directory=True
        )
        argv = ("gc", "--spill-dir", str(spill_root), "--ttl", "3600")
        code, dry = run_cli(*argv, "--dry-run")
        assert code == 0
        code, real = run_cli(*argv)
        assert code == 0
        listed = [line.split()[-1] for line in dry.splitlines() if line.startswith("would")]
        swept = [line.split()[-1] for line in real.splitlines() if line.startswith("removed")]
        assert listed == swept == [dead.name]
        assert (spill_root / "repro-run-nan-x").is_dir()
        assert (spill_root / "foreign" / "blob").read_bytes() == b"foreign"

    def test_missing_directory_rejected(self, tmp_path):
        code, _ = run_cli("gc", "--spill-dir", str(tmp_path / "nope"))
        assert code == 2

    @pytest.mark.parametrize("ttl", ["-1", "nan", "inf"])
    def test_negative_ttl_rejected(self, spill_root, ttl):
        code, _ = run_cli("gc", "--spill-dir", str(spill_root), "--ttl", ttl)
        assert code == 2
