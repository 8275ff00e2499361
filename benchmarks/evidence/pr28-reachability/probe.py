"""Which ``src/repro`` functions does no user path reach?

    python benchmarks/evidence/pr28-reachability/probe.py [CHECKOUT] [OUT.txt]

Copies the files of CHECKOUT (default: the current directory) that git
tracks or would track, i.e. not ignored, to a temporary directory, installs a call recorder as that copy's
``src/sitecustomize.py`` and drives every user path of the copy in fresh
processes with ``PYTHONPATH=src``: every CLI command at small sizes, the
``repro.api`` facade (all algorithms, ``LocalSession``, a ``repro serve``
daemon with a client), the examples, ``benchmarks.e2e --scale tiny`` and
``REPRO_BENCH_SCALE=tiny pytest benchmarks``.  The recorder is a
``sys.setprofile`` / ``threading.setprofile`` hook that notes each code object
of ``src/`` entered; every process (forked pool workers included, through an
``os._exit`` hook) dumps what it saw when it ends.  The checkout itself is
never written to: the benchmark harness resets ``PYTHONPATH`` to ``src``, so
the recorder has to live in the copy's ``src``.

Writes one line per function that no process entered, ``path:line
qualname (N lines)``, and a total, plus a ``.log`` of every driver's exit
code.  Each driver declares the exit it expects next to its command line (a
usage error is a user path too, and the ``pytest benchmarks`` leg fails at
``tiny`` scale on known data-shape assertions only); the probe runs them all
and then exits non-zero, naming each driver whose exit differed.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

RECORDER = '''
import os, sys, threading

_DIR = os.environ.get("REPRO_PROBE_DIR")
if _DIR:
    _SRC = os.path.dirname(os.path.abspath(__file__)) + os.sep
    _SELF = os.path.abspath(__file__)
    _SEEN = set()

    def _record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_SRC) and code.co_filename != _SELF:
                _SEEN.add((code.co_filename, code.co_qualname))

    def _dump():
        seen = list(_SEEN)  # one C call: no recorder event can land inside it
        path = os.path.join(_DIR, f"{os.getpid()}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            for name, qualname in seen:
                handle.write(name + "\\t" + qualname + "\\n")

    _exit = os._exit

    def _exit_and_dump(status):
        _dump()
        _exit(status)

    os._exit = _exit_and_dump
    import atexit

    atexit.register(_dump)
    threading.setprofile(_record)
    sys.setprofile(_record)
'''

#: The ``repro.api`` driver: every algorithm through the unified entry point,
#: then a ``LocalSession``.
API_DRIVER = textwrap.dedent('''
    import repro, repro.api
    from repro.mapreduce import ClusterConfig

    corpus = repro.Corpus.from_gid_sequences(
        [["a", "c", "b"], ["a", "b"], ["c", "b", "a", "b"], ["a", "c", "b"]]
    )
    # One call per algorithm; an algorithm a checkout lacks fails alone.
    for algorithm in ("dseq", "dcand", "naive", "semi-naive", "desq-dfs", "desq-count"):
        repro.api.mine(corpus, "(a).*(b)", sigma=2, algorithm=algorithm)
    for algorithm in ("lash", "mg-fsm", "prefixspan"):
        try:
            repro.api.mine(corpus, {"max_gap": 1, "max_length": 3}, sigma=2, algorithm=algorithm)
        except repro.MiningError as error:
            print(error)
    repro.api.mine(
        corpus, "(a).*(b)", sigma=2,
        config=ClusterConfig(backend="persistent-processes", num_workers=2),
    )
    with repro.LocalSession() as session:
        session.attach_corpus("demo", corpus)
        session.mine("demo", "(a).*(b)", sigma=2)
        session.mine("demo", "(a).*(b)", sigma=2)
        session.sweep("demo", ["(a).*(b)", ".*(b)"], sigma=2)
        session.top_k("demo", ".*(b)", k=2)
        session.corpora()
        session.cache_info()
        session.clear_cache()
        session.detach_corpus("demo")
''')

SERVICE_CLIENT = textwrap.dedent('''
    import sys
    import repro
    from repro.datasets import constraint
    from repro.sequences import SequenceDatabase, load_sequences, read_dictionary

    host, port, data = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    dictionary = read_dictionary(data + "/dictionary.json")
    database = SequenceDatabase.from_gid_sequences(
        dictionary, load_sequences(data + "/sequences.txt", None)
    )
    corpus = repro.Corpus(database, dictionary)
    with repro.connect(host=host, port=port, timeout=120) as session:
        session.attach_corpus("amzn", corpus)
        session.mine("amzn", constraint("A1", 2))
        session.mine("amzn", constraint("A1", 2))
        session.sweep("amzn", [constraint("A1", 2), constraint("A4", 2)])
        session.top_k("amzn", constraint("A4", 2), k=2)
        session.corpora()
        session.cache_info()
        session.clear_cache()
        session.detach_corpus("amzn")
        session.shutdown_server()
''')


def copy_checkout(checkout: Path, target: Path) -> None:
    """Copy the tracked and the untracked, not ignored files of ``checkout``."""
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=checkout, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, files):
        if not (checkout / name).is_file():
            continue  # tracked, but deleted in the work tree
        destination = target / name
        destination.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(checkout / name, destination)


#: The ``pytest benchmarks`` leg's failures at ``tiny`` scale: Table IV's
#: data-shape assertion (dataset statistics, not a code fault) and, on some
#: runs, Fig. 11's timed monotone makespans.  Any other failure is unexpected.
KNOWN_TINY_FAILURES = ("benchmarks/bench_table4_cspi.py", "benchmarks/bench_fig11_scalability.py")


def drivers(data: Path) -> list[tuple[str, list[str], int]]:
    """Every command line the probe runs, with a label and its expected exit."""
    cli = [sys.executable, "-m", "repro.cli.main"]
    nyt, amzn = data / "NYT", data / "AMZN"
    nyt_input = ["--sequences", f"{nyt}/sequences.txt", "--dictionary", f"{nyt}/dictionary.json"]
    amzn_input = ["--sequences", f"{amzn}/sequences.txt", "--dictionary", f"{amzn}/dictionary.json"]
    runs: list[tuple[str, list[str], int]] = []
    for dataset, size in (("NYT", 60), ("AMZN", 80), ("AMZN-F", 80), ("CW", 60), ("PROT", 40)):
        runs.append((f"generate {dataset}", [
            *cli, "generate", "--dataset", dataset, "--size", str(size), "--seed", "7",
            "--output-dir", str(data / dataset),
        ], 0))
    runs.append(("generate jsonl", [
        *cli, "generate", "--dataset", "CW", "--size", "30", "--format", "jsonl",
        "--output-dir", str(data / "CW-jsonl"),
    ], 0))
    runs += [
        ("stats", [*cli, "stats", *nyt_input, "--flist", "5"], 0),
        ("stats raw", [*cli, "stats", "--sequences", f"{data}/CW/sequences.txt"], 0),
        ("constraints", [*cli, "constraints", "--expressions"], 0),
        ("inspect", [
            *cli, "inspect", *amzn_input, "--pattern", ".*(Books).*",
            "--dot", str(data / "fst.dot"), "--candidates", "3", "--sigma", "2",
        ], 0),
        ("convert text->jsonl", [
            *cli, "convert", "--input", f"{nyt}/sequences.txt",
            "--output", str(data / "nyt.jsonl"),
        ], 0),
        ("convert jsonl->text", [
            *cli, "convert", "--input", str(data / "nyt.jsonl"), "--output",
            str(data / "nyt.txt"),
        ], 0),
    ]
    algorithms = ("dseq", "dcand", "naive", "semi-naive", "desq-dfs", "desq-count")
    backends = ("simulated", "persistent-processes", "multihost")
    for algorithm in algorithms:
        for backend in backends:
            # The sequential miners refuse a --backend other than the
            # default: a usage error (exit 2).
            sequential = algorithm.startswith("desq-")
            refused = sequential and backend != "simulated"
            runs.append((f"mine {algorithm} {backend}", [
                *cli, "mine", *amzn_input, "--constraint", "A1", "--sigma", "2",
                "--algorithm", algorithm, "--backend", backend, "--workers", "2",
                "--metrics", "--output", str(data / f"{algorithm}-{backend}.tsv"),
            ], 2 if refused else 0))
    flags = [
        ["--codec", "zlib"], ["--retries", "2"],
        ["--max-runs", "1000"],
        ["--output-format", "jsonl"], ["--top", "3"],
        ["--backend", "multihost", "--spill-dir", str(data / "spill")],
    ]
    for extra in flags:
        runs.append((f"mine {' '.join(extra)}".replace(str(data), "DATA"), [
            *cli, "mine", *nyt_input, "--constraint", "N1", "--sigma", "2",
            "--workers", "2", "--metrics", *extra,
        ], 0))
    runs += [
        ("mine naive --max-candidates", [
            *cli, "mine", *amzn_input, "--pattern", ".*(Books).*", "--sigma", "2",
            "--algorithm", "naive", "--max-candidates", "100", "--metrics",
        ], 0),
        ("mine raw jsonl", [
            *cli, "mine", "--sequences", f"{data}/CW-jsonl/sequences.jsonl",
            "--pattern", ".*(.).*", "--sigma", "2", "--format", "jsonl",
        ], 0),
        # Deliberate: --retries does not apply to a sequential miner.
        ("mine usage error", [
            *cli, "mine", *nyt_input, "--constraint", "N1", "--sigma", "2",
            "--algorithm", "desq-dfs", "--retries", "1",
        ], 2),
        ("gc", [*cli, "gc", "--spill-dir", str(data / "spill"), "--ttl", "0"], 0),
        ("gc dry", [
            *cli, "gc", "--spill-dir", str(data / "spill"), "--ttl", "0", "--dry-run",
        ], 0),
        ("experiment list", [*cli, "experiment", "--list"], 0),
    ]
    sizes = "NYT=60,AMZN=80,AMZN-F=80,CW=60"
    for name in ("table2", "table4", "table5", "fig9a", "fig9b", "fig9c", "fig10a",
                 "fig10b", "fig11", "fig12", "fig13"):
        runs.append((f"experiment {name}", [
            *cli, "experiment", "--name", name, "--sizes", sizes, "--workers", "2", "--chart",
        ], 0))
    runs.append(("api", [sys.executable, "-c", API_DRIVER], 0))
    for example, argument in (
        ("quickstart.py", None), ("market_basket.py", "200"), ("ngram_corpus.py", "300"),
        ("protein_motifs.py", "100"), ("relational_phrases.py", "200"),
        ("partition_balance.py", "200"), ("scalability_study.py", "200"),
    ):
        runs.append((f"example {example}", [
            sys.executable, f"examples/{example}", *([argument] if argument else []),
        ], 0))
    runs.append(("benchmarks.e2e tiny", [
        sys.executable, "-m", "benchmarks.e2e", "--scale", "tiny", "--repeats", "1",
    ], 0))
    # Exits 1 on the known failures (KNOWN_TINY_FAILURES); ``-rf`` lists each
    # failed test on a ``FAILED`` line, which the probe checks against them.
    runs.append(("pytest benchmarks tiny", [
        sys.executable, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
        "--benchmark-disable", "--tb=line", "-rf",
    ], 1))
    return runs


def unexpected_failures(stdout: str) -> list[str]:
    """The ``FAILED`` tests of a pytest run outside :data:`KNOWN_TINY_FAILURES`."""
    failed = [line.split()[1] for line in stdout.splitlines() if line.startswith("FAILED ")]
    return [test for test in failed if not test.startswith(KNOWN_TINY_FAILURES)]


def run_service(copy: Path, env: dict, data: Path, log) -> dict[str, int | None]:
    """Drive a ``repro serve`` daemon with a client; both should exit 0."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main", "serve", "--port", "0"],
        cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        for line in server.stdout:
            if "listening on" in line:
                host, port = line.rsplit(" ", 1)[-1].strip().rsplit(":", 1)
                break
        else:
            raise RuntimeError("repro serve never reported its address")
        client = subprocess.run(
            [sys.executable, "-c", SERVICE_CLIENT, host, port, str(data / "AMZN")],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        log.write(f"serve client exit {client.returncode}\n{client.stderr[-2000:]}\n")
        server.wait(timeout=120)
    finally:
        if server.poll() is None:
            server.kill()
    log.write(f"serve exit {server.returncode}\n")
    return {"serve client": client.returncode, "serve": server.returncode}


def src_functions(src: Path) -> dict[tuple[str, str], tuple[int, int]]:
    """``(file, qualname) -> (first line, line count)`` of every function in ``src``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        if path.name == "sitecustomize.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(str(path), qualname)] = (first, child.end_lineno - first + 1)
                    visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def main(checkout: str = ".", out: str = "zero-calls.txt") -> None:
    checkout_path = Path(checkout).resolve()
    copy = Path(tempfile.mkdtemp(prefix="repro-probe-"))
    try:
        copy_checkout(checkout_path, copy)
        (copy / "src" / "sitecustomize.py").write_text(RECORDER, encoding="utf-8")
        counts, data = copy / ".probe-counts", copy / ".probe-data"
        counts.mkdir()
        data.mkdir()
        env = {
            **os.environ,
            "PYTHONPATH": "src",
            "REPRO_PROBE_DIR": str(counts),
            "REPRO_BENCH_SCALE": "tiny",
        }
        log_path = Path(out).with_suffix(".log")
        mismatches = []
        with open(log_path, "w", encoding="utf-8") as log:
            for label, command, expected in drivers(data):
                started = time.perf_counter()
                done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
                seconds = time.perf_counter() - started
                log.write(f"{label}: exit {done.returncode} ({seconds:.1f} s)\n")
                if done.returncode != expected:
                    mismatches.append(f"{label}: exit {done.returncode}, expected {expected}")
                elif done.returncode and unexpected_failures(done.stdout):
                    mismatches.append(f"{label}: {', '.join(unexpected_failures(done.stdout))}")
                if done.returncode:
                    # pytest reports its failures on stdout, everything else on stderr.
                    for tail in (done.stdout[-1500:], done.stderr[-1500:]):
                        if tail.strip():
                            log.write(textwrap.indent(tail, "    ") + "\n")
                log.flush()
            for label, code in run_service(copy, env, data, log).items():
                if code != 0:
                    mismatches.append(f"{label}: exit {code}, expected 0")
        seen = set()
        for dump in counts.iterdir():
            for line in dump.read_text(encoding="utf-8").splitlines():
                filename, qualname = line.split("\t")
                seen.add((filename, qualname))
        functions = src_functions(copy / "src")
        zero = sorted(
            (str(Path(filename).relative_to(copy)), first, qualname, lines)
            for (filename, qualname), (first, lines) in functions.items()
            if (filename, qualname) not in seen
        )
        with open(out, "w", encoding="utf-8") as handle:
            for filename, first, qualname, lines in zero:
                handle.write(f"{filename}:{first} {qualname} ({lines} lines)\n")
            handle.write(
                f"# {len(zero)} of {len(functions)} functions with zero calls, "
                f"{sum(row[3] for row in zero)} lines; {len(list(counts.iterdir()))} "
                "processes recorded\n"
            )
        print(f"{len(zero)} functions with zero calls; see {out} and {log_path}")
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    if mismatches:
        sys.exit("drivers that exited other than declared:\n  " + "\n  ".join(mismatches))


if __name__ == "__main__":
    main(*sys.argv[1:])
