"""What a cold query pays once the FST and kernel caches keyed on ids are gone.

    python timing.py CHECKOUT OUT.json [ROUNDS]

Runs in a fresh process inside ``CHECKOUT``.  It writes the ``service_mix``
corpus (AMZN-like, 900 users, seed 13) with the checkout's generator, loads
its dictionary, and records the median of ``ROUNDS`` (default 21) timings, in
milliseconds, of:

* ``parse_compile`` — ``PatEx(expression).compile(dictionary)`` for A1–A4,
  what every query that misses the result cache now pays before it reaches
  the kernel intern;
* ``intern_hit`` — ``make_kernel`` of a pair the intern already holds;
* ``fingerprint`` and ``build`` — ``ClusterConfig(backend=name)`` for each
  backend name.

Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import subprocess
import sys

#: Runs inside a checkout: ``python -c TIMING OUT.json ROUNDS``.
TIMING = """
import json, statistics, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, "src")
from benchmarks.e2e import harness
from repro.datasets import constraint
from repro.fst import make_kernel
from repro.mapreduce import BACKENDS, ClusterConfig
from repro.patex import PatEx
from repro.sequences import read_dictionary

out, rounds = sys.argv[1], int(sys.argv[2])
with tempfile.TemporaryDirectory() as directory:
    files = harness.generate_corpus("AMZN", 900, 13, Path(directory))
    dictionary = read_dictionary(files.dictionary)


def median_ms(action):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        action()
        samples.append(time.perf_counter() - start)
    return round(statistics.median(samples) * 1e3, 4)


cells = {"items": len(dictionary)}
for key in ("A1", "A2", "A3", "A4"):
    expression = constraint(key).expression
    cells[f"parse_compile_{key}"] = median_ms(lambda: PatEx(expression).compile(dictionary))
    fst = PatEx(expression).compile(dictionary)
    make_kernel(fst, dictionary)
    cells[f"intern_hit_{key}"] = median_ms(lambda: make_kernel(fst, dictionary))
for name in BACKENDS:
    config = ClusterConfig(backend=name)
    cells[f"fingerprint_{name}"] = median_ms(config.fingerprint)
    cells[f"build_{name}"] = median_ms(config.build)
Path(out).write_text(json.dumps(cells, indent=1) + "\\n")
print(json.dumps(cells, indent=1))
"""


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        raise SystemExit(__doc__)
    checkout, out, *rounds = argv
    command = [sys.executable, "-c", TIMING, out, rounds[0] if rounds else "21"]
    subprocess.run(command, cwd=checkout, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
