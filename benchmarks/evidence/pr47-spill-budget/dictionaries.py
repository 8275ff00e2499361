"""Does ``read_dictionary`` give every workload's items the same fids?

    python dictionaries.py pairs CHECKOUT OUT.json
    python dictionaries.py compare PARENT.json CHANGE.json

``pairs`` writes, in a fresh process run inside ``CHECKOUT``, each workload
of ``benchmarks/e2e/spec.py`` at seeds 13 and 29 (``full``) with the
checkout's own generator, loads its ``dictionary.json`` with the checkout's
``read_dictionary`` and records the number of items and the sha256 of the
sorted ``(gid, fid)`` pairs.  ``compare`` prints each cell and whether the
two files agree on it, and exits 1 when any cell differs.  Nothing here is
imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import subprocess
import sys

#: Runs inside a checkout: ``python -c PAIRS OUT.json``.
PAIRS = """
import hashlib, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "src")
from benchmarks.e2e import harness, spec
from repro.sequences import read_dictionary

cells = {}
for workload in spec.WORKLOADS:
    for seed in (13, 29):
        with tempfile.TemporaryDirectory() as directory:
            files = harness.generate_corpus(workload.dataset, workload.size, seed, Path(directory))
            dictionary = read_dictionary(files.dictionary)
        pairs = sorted((item.gid, item.fid) for item in dictionary)
        digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
        cells[f"{workload.name}-seed{seed}"] = {"items": len(pairs), "sha256": digest}
Path(sys.argv[1]).write_text(json.dumps(cells, indent=1, sort_keys=True) + "\\n")
"""


def main(argv: list[str]) -> int:
    command, *rest = argv
    if command == "pairs":
        checkout, out = rest
        subprocess.run([sys.executable, "-c", PAIRS, out], cwd=checkout, check=True)
        return 0
    if command == "compare":
        parent, change = (json.load(open(path)) for path in rest)
        same = True
        for cell in sorted(parent.keys() | change.keys()):
            agree = parent.get(cell) == change.get(cell)
            same &= agree
            items = (change.get(cell) or parent.get(cell))["items"]
            print(f"{cell:28s} {items:7d} items  {'same' if agree else 'DIFFERENT'}")
        return 0 if same else 1
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
