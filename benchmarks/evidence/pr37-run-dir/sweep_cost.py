"""What a crowded shared directory costs a tiny ``multihost`` job.

    python sweep_cost.py CHECKOUT [FILES] [REPEATS]

Runs a tiny ``multihost`` job REPEATS times (default 5) in a fresh
interpreter on CHECKOUT's ``src``, once with the directory it shares with
other jobs empty and once holding FILES (default 20,000) unrelated files.
The shared directory is ``blob_dir`` where the checkout's ``ClusterConfig``
has that field, and ``spill_dir`` otherwise.  Prints one JSON line: the
field used, and each case's run seconds and median.  Nothing here is
imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

PROBE = r"""
import dataclasses, json, os, statistics, sys, tempfile, time
from repro.mapreduce import ClusterConfig, MapReduceJob

class CountJob(MapReduceJob):
    def map(self, record):
        for fid in record:
            yield fid, 1

    def reduce(self, key, values):
        yield key, sum(values)

files, repeats = int(sys.argv[1]), int(sys.argv[2])
names = {field.name for field in dataclasses.fields(ClusterConfig)}
field = "blob_dir" if "blob_dir" in names else "spill_dir"
report = {"field": field, "files": files}
for case, count in (("empty", 0), ("crowded", files)):
    with tempfile.TemporaryDirectory() as shared:
        for index in range(count):
            with open(os.path.join(shared, f"unrelated-{index}"), "wb") as handle:
                handle.write(b"x")
        cluster = ClusterConfig(backend="multihost", num_workers=2, **{field: shared}).build()
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            cluster.run(CountJob(), [(1, 2), (2, 3), (3, 1)] * 20)
            seconds.append(time.perf_counter() - start)
        assert len(os.listdir(shared)) == count
    report[case] = {"seconds": seconds, "median": statistics.median(seconds)}
print(json.dumps(report))
"""


def main(argv: list[str]) -> None:
    checkout = argv[1]
    files = argv[2] if len(argv) > 2 else "20000"
    repeats = argv[3] if len(argv) > 3 else "5"
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    output = subprocess.run(
        [sys.executable, "-c", PROBE, files, repeats],
        env=env, capture_output=True, text=True, check=True,
    )
    print(output.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    main(sys.argv)
