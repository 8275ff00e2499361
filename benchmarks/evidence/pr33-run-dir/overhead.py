"""Fixed cost of one warm process-pool run: ``python overhead.py CHECKOUT``.

Runs an integer word count over 20,000 short records on a 2-worker
``PersistentProcessPoolCluster`` of the checkout, once to warm up and then 15
times, and prints the median wall seconds of a run.  Start it alternately on
two checkouts to compare their per-run overhead (pool start-up, store publish,
run-directory handling).  Nothing here is imported by the benchmark or tests.
"""

import statistics
import sys
import time

root = sys.argv[1]
sys.path[:0] = [root + "/src", root]
from repro.mapreduce import MapReduceJob, PersistentProcessPoolCluster  # noqa: E402


class FidCountJob(MapReduceJob):
    use_combiner = True

    def map(self, record):
        for fid in record:
            yield fid, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)


if __name__ == "__main__":
    records = [(fid % 50 + 1,) * (fid % 7 + 1) for fid in range(20000)]
    cluster = PersistentProcessPoolCluster(num_workers=2)
    cluster.run(FidCountJob(), records)
    times = []
    for _ in range(15):
        started = time.perf_counter()
        cluster.run(FidCountJob(), records)
        times.append(time.perf_counter() - started)
    print(root.rstrip("/").split("/")[-1], round(statistics.median(times), 4))
