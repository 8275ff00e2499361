"""A job that maps and reduces nothing: what a backend costs before any work.

Lives in its own module because process pools pickle the job by reference;
import it only after ``repro`` is importable.
"""

from repro.mapreduce import MapReduceJob


class NoopJob(MapReduceJob):
    def map(self, record):
        return ()

    def reduce(self, key, values):
        return ()
