"""The simulated backend: one bulk-synchronous-parallel round, modelled in-process.

The paper's experiments run on an 8-worker Spark/Hadoop cluster.  This module
substitutes that substrate: a :class:`SimulatedCluster` executes the map,
combine, shuffle, and reduce phases of a :class:`~repro.mapreduce.job.MapReduceJob`
in-process, measures per-task compute time and communicated bytes, and reports
the *makespan* that ``num_workers`` parallel workers would have achieved.

The simulation is faithful for the algorithms studied here because they are
compute-bound, perform exactly one shuffle, and have no inter-task
dependencies within a stage (bulk-synchronous model).  For real parallel
execution on a multi-core machine, see the process-pool backend in
:mod:`repro.mapreduce.parallel`.
"""

from __future__ import annotations

from repro.mapreduce.base import StageDriverCluster

__all__ = ["SimulatedCluster"]


class SimulatedCluster(StageDriverCluster):
    """Executes MapReduce jobs and models a cluster of ``num_workers`` workers.

    The ``simulated`` row: the inline executor and the local shuffle, which
    are the stage driver's own components.  Tasks run sequentially in the
    calling process; reduce buckets are assigned to the least-loaded modelled
    worker (greedy LPT-style schedule), matching how a real cluster's
    scheduler balances over-partitioned buckets.
    """

    backend_name = "simulated"
