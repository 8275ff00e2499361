"""Core distributed FSM algorithms: D-SEQ, D-CAND, and baselines."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.balance": (
            "JobPlanner",
            "PartitionBalance",
            "PartitionPlan",
            "attach_partition_plan",
            "dcand_partition_balance",
            "dseq_partition_balance",
            "estimate_partition_loads",
            "measure_partition_balance",
            "plan_job_partitions",
            "plan_partitions",
        ),
        "repro.core.dcand": ("DCandJob", "DCandMiner"),
        "repro.core.dseq": ("DSeqJob", "DSeqMiner"),
        "repro.core.grid_engine": (
            "DEFAULT_GRID",
            "GRIDS",
            "FlatPivotGrid",
            "cached_grid",
            "make_grid",
            "normalize_grid",
        ),
        "repro.core.local_mining": ("DesqDfsMiner",),
        "repro.core.naive": ("NaiveMiner", "SemiNaiveMiner"),
        "repro.core.nfa_mining": ("NfaLocalMiner",),
        "repro.core.partitioning": ("pivot_item",),
        "repro.core.pivot_search": (
            "PositionStateGrid",
            "pivot_merge",
            "pivots_by_run_enumeration",
            "pivots_of_sorted_sets",
        ),
        "repro.core.results": ("MiningResult",),
        "repro.core.rewriting": ("rewrite_for_pivot",),
    },
)
