"""Core distributed FSM algorithms: D-SEQ, D-CAND, and baselines."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.balance": (
            "PartitionBalance",
            "dcand_partition_balance",
            "dseq_partition_balance",
            "measure_partition_balance",
        ),
        "repro.core.dcand": ("DCandJob", "DCandMiner"),
        "repro.core.dseq": ("DSeqJob", "DSeqMiner"),
        "repro.core.grid_engine": ("FlatPivotGrid", "cached_grid"),
        "repro.core.local_mining": ("DesqDfsMiner",),
        "repro.core.naive": ("NaiveMiner", "SemiNaiveMiner"),
        "repro.core.nfa_mining": ("NfaLocalMiner",),
        "repro.core.pivot_search": (
            "pivots_by_run_enumeration",
            "pivots_of_sorted_sets",
        ),
        "repro.core.results": ("MiningResult",),
        "repro.core.rewriting": ("rewrite_for_pivot",),
    },
)
