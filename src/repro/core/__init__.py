"""Core distributed FSM algorithms: D-SEQ, D-CAND, and baselines."""

from repro.core.balance import (
    JobPlanner,
    PartitionBalance,
    PartitionPlan,
    attach_partition_plan,
    dcand_partition_balance,
    dseq_partition_balance,
    estimate_partition_loads,
    measure_partition_balance,
    plan_job_partitions,
    plan_partitions,
)
from repro.core.dcand import DCandJob, DCandMiner
from repro.core.dseq import DSeqJob, DSeqMiner
from repro.core.grid_engine import (
    DEFAULT_GRID,
    GRIDS,
    FlatPivotGrid,
    cached_grid,
    make_grid,
    normalize_grid,
)
from repro.core.local_mining import DesqDfsMiner
from repro.core.miner import ALGORITHMS, mine
from repro.core.naive import NaiveMiner, SemiNaiveMiner
from repro.core.nfa_mining import NfaLocalMiner
from repro.core.partitioning import (
    group_candidates_by_pivot,
    is_pivot_sequence,
    pivot_item,
    pivot_items_of_candidates,
    subsequence_key,
)
from repro.core.prefix_batch import (
    DEFAULT_MAP_BATCHING,
    MAP_BATCHINGS,
    batched_accepting,
    batched_grids,
    normalize_map_batching,
)
from repro.core.pivot_search import (
    PositionStateGrid,
    pivot_items,
    pivot_merge,
    pivots_by_run_enumeration,
    pivots_of_output_sets,
    pivots_of_sorted_sets,
)
from repro.core.results import MiningResult
from repro.core.rewriting import rewrite_for_pivot, rewrite_statistics

__all__ = [
    "ALGORITHMS",
    "DCandJob",
    "DCandMiner",
    "DEFAULT_GRID",
    "DEFAULT_MAP_BATCHING",
    "DSeqJob",
    "DSeqMiner",
    "DesqDfsMiner",
    "FlatPivotGrid",
    "GRIDS",
    "JobPlanner",
    "MAP_BATCHINGS",
    "MiningResult",
    "NaiveMiner",
    "NfaLocalMiner",
    "PartitionBalance",
    "PartitionPlan",
    "PositionStateGrid",
    "SemiNaiveMiner",
    "attach_partition_plan",
    "batched_accepting",
    "batched_grids",
    "cached_grid",
    "dcand_partition_balance",
    "dseq_partition_balance",
    "estimate_partition_loads",
    "make_grid",
    "measure_partition_balance",
    "group_candidates_by_pivot",
    "is_pivot_sequence",
    "mine",
    "plan_job_partitions",
    "plan_partitions",
    "normalize_grid",
    "normalize_map_batching",
    "pivot_item",
    "pivot_items",
    "pivot_items_of_candidates",
    "pivot_merge",
    "pivots_by_run_enumeration",
    "pivots_of_output_sets",
    "pivots_of_sorted_sets",
    "rewrite_for_pivot",
    "rewrite_statistics",
    "subsequence_key",
]
