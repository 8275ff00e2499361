"""Finite state transducers for DESQ subsequence constraints (Sec. IV)."""

from repro.fst.compiled import (
    DEFAULT_KERNEL,
    KERNELS,
    CompiledFst,
    InterpretedKernel,
    MiningKernel,
    ensure_kernel,
    kernel_fingerprint,
    make_kernel,
    normalize_kernel,
)
from repro.fst.compiler import compile_ast, compile_expression
from repro.fst.export import (
    FstStatistics,
    NfaStatistics,
    fst_statistics,
    fst_to_dot,
    nfa_statistics,
    nfa_to_dot,
    reachable_states,
)
from repro.fst.fst import Fst, Transition
from repro.fst.labels import EPSILON_OUTPUT, Label
from repro.fst.simulation import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_RUNS,
    accepting_output_sets,
    accepting_runs,
    expand_output_sets,
    generate_candidates,
    generates,
    matches,
    reachability_table,
    run_output_sets,
)

__all__ = [
    "DEFAULT_KERNEL",
    "DEFAULT_MAX_CANDIDATES",
    "DEFAULT_MAX_RUNS",
    "EPSILON_OUTPUT",
    "CompiledFst",
    "Fst",
    "FstStatistics",
    "InterpretedKernel",
    "KERNELS",
    "Label",
    "MiningKernel",
    "NfaStatistics",
    "Transition",
    "accepting_output_sets",
    "accepting_runs",
    "compile_ast",
    "compile_expression",
    "ensure_kernel",
    "kernel_fingerprint",
    "make_kernel",
    "normalize_kernel",
    "expand_output_sets",
    "fst_statistics",
    "fst_to_dot",
    "generate_candidates",
    "generates",
    "matches",
    "nfa_statistics",
    "nfa_to_dot",
    "reachability_table",
    "reachable_states",
    "run_output_sets",
]
