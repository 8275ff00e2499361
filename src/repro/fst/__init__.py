"""Finite state transducers for DESQ subsequence constraints (Sec. IV)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.fst.compiled": (
            "CompiledFst",
            "MiningKernel",
            "ensure_kernel",
            "kernel_fingerprint",
            "make_kernel",
        ),
        "repro.fst.compiler": ("compile_ast", "compile_expression"),
        "repro.fst.export": (
            "FstStatistics",
            "fst_statistics",
            "fst_to_dot",
        ),
        "repro.fst.fst": ("Fst", "Transition"),
        "repro.fst.labels": ("EPSILON_OUTPUT", "Label"),
        "repro.fst.simulation": (
            "DEFAULT_MAX_CANDIDATES",
            "DEFAULT_MAX_RUNS",
            "accepting_output_sets",
            "accepting_runs",
            "expand_output_sets",
            "generate_candidates",
        ),
    },
)
