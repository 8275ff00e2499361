"""Experiment harness: regenerates every table and figure of the paper."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.configs": (
            "DEFAULT_SIZES",
            "DEFAULT_WORKERS",
            "SCALED_SIGMA",
            "PreparedDataset",
            "prepare_dataset",
        ),
        "repro.experiments.figures": (
            "figure9a",
            "figure9b",
            "figure9c",
            "figure10a",
            "figure10b",
            "figure11_scalability",
            "figure12_lash_setting",
            "figure13_mllib_setting",
        ),
        "repro.experiments.harness": (
            "RunRecord",
            "run_algorithm",
            "run_comparison",
        ),
        "repro.experiments.plotting": ("bar_chart", "grouped_bar_chart", "multi_line_chart"),
        "repro.experiments.reporting": ("format_table", "human_bytes"),
        "repro.experiments.tables": (
            "candidate_statistics",
            "table2_dataset_characteristics",
            "table4_candidate_statistics",
            "table5_speedup",
        ),
    },
)
