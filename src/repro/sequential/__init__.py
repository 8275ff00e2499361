"""Sequential and specialised reference miners used for comparison."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sequential.desq_count": ("SequentialDesqCount",),
        "repro.sequential.desq_dfs": ("SequentialDesqDfs",),
        "repro.sequential.lash": (
            "GapConstrainedJob",
            "GapConstrainedMiner",
            "LashMiner",
            "MgFsmMiner",
        ),
        "repro.sequential.prefixspan": ("PrefixSpanMiner",),
    },
)
