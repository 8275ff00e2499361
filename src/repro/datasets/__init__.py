"""Synthetic stand-ins for the paper's datasets and the Table III constraints."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.datasets.amzn": ("AmznLikeGenerator", "amzn_forest_like", "amzn_like"),
        "repro.datasets.constraints": (
            "CONSTRAINT_FACTORIES",
            "Constraint",
            "a1",
            "a2",
            "a3",
            "a4",
            "constraint",
            "n1",
            "n2",
            "n3",
            "n4",
            "n5",
            "t1",
            "t2",
            "t3",
        ),
        "repro.datasets.cw": ("ClueWebLikeGenerator", "cw_like"),
        "repro.datasets.nyt": ("NytLikeGenerator", "nyt_like"),
        "repro.datasets.proteins": (
            "ProteinLikeGenerator",
            "protein_hierarchy",
            "protein_like",
            "protein_motif_constraint",
        ),
        "repro.datasets.synthetic": ("SyntheticDataset", "ZipfSampler"),
    },
)
