"""Experiment configuration: datasets and constraints scaled to the reproduction.

The paper's datasets have 21–567 million sequences; the synthetic stand-ins
used here have a few thousand.  Minimum supports are scaled roughly
proportionally so that the *selectivity* of each constraint (CSPI, number of
patterns found) remains comparable in spirit.  The mapping is recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.datasets import (
    Constraint,
    amzn_forest_like,
    amzn_like,
    constraint,
    cw_like,
    nyt_like,
)
from repro.dictionary import Dictionary
from repro.mapreduce import ClusterConfig
from repro.sequences import SequenceDatabase

#: Default sizes of the synthetic datasets used by benchmarks and experiments.
DEFAULT_SIZES = {
    "NYT": 800,
    "AMZN": 2000,
    "AMZN-F": 2000,
    "CW": 1200,
}

#: Number of simulated workers (the paper uses 8 worker nodes).
DEFAULT_WORKERS = 8

#: The substrate every experiment runs on unless handed another one: the
#: paper's eight workers, modelled in-process.
DEFAULT_CLUSTER = ClusterConfig(num_workers=DEFAULT_WORKERS)


@dataclass(frozen=True)
class PreparedDataset:
    """A generated and preprocessed dataset."""

    name: str
    dictionary: Dictionary
    database: SequenceDatabase

    @property
    def size(self) -> int:
        return len(self.database)


@lru_cache(maxsize=None)
def prepare_dataset(name: str, size: int | None = None, seed: int = 13) -> PreparedDataset:
    """Generate and preprocess one of the four evaluation datasets."""
    size = size or DEFAULT_SIZES[name]
    if name == "NYT":
        dataset = nyt_like(size, seed=seed)
    elif name == "AMZN":
        dataset = amzn_like(size, seed=seed)
    elif name == "AMZN-F":
        dataset = amzn_forest_like(size, seed=seed)
    elif name == "CW":
        dataset = cw_like(size, seed=seed)
    else:
        raise KeyError(f"unknown dataset {name!r}")
    dictionary, database = dataset.preprocess()
    return PreparedDataset(name, dictionary, database)


# --------------------------------------------------------------------- scaling
#: σ values used for the reproduction (paper value -> scaled value), chosen so
#: that each constraint finds a non-trivial but bounded number of patterns on
#: the synthetic datasets.
SCALED_SIGMA = {
    "N1": 5,
    "N2": 10,
    "N3": 5,
    "N4": 25,
    "N5": 25,
    "A1": 10,
    "A2": 5,
    "A3": 5,
    "A4": 5,
    "T1": 25,
    "T2": 10,
    "T3": 10,
}


def figure9a_constraints() -> list[Constraint]:
    """The NYT constraints of Fig. 9a with scaled σ."""
    return [
        constraint("N1", SCALED_SIGMA["N1"]),
        constraint("N2", SCALED_SIGMA["N2"]),
        constraint("N3", SCALED_SIGMA["N3"]),
        constraint("N4", SCALED_SIGMA["N4"]),
        constraint("N5", SCALED_SIGMA["N5"]),
    ]


def figure9b_constraints() -> list[Constraint]:
    """The AMZN constraints of Fig. 9b with scaled σ."""
    return [
        constraint("A1", SCALED_SIGMA["A1"]),
        constraint("A2", SCALED_SIGMA["A2"]),
        constraint("A3", SCALED_SIGMA["A3"]),
        constraint("A4", SCALED_SIGMA["A4"]),
    ]


def table4_constraints() -> list[tuple[str, Constraint]]:
    """The (dataset, constraint) pairs reported in Table IV."""
    pairs = [("NYT", c) for c in figure9a_constraints()]
    pairs += [("AMZN", c) for c in figure9b_constraints()]
    pairs += [
        ("AMZN-F", constraint("T3", SCALED_SIGMA["T3"], 1, 5)),
        ("AMZN", constraint("T1", SCALED_SIGMA["T1"], 5)),
    ]
    return pairs
