"""Shared helpers for the synthetic dataset generators.

The paper evaluates on the New York Times corpus, Amazon product reviews and
ClueWeb — all either proprietary or far larger than a laptop-scale
reproduction can hold.  The generators in this package produce *synthetic
stand-ins* whose structural characteristics (Zipfian item frequencies,
hierarchy shape, sequence length distributions, and the match/candidate
behaviour of the Table III constraints) mimic the originals at a much smaller
scale.  See DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate

from repro.dictionary import Hierarchy
from repro.sequences import SequenceDatabase, preprocess


class ZipfSampler:
    """Samples items from a finite population with a Zipf-like distribution."""

    def __init__(self, population: Sequence[str], exponent: float, rng: random.Random) -> None:
        if not population:
            raise ValueError("population must not be empty")
        self._population = list(population)
        self._last = len(self._population) - 1
        self._rng = rng
        weights = [1.0 / (rank**exponent) for rank in range(1, len(self._population) + 1)]
        total = sum(weights)
        self._cumulative = list(accumulate(weight / total for weight in weights))

    def sample(self) -> str:
        """Draw one item: the first whose cumulative share reaches the draw (or the last)."""
        index = bisect_left(self._cumulative, self._rng.random(), 0, self._last)
        return self._population[index]

    def sample_many(self, count: int) -> list[str]:
        """Draw ``count`` items independently."""
        return [self.sample() for _ in range(count)]


class SyntheticDataset:
    """A generated dataset: raw gid sequences plus the item hierarchy."""

    def __init__(self, name: str, sequences: list[tuple[str, ...]], hierarchy: Hierarchy) -> None:
        self.name = name
        self.raw_sequences = sequences
        self.hierarchy = hierarchy

    def preprocess(self):
        """Run the paper's preprocessing: build the f-list and encode the data.

        Returns ``(dictionary, database)``.
        """
        return preprocess(self.raw_sequences, self.hierarchy)

    def __len__(self) -> int:
        return len(self.raw_sequences)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyntheticDataset({self.name!r}, sequences={len(self.raw_sequences)})"


def truncated_geometric(rng: random.Random, mean: float, minimum: int, maximum: int) -> int:
    """A skewed sequence-length distribution with the requested mean-ish value."""
    if maximum <= minimum:
        return minimum
    probability = 1.0 / max(mean - minimum + 1, 1.001)
    length = minimum
    while length < maximum and rng.random() > probability:
        length += 1
    return length


__all__ = [
    "SequenceDatabase",
    "SyntheticDataset",
    "ZipfSampler",
    "truncated_geometric",
]
