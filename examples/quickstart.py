"""Quickstart: the paper's running example (Fig. 2) end to end.

Builds the example sequence database and item hierarchy, mines it with all
four distributed algorithms under the constraint π_ex, and prints the frequent
patterns — which match Sec. II of the paper: a1a1b (2), a1Ab (2), a1b (3).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Hierarchy, mine, preprocess

#: π_ex: subsequences that start with A (or a descendant) and end with b,
#: optionally generalizing the items in between.
PATTERN_EXPRESSION = ".*(A)[(.^)|.]*(b).*"


def build_running_example():
    """The sequence database and hierarchy of Fig. 2."""
    hierarchy = Hierarchy()
    hierarchy.add_edge("a1", "A")
    hierarchy.add_edge("a2", "A")
    raw_sequences = [
        ["a1", "c", "d", "c", "b"],
        ["e", "e", "a1", "e", "a1", "e", "b"],
        ["c", "d", "c", "b"],
        ["a2", "d", "b"],
        ["a1", "a1", "b"],
    ]
    return preprocess(raw_sequences, hierarchy)


def main() -> None:
    dictionary, database = build_running_example()

    print("Item frequencies (the f-list):")
    for gid, frequency in dictionary.flist():
        print(f"  f({gid}) = {frequency}")

    print(f"\nConstraint: {PATTERN_EXPRESSION}   minimum support: 2\n")
    for algorithm in ("naive", "semi-naive", "dseq", "dcand"):
        result = mine((database, dictionary), PATTERN_EXPRESSION, sigma=2, algorithm=algorithm)
        patterns = sorted(
            ((" ".join(pattern), count) for pattern, count in result.decoded(dictionary).items()),
            key=lambda item: (-item[1], item[0]),
        )
        rendered = ", ".join(f"{pattern} ({count})" for pattern, count in patterns)
        print(f"{result.algorithm or algorithm:>11}: {rendered}")
        print(
            f"{'':>11}  map {result.metrics.map_seconds * 1000:.1f} ms, "
            f"mine {result.metrics.reduce_seconds * 1000:.1f} ms, "
            f"shuffle {result.metrics.shuffle_bytes} bytes"
        )

    print("\nExpected from the paper: a1 a1 b (2), a1 A b (2), a1 b (3)")


if __name__ == "__main__":
    main()
