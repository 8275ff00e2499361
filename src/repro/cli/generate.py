"""``repro generate``: write one of the synthetic evaluation datasets to disk."""

from __future__ import annotations

import sys
from argparse import Namespace
from pathlib import Path

from repro.cli.common import CliError
from repro.datasets import (
    amzn_forest_like,
    amzn_like,
    cw_like,
    nyt_like,
    protein_like,
)
from repro.sequences import save_sequences, write_dictionary

#: Dataset name -> generator function (size, seed) -> SyntheticDataset.
DATASET_GENERATORS = {
    "NYT": nyt_like,
    "AMZN": amzn_like,
    "AMZN-F": amzn_forest_like,
    "CW": cw_like,
    "PROT": protein_like,
}


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate",
        help="generate a synthetic evaluation dataset",
        description=(
            "Generate one of the synthetic stand-ins for the paper's datasets "
            "(NYT, AMZN, AMZN-F, CW) or the protein-motif dataset (PROT), and "
            "write the sequences and the dictionary to an output directory."
        ),
    )
    parser.add_argument(
        "--dataset",
        required=True,
        choices=sorted(DATASET_GENERATORS),
        help="which synthetic dataset to generate",
    )
    parser.add_argument("--size", type=int, default=1000, help="number of sequences")
    parser.add_argument("--seed", type=int, default=13, help="random seed")
    parser.add_argument(
        "--output-dir", required=True, metavar="DIR", help="directory to write into"
    )
    parser.add_argument(
        "--format",
        dest="sequence_format",
        choices=("text", "jsonl"),
        default="text",
        help="sequence file format (default: text)",
    )
    parser.set_defaults(run=run)


def run(args: Namespace, stream=None) -> int:
    stream = stream or sys.stdout
    if args.size < 1:
        raise CliError(f"--size must be >= 1, got {args.size}")
    generator = DATASET_GENERATORS[args.dataset]
    dataset = generator(args.size, seed=args.seed)
    dictionary, database = dataset.preprocess()

    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    suffix = "jsonl" if args.sequence_format == "jsonl" else "txt"
    sequences_path = output_dir / f"sequences.{suffix}"
    dictionary_path = output_dir / "dictionary.json"

    written = save_sequences(sequences_path, dataset.raw_sequences, args.sequence_format)
    write_dictionary(dictionary_path, dictionary)

    stats = database.statistics()
    stream.write(f"wrote {sequences_path} ({written} sequences)\n")
    stream.write(f"wrote {dictionary_path} ({len(dictionary)} items)\n")
    stream.write(
        "dataset {}: {} sequences, {} items total, mean length {:.1f}, "
        "max length {}\n".format(
            args.dataset,
            stats.sequence_count,
            stats.total_items,
            stats.mean_length,
            stats.max_length,
        )
    )
    return 0
