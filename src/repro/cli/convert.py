"""``repro convert``: convert between sequence file formats."""

from __future__ import annotations

import sys
from argparse import Namespace
from pathlib import Path

from repro.cli.common import CliError
from repro.sequences import detect_format, load_sequences, save_sequences
from repro.sequences.formats import KNOWN_FORMATS


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "convert",
        help="convert sequence files between the text and jsonl formats",
        description="Convert a sequence file between the text and JSON-lines formats.",
    )
    parser.add_argument("--input", required=True, metavar="FILE", help="input file")
    parser.add_argument("--output", required=True, metavar="FILE", help="output file")
    parser.add_argument(
        "--input-format",
        choices=KNOWN_FORMATS,
        default=None,
        help="input format (default: detect from the file name)",
    )
    parser.add_argument(
        "--output-format",
        choices=KNOWN_FORMATS,
        default=None,
        help="output format (default: detect from the file name)",
    )
    parser.set_defaults(run=run)


def run(args: Namespace, stream=None) -> int:
    stream = stream or sys.stdout
    input_path = Path(args.input)
    if not input_path.exists():
        raise CliError(f"input file not found: {input_path}")
    input_format = args.input_format or detect_format(input_path)
    output_format = args.output_format or detect_format(args.output)

    sequences = load_sequences(input_path, input_format)
    if not sequences:
        raise CliError(f"no sequences found in {input_path}")
    save_sequences(args.output, sequences, output_format)

    stream.write(
        f"converted {len(sequences)} sequences: {input_path} ({input_format}) "
        f"-> {args.output} ({output_format})\n"
    )
    return 0
