"""``repro inspect``: compile a pattern expression and inspect the FST."""

from __future__ import annotations

import sys
from argparse import Namespace
from pathlib import Path

from repro.cli.common import CliError, add_input_arguments, load_input
from repro.experiments import format_table
from repro.fst import fst_statistics, fst_to_dot, generate_candidates, make_kernel
from repro.patex import PatEx


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "inspect",
        help="compile a pattern expression and inspect the resulting FST",
        description=(
            "Compile a DESQ pattern expression against a dataset's dictionary, "
            "print structural statistics of the FST, optionally export it as "
            "Graphviz dot, and optionally list the candidate subsequences "
            "G_π(T) generated for individual input sequences."
        ),
    )
    add_input_arguments(parser)
    parser.add_argument("--pattern", required=True, metavar="EXPR", help="pattern expression")
    parser.add_argument(
        "--dot", metavar="FILE", default=None, help="write the FST as Graphviz dot to FILE"
    )
    parser.add_argument(
        "--candidates",
        type=int,
        metavar="N",
        default=0,
        help="show the candidate subsequences of the first N input sequences",
    )
    parser.add_argument(
        "--sigma",
        type=int,
        default=None,
        help="restrict candidates to frequent items (G^σ_π instead of G_π)",
    )
    parser.set_defaults(run=run)


def run(args: Namespace, stream=None) -> int:
    stream = stream or sys.stdout
    dictionary, database, _raw = load_input(args)
    patex = PatEx(args.pattern)
    fst = patex.compile(dictionary)

    stats = fst_statistics(fst)
    stream.write(f"pattern expression: {args.pattern}\n")
    stream.write(format_table([stats.as_dict()]))
    stream.write("\n")

    if args.dot:
        dot_path = Path(args.dot)
        dot_path.write_text(fst_to_dot(fst, dictionary, title=args.pattern), encoding="utf-8")
        stream.write(f"wrote {dot_path}\n")

    if args.candidates:
        if args.candidates < 0:
            raise CliError("--candidates must be >= 0")
        stream.write("\ncandidate subsequences:\n")
        kernel = make_kernel(fst, dictionary)
        for index, sequence in enumerate(database):
            if index >= args.candidates:
                break
            candidates = generate_candidates(kernel, sequence, sigma=args.sigma)
            rendered = [
                " ".join(dictionary.decode(candidate)) for candidate in sorted(candidates)
            ]
            stream.write(
                f"  T{index + 1} ({' '.join(dictionary.decode(sequence))}): "
                f"{', '.join(rendered) if rendered else '(none)'}\n"
            )
    return 0
