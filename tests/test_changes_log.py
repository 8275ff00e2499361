"""Every ``CHANGES.md`` entry from number 41 on fits a character budget.

An entry is a line that starts ``- PR <n>`` and every line after it up to the
next such line: its wrapped text and its ``FOUND:`` / ``MENDED:`` lines.  The
budget lets entry 40 (4.45 K characters with its FOUND lines) fit; the
entries before :data:`FIRST_CAPPED` are not held to it.
"""

from __future__ import annotations

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
ENTRY = re.compile(r"^- PR (\d+)\b", re.MULTILINE)

#: Characters an entry may take, its FOUND lines included.
BUDGET = 4_500

#: The number of the first entry held to :data:`BUDGET`.
FIRST_CAPPED = 41


def entries(text: str) -> list[tuple[int, str]]:
    """``(entry number, entry text)`` for every entry, in file order."""
    starts = list(ENTRY.finditer(text))
    ends = [match.start() for match in starts[1:]] + [len(text)]
    return [
        (int(match.group(1)), text[match.start():end].rstrip("\n"))
        for match, end in zip(starts, ends)
    ]


def test_every_capped_entry_fits_the_budget():
    capped = [(number, entry) for number, entry in entries(CHANGES.read_text(encoding="utf-8"))
              if number >= FIRST_CAPPED]
    assert capped, f"vacuous: no entry numbered {FIRST_CAPPED} or higher"
    over = {number: len(entry) for number, entry in capped if len(entry) > BUDGET}
    assert not over, f"CHANGES.md entries over {BUDGET} characters: {over}"


def test_an_entry_runs_to_the_next_one_with_its_found_lines():
    text = "# CHANGES\n- PR 40 (a): x\n  wrapped\nFOUND: y\n- PR 41 (b): z\nFOUND: w\n"
    assert entries(text) == [
        (40, "- PR 40 (a): x\n  wrapped\nFOUND: y"),
        (41, "- PR 41 (b): z\nFOUND: w"),
    ]
