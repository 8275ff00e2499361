"""README's "why it is kept" tables name exactly what the code keeps.

The "Execution backends" section of ``README.md`` gives every backend of
``BACKENDS`` and every field of ``ClusterConfig`` one table row with the
reason it stays.  A field or backend that lands without a row fails here,
and so does a row left behind for one that the code no longer has.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.mapreduce import BACKENDS, ClusterConfig

README = Path(__file__).resolve().parent.parent / "README.md"
FIELD_TABLE = "| `ClusterConfig` field | why it is kept |"
BACKEND_TABLE = "| backend (`BACKENDS`) | executor × stored payloads | why it is kept |"


def table_names(text: str, header: str) -> list[str]:
    """The first cell of every body row of the one table headed ``header``,
    backticks stripped, sorted (so a duplicate row shows)."""
    lines = text.splitlines()
    assert lines.count(header) == 1, f"README has {lines.count(header)} tables headed {header!r}"
    body = lines[lines.index(header) + 2:]  # past the header and its |---| rule
    rows = []
    for line in body:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    return sorted(rows)


def config_fields() -> list[str]:
    return sorted(field.name for field in dataclasses.fields(ClusterConfig))


def test_the_field_table_names_exactly_the_config_fields():
    assert table_names(README.read_text(encoding="utf-8"), FIELD_TABLE) == config_fields()


def test_the_backend_table_names_exactly_the_backends():
    assert table_names(README.read_text(encoding="utf-8"), BACKEND_TABLE) == sorted(BACKENDS)


@pytest.mark.parametrize("edit", ["a row removed", "a stale row added", "a row doubled"])
def test_a_table_out_of_step_with_the_code_is_caught(edit):
    text = README.read_text(encoding="utf-8")
    row = next(line for line in text.splitlines() if line.startswith("| `max_task_attempts` |"))
    edited = {
        "a row removed": text.replace(row + "\n", ""),
        "a stale row added": text.replace(row, row + "\n| `grid` | the legacy engine |"),
        "a row doubled": text.replace(row, row + "\n" + row),
    }[edit]
    assert edited != text
    assert table_names(edited, FIELD_TABLE) != config_fields()
