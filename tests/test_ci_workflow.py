"""The CI workflow's named test steps point at tests that exist.

``.github/workflows/ci.yml`` runs several tier-1 tests a second time in named
steps, by node id.  A renamed or deleted test would break such a step only on
the CI runner (pytest exits 4 on an unknown node id); this test finds every
``tests/<file>.py::Class[::test]`` id the workflow names — in ``run`` lines
and comments alike — and checks the class and method are defined.  A step
that selects with ``-k`` breaks the same way when the tests it matched are
renamed (pytest exits 5 on an empty selection), so every ``-k`` command is
collected and must select at least one test.
"""

from __future__ import annotations

import ast
import json
import re
import shlex
from pathlib import Path

from tests.conftest import run_probe

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
NODE_ID = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)+)")
RUN_KEY = re.compile(r"(\s*)(?:- )?run:\s*(.*)$")

#: Collects each argument list with ``pytest.main`` in one fresh interpreter
#: and prints the exit codes (0: something collected, 5: nothing).
COLLECT = """
import json, sys
import pytest
codes = [
    int(pytest.main(["--collect-only", "-q", "-p", "no:cacheprovider", *args]))
    for args in json.loads(sys.argv[1])
]
print(json.dumps(codes))
"""


def defined_names(path: Path) -> set[str]:
    """``Class``, ``Class::method`` and ``function`` of a test module."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            names.add(node.name)
            names.update(
                f"{node.name}::{member.name}"
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def test_every_node_id_the_workflow_names_exists():
    named = sorted(set(NODE_ID.findall(WORKFLOW.read_text(encoding="utf-8"))))
    assert len(named) >= 20, "vacuous: the workflow names almost no node ids"
    modules = {
        module: defined_names(ROOT / module) if (ROOT / module).is_file() else set()
        for module in {module for module, _suffix in named}
    }
    missing = [module + suffix for module, suffix in named if suffix[2:] not in modules[module]]
    assert not missing, f"ci.yml names tests that do not exist: {missing}"


def test_a_renamed_test_is_caught(tmp_path):
    module = tmp_path / "tests" / "test_sample.py"
    module.parent.mkdir()
    module.write_text("class TestA:\n    def test_b(self):\n        pass\n\ndef test_c():\n    pass\n")
    assert defined_names(module) == {"TestA", "TestA::test_b", "test_c"}
    assert NODE_ID.findall("run: pytest tests/test_sample.py::TestA::test_b -q") == [
        ("tests/test_sample.py", "::TestA::test_b")
    ]


def run_commands(text: str) -> list[str]:
    """Every ``run`` value of a workflow: a folded (``>``) block is one
    command, a literal (``|``) block one command per line."""
    lines = text.splitlines()
    commands: list[str] = []
    index = 0
    while index < len(lines):
        match = RUN_KEY.match(lines[index])
        index += 1
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        block = []
        while index < len(lines) and (
            not lines[index].strip() or len(lines[index]) - len(lines[index].lstrip()) > indent
        ):
            if lines[index].strip():
                block.append(lines[index].strip())
            index += 1
        if value.startswith(">"):
            commands.append(" ".join(block))
        elif value.startswith("|"):
            commands.extend(block)
        else:
            commands.append(value)
    return commands


def selections(text: str) -> list[list[str]]:
    """The pytest arguments (paths and ``-k``) of every ``-k`` command."""
    found = []
    for command in run_commands(text):
        if "pytest" not in command or " -k " not in command:
            continue
        words = shlex.split(command)
        words = words[words.index("pytest") + 1:]
        keyword = words[words.index("-k") + 1]
        paths = [word for word in words if word.startswith("tests/")]
        found.append([*paths, "-k", keyword])
    return found


def test_every_k_selection_the_workflow_runs_collects_tests():
    found = selections(WORKFLOW.read_text(encoding="utf-8"))
    assert len(found) >= 5, "vacuous: the workflow runs almost no -k selections"
    # The last one must come back empty: the probe tells an empty selection apart.
    nothing = ["tests/test_ci_workflow.py", "-k", "no_such_test_name_anywhere"]
    codes = run_probe(COLLECT, json.dumps([*found, nothing]))
    assert codes[-1] == 5
    empty = [args for args, code in zip(found, codes) if code != 0]
    assert not empty, f"ci.yml runs -k selections that collect no test: {empty}"


def test_run_blocks_are_read_as_the_shell_sees_them():
    text = (
        "      - name: a\n"
        "        run: >\n"
        "          python -m pytest -q\n"
        "          tests/test_a.py\n"
        "          -k \"one or two\"\n"
        "      - name: b\n"
        "        run: |\n"
        "          python -m pytest -q tests/test_b.py -k three\n"
        "          python -m pytest -q tests/test_c.py\n"
        "        env:\n"
        "          X: 1\n"
    )
    assert run_commands(text) == [
        'python -m pytest -q tests/test_a.py -k "one or two"',
        "python -m pytest -q tests/test_b.py -k three",
        "python -m pytest -q tests/test_c.py",
    ]
    assert selections(text) == [
        ["tests/test_a.py", "-k", "one or two"],
        ["tests/test_b.py", "-k", "three"],
    ]
