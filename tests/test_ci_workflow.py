"""The CI workflow's named test steps point at tests that exist.

``.github/workflows/ci.yml`` runs several tier-1 tests a second time in named
steps, by node id.  A renamed or deleted test would break such a step only on
the CI runner (pytest exits 4 on an unknown node id); this test finds every
``tests/<file>.py::Class[::test]`` id the workflow names — in ``run`` lines
and comments alike — and checks the class and method are defined.  A step
that selects with ``-k`` breaks the same way when the tests it matched are
renamed (pytest exits 5 on an empty selection), so every ``-k`` command is
collected and must select at least one test.  And every ``--flag`` of a
documented CLI command — a ``repro <command>`` line in a README shell block,
a ``python -m repro.cli.main <command>`` line in the workflow — must be an
option of that subcommand's parser, so a removed flag leaves no dead recipe.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import shlex
from pathlib import Path

from tests.conftest import run_probe

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
README = ROOT / "README.md"
SHELL_BLOCK = re.compile(r"^```(?:bash|sh|shell|console)\n(.*?)^```", re.MULTILINE | re.DOTALL)
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


def joined_lines(lines: list[str]) -> list[str]:
    """Shell lines with each backslash continuation joined onto its line."""
    return "\n".join(lines).replace("\\\n", " ").splitlines()


def cli_invocations(lines: list[str], program: str) -> list[tuple[str, list[str]]]:
    """``(subcommand, --flags)`` of every line that runs ``program``."""
    pattern = re.compile(rf"(?:^|\s){re.escape(program)}\s+([a-z][\w-]*)(.*)")
    found = []
    for line in lines:
        match = pattern.search(line)
        if match:
            words = shlex.split(match.group(2), comments=True)
            flags = [word.split("=", 1)[0] for word in words if word.startswith("--")]
            found.append((match.group(1), flags))
    return found


def documented_invocations() -> tuple[list, list]:
    """The CLI commands README's shell blocks and the workflow's runs name."""
    readme = [
        line
        for block in SHELL_BLOCK.findall(README.read_text(encoding="utf-8"))
        for line in joined_lines(block.splitlines())
    ]
    workflow = joined_lines(run_commands(WORKFLOW.read_text(encoding="utf-8")))
    return (
        cli_invocations(readme, "repro"),
        cli_invocations(workflow, "python -m repro.cli.main"),
    )


def dead_flags(invocations: list[tuple[str, list[str]]]) -> list[str]:
    """Each ``command --flag`` whose subcommand has no such option."""
    from repro.cli.main import build_parser

    (subcommands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    dead = []
    for command, flags in invocations:
        parser = subcommands.choices.get(command)
        options = parser._option_string_actions if parser is not None else {}
        dead.extend(f"{command} {flag}" for flag in flags if flag not in options)
        if parser is None:
            dead.append(command)
    return dead


def test_every_documented_command_names_live_flags():
    readme, workflow = documented_invocations()
    assert len(readme) >= 8 and len(workflow) >= 2, "vacuous: almost no commands found"
    assert sum(len(flags) for _command, flags in readme + workflow) >= 25
    assert not dead_flags(readme), f"README names flags no parser has: {dead_flags(readme)}"
    assert not dead_flags(workflow), f"ci.yml names flags no parser has: {dead_flags(workflow)}"


def test_a_dead_flag_is_caught():
    lines = joined_lines([
        "repro mine ... --backend multihost --retries 2 --no-such-flag 30 --metrics",
        "python -m repro.cli.main generate --dataset NYT \\",
        "  --size=100 --output-dir out   # --not-a-flag",
        "repro frobnicate --x",
    ])
    assert cli_invocations(lines, "python -m repro.cli.main") == [
        ("generate", ["--dataset", "--size", "--output-dir"])
    ]
    assert dead_flags(cli_invocations(lines, "repro")) == [
        "mine --no-such-flag", "frobnicate --x", "frobnicate",
    ]
