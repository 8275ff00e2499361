"""The CI workflow's named test steps point at tests that exist.

``.github/workflows/ci.yml`` runs several tier-1 tests a second time in named
steps, by node id.  A renamed or deleted test would break such a step only on
the CI runner (pytest exits 4 on an unknown node id); this test finds every
``tests/<file>.py::Class[::test]`` id the workflow names — in ``run`` lines
and comments alike — and checks the class and method are defined.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
NODE_ID = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)+)")


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
