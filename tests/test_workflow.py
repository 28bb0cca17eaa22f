"""Every test that the CI workflow's fuzz step names exists, so a test
renamed or removed without the workflow fails the suite here and not
only in CI, where pytest would stop at the missing name."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _fuzz_step_targets() -> list[str]:
    """The ``tests/...py[::name...]`` arguments of the fuzz step's command."""
    text = WORKFLOW.read_text(encoding="utf-8")
    step = re.search(r"^ *- name: Fuzz tests.*?^ *run:(.*?)(?=^ *- name: |\Z)", text, re.M | re.S)
    assert step, f"{WORKFLOW} has no fuzz step with a run command"
    return re.findall(r"tests/[\w/]+\.py(?:::\w+)*", step.group(1))


def _defines(path: Path, names: list[str]) -> bool:
    """Whether ``path`` defines the test ``names`` reaches: a function, or
    a class and then a method of it."""
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_fuzz_step_names_only_tests_that_exist():
    targets = _fuzz_step_targets()
    assert "tests/test_fuzz.py" in targets and any("::" in t for t in targets)
    missing = []
    for target in targets:
        path, *names = target.split("::")
        if not ((ROOT / path).is_file() and _defines(ROOT / path, names)):
            missing.append(target)
    assert not missing, f"the fuzz step in {WORKFLOW.name} names no such test: {missing}"
