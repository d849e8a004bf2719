"""One guard: only the lockstep rows base class defines the finite guard `run`.

Each kind's lockstep rows subclass `algorithms.LockstepRows` and give only
their `_gather` and `step`, so the guard's verdicts and its carried watch are
written in one place. The check reads the source: no other class of the
package defines or assigns a `run`.
"""

import ast
from pathlib import Path

import pytest

import fedsam

PACKAGE = Path(fedsam.__file__).resolve().parent
GUARD = ("algorithms.py", "LockstepRows")


def classes_with_run(module: str, tree: ast.AST) -> list[tuple[str, str]]:
    """(module, class) of every class whose body defines or assigns `run`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if "run" in names:
                found.append((module, node.name))
    return found


def package_classes_with_run() -> list[tuple[str, str]]:
    return sorted(found for path in sorted(PACKAGE.glob("*.py"))
                  for found in classes_with_run(path.name, ast.parse(path.read_text())))


def test_only_the_rows_base_defines_the_guard():
    assert package_classes_with_run() == [GUARD]


def test_the_lockstep_rows_subclass_the_base():
    from fedsam.algorithms import LockstepRows, QLearningRows

    assert issubclass(QLearningRows, LockstepRows)
    assert "run" not in vars(QLearningRows) and "synced" not in vars(QLearningRows)


@pytest.mark.parametrize("body", [
    "def run(self, thetas, t, t_stop, alpha):\n        return []",
    "run = LockstepRows.run",
    "run: object = None",
])
def test_the_check_sees_a_second_guard(body):
    source = f"class OffPolicyRows(LockstepRows):\n    {body}\n"
    assert classes_with_run("algorithms.py", ast.parse(source)) == [("algorithms.py", "OffPolicyRows")]
