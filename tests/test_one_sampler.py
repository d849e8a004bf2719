"""One sampler: only fedsam.sampling draws a chain's uniforms and inverts them.

Every other module of the package gets its trajectories from `AgentChain`
(`walk`, `step`, `steps`) or `ChainRows`, so the draw order and the table
layout are written in one place. The check reads the source, not the
behaviour: no other module imports bisect, reads the chains' tables
(`policy_cdf`, `trans_cdf`) or another object's `rng`, or calls
`invert_rows`.
"""

import ast
from pathlib import Path

import pytest

import fedsam

PACKAGE = Path(fedsam.__file__).resolve().parent
CHAIN_TABLES = {"policy_cdf", "trans_cdf"}


def sampler_uses(tree: ast.AST) -> list[str]:
    """The sampler's own operations that the module's source performs, with line numbers."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', 0):5d}"
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "bisect" for a in node.names):
            found.append(f"{where}: imports bisect")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "bisect":
                found.append(f"{where}: imports from bisect")
            if any(a.name == "invert_rows" for a in node.names):
                found.append(f"{where}: imports invert_rows")
        elif isinstance(node, ast.Attribute):
            if node.attr in CHAIN_TABLES:
                found.append(f"{where}: reads .{node.attr}")
            # an object may keep its own generator as self.rng; a chain's is not read
            elif node.attr == "rng" and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append(f"{where}: reads another object's .rng")
            elif node.attr == "invert_rows":
                found.append(f"{where}: calls invert_rows")
        elif isinstance(node, ast.Name) and node.id in CHAIN_TABLES | {"invert_rows"}:
            found.append(f"{where}: names {node.id}")
    return sorted(found)


MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "sampling.py")


@pytest.mark.parametrize("module", MODULES)
def test_only_sampling_draws_and_inverts(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert sampler_uses(tree) == []


def test_the_check_sees_each_use():
    source = (
        "import bisect\n"
        "from bisect import bisect_right\n"
        "from .sampling import invert_rows\n"
        "x = chain.policy_cdf\n"
        "y = noise.trans_cdf\n"
        "u = chain.rng.random(2)\n"
        "v = self.rng.normal()\n"  # an object's own generator: allowed
        "w = sampling.invert_rows(t, 2, rows, u)\n"
    )
    assert [use.split(": ")[1] for use in sampler_uses(ast.parse(source))] == [
        "imports bisect", "imports from bisect", "imports invert_rows", "reads .policy_cdf",
        "reads .trans_cdf", "reads another object's .rng", "calls invert_rows",
    ]
    assert "sampling.py" not in MODULES and "algorithms.py" in MODULES
