"""One verdict: only `mdp.solve_chain` decides whether a behavior chain is ergodic.

It runs the squaring certificate (`mixing_bound`) and, for a chain that the
certificate does not accept, raises the "reducible or periodic"
`ErgodicityError` from the spectrum. The exact spectrum (`eigen_moduli`) is
read outside `mdp.py` only by `sampling.mixing_diagnostics`, the diagnostic
that the short-horizon warning reads. The check reads the source, not the
behaviour.
"""

import ast
from pathlib import Path

import fedsam

PACKAGE = Path(fedsam.__file__).resolve().parent
VERDICT = {("mdp.py", "solve_chain")}
SPECTRUM_OUTSIDE_MDP = {("sampling.py", "mixing_diagnostics")}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def verdict_uses(module: str, tree: ast.AST) -> list[tuple[str, str, str]]:
    """(what, module, enclosing function) for each call of `mixing_bound` or
    `eigen_moduli` and each raise of the "reducible or periodic" error."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and _called_name(node) in ("mixing_bound", "eigen_moduli"):
            found.append((_called_name(node), module, scope))
        elif (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and _called_name(node.exc) == "ErgodicityError"
              and any(isinstance(c, ast.Constant) and "reducible or periodic" in str(c.value)
                      for c in ast.walk(node.exc))):
            found.append(("raises reducible or periodic", module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def package_uses() -> list[tuple[str, str, str]]:
    return sorted(use for path in sorted(PACKAGE.glob("*.py"))
                  for use in verdict_uses(path.name, ast.parse(path.read_text(), filename=path.name)))


def callers(what: str, uses) -> set[tuple[str, str]]:
    return {(module, scope) for kind, module, scope in uses if kind == what}


def test_only_solve_chain_certifies_and_rejects():
    uses = package_uses()
    assert callers("mixing_bound", uses) == VERDICT
    assert callers("raises reducible or periodic", uses) == VERDICT


def test_only_mdp_and_the_diagnostic_read_the_spectrum():
    outside = {(m, scope) for m, scope in callers("eigen_moduli", package_uses()) if m != "mdp.py"}
    assert outside == SPECTRUM_OUTSIDE_MDP


def test_the_check_sees_each_use():
    source = (
        "bound = mdp.mixing_bound(p, mu)\n"
        "class AlgorithmInstance:\n"
        "    def _solve_chain(self, b):\n"
        "        moduli = eigen_moduli(p)\n"
        "        raise ErgodicityError(f'second eigenvalue modulus {m}: chain reducible or periodic')\n"
        "    def other(self):\n"
        "        raise ErgodicityError('stationary distribution has (near-)zero mass states')\n"
    )
    assert verdict_uses("algorithms.py", ast.parse(source)) == [
        ("mixing_bound", "algorithms.py", "<module>"),
        ("eigen_moduli", "algorithms.py", "AlgorithmInstance._solve_chain"),
        ("raises reducible or periodic", "algorithms.py", "AlgorithmInstance._solve_chain"),
    ]
