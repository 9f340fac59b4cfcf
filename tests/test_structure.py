"""The package's import graph, read from its source with ``ast``."""

import ast
from pathlib import Path

import pytest

import pathprob

SRC = Path(pathprob.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
RESULT_NAMES = {
    "_Result", "_jsonable", "TransitionEstimate", "KernelEstimate", "CKResult", "ScanResult",
    "WeightResult", "PositivityResult",
}


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def package_imports(module):
    """``(package module, name)`` for each name the module imports from the package."""
    out = []
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                out.append((node.module or alias.name, alias.name))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pathprob."):
            out.extend((node.module.removeprefix("pathprob."), a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            out.extend(
                (a.name.removeprefix("pathprob."), None)
                for a in node.names
                if a.name.startswith("pathprob.")
            )
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    for func in ast.walk(tree(path)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [n for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{path.name}: {func.name} imports at line {inner[0].lineno}"


def test_oracle_imports_only_potentials_and_results():
    # the independent reference takes nothing from the path-weight routes
    assert {mod for mod, _ in package_imports(tree(SRC / "oracle.py"))} == {"potentials", "results"}


def test_results_imports_nothing_from_the_package():
    assert package_imports(tree(SRC / "results.py")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_result_types_come_from_results(path):
    wrong = [
        (mod, name) for mod, name in package_imports(tree(path))
        if name in RESULT_NAMES and mod != "results"
    ]
    assert not wrong, f"{path.name} imports result types from elsewhere: {wrong}"


@pytest.mark.parametrize("name", ["weights.py", "quadrature.py"])
def test_path_weight_modules_take_only_bessel_helpers_from_oracle(name):
    # the oracle validates the path-weight routes, so weights shares its one
    # Bessel truncation helper and nothing of its propagation; the product
    # form takes its Bessel coefficients from weights
    allowed = {"weights.py": {"_bessel_orders"}, "quadrature.py": set()}[name]
    taken = {n for mod, n in package_imports(tree(SRC / name)) if mod == "oracle"}
    assert taken <= allowed, f"{name} takes {taken}"


def test_cli_emits_result_dicts():
    # each subcommand's JSON is one result's to_dict(), or that dict | extra
    # keys (oracle's), so a field added to the result reaches every output
    calls = [
        node for node in ast.walk(tree(SRC / "cli.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit"
    ]
    assert calls
    for call in calls:
        payload = call.args[0]
        if isinstance(payload, ast.BinOp) and isinstance(payload.op, ast.BitOr):
            payload = payload.left
        assert isinstance(payload, ast.Call) and getattr(payload.func, "attr", None) == "to_dict", (
            f"cli.py line {call.lineno}: {ast.unparse(call)}"
        )
