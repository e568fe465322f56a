"""The solver layers import nothing from the layers above them: the
closed-form bounds, the campaign harness and the file formats.  The CLI
imports no error class that it only maps to an exit code.  ``linalg``
states no rule of a gap split."""

import ast
import dataclasses
from pathlib import Path

import pytest

from spl import linalg

SRC = Path(__file__).resolve().parents[1] / "src" / "spl"


def spl_imports(module: str) -> set[str]:
    """The spl modules that ``spl.<module>`` imports anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "spl" + (f".{node.module}" if node.module else "") if node.level else node.module
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("spl."))
    return found


def test_import_scan_sees_relative_imports():
    assert {"disposition", "errors", "linalg"} <= spl_imports("riccati")


@pytest.mark.parametrize("module", ["riccati", "linalg", "disposition"])
def test_solver_imports_no_bounds_harness_or_matio(module):
    assert not spl_imports(module) & {"bounds", "harness", "matio"}


def test_linalg_states_no_gap_rule():
    # the edge tolerance of a gap split is disposition's; an eigensystem is
    # its values and vectors
    assert not hasattr(linalg, "EDGE_RTOL")
    assert [f.name for f in dataclasses.fields(linalg.EigenSystem)] == ["values", "vectors"]
    assert [name for name in dir(linalg.EigenSystem) if not name.startswith("_")] == []


def test_cli_names_no_error_class_it_only_maps():
    # cli maps StructuralFailure to exit 3 and every other error to 4, so it
    # imports only the errors it raises or catches by name
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("errors", "spl.errors")
        for alias in node.names
    }
    assert names == {"ConfigError", "SingularDenominator", "SplError", "StructuralFailure"}
