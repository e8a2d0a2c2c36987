"""No top-level definition in ``src/`` that nothing calls.

An AST scan of every module-level function and class in ``src/``: a
definition counts as used when its name appears (as a name, an
attribute, or an import into a module other than a package
``__init__``) somewhere in ``src/``, ``benchmarks/`` or ``examples/``
outside its own body.  A package ``__init__`` re-export is not a use,
and neither are tests: a definition only tests call is dead code unless
it is on :data:`ALLOWED`, with the reason it stays.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Definitions nothing in src/, benchmarks/ or examples/ uses, kept on
#: purpose.
ALLOWED = {
    "run_layer": "public one-call convolution of a layer spec",
    "im2col_gemm_conv2d_fp32": "fp32 oracle of the schedule differential tests",
    "assert_counts_match": "model-vs-trace count oracle of the validation tests",
    "interleave4_reference": "NumPy oracle of the transpose kernels",
    "accuracy_vs_filter_size": "Winograd accuracy study over filter sizes",
    "copy_space": "im2col schedule space, the copy counterpart of matmul_space",
    "read_percentiles": "public reader of scraped histogram percentiles",
    "cost_model_for": "public entry to the static cost model of one kernel",
    "has_proposed_extensions": "public capability query of a machine",
    "warnings_in": "public filter of a recorded event stream",
    "yolov3_conv_layers": "public conv-only view of the YOLOv3 prefix",
    "audit_kernels": "registry sweep of the trace-lifted audit",
    "audit_kernels_static": "registry sweep of the static audit",
    "TeeSink": "public event sink that fans one stream out",
    "reuse_profile": "exact stack-distance profile of a line stream",
}


def _uses(tree: ast.AST, is_init: bool) -> list[str]:
    """Every name ``tree`` uses: names, attributes and, outside a
    package ``__init__``, imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_init:
            out.extend(alias.name for alias in node.names)
    return out


def dead_definitions(root: Path = ROOT) -> dict[str, str]:
    """``{name: "path:line"}`` of every unused top-level definition."""
    uses: Counter[str] = Counter()
    defs = []
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            uses.update(_uses(tree, path.name == "__init__.py"))
            if top == "src":
                defs += [(path, node) for node in tree.body if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    dead = {}
    for path, node in defs:
        own = _uses(node, is_init=False).count(node.name)
        if uses[node.name] <= own:
            dead[node.name] = f"{path.relative_to(root)}:{node.lineno}"
    return dead


@pytest.fixture(scope="module")
def dead() -> dict[str, str]:
    return dead_definitions()


def test_every_definition_is_used_or_allowed(dead):
    unexpected = {name: where for name, where in dead.items()
                  if name not in ALLOWED}
    assert not unexpected, (
        f"unused definitions (delete them, or add them to ALLOWED with "
        f"a reason): {unexpected}")


def test_the_allow_list_holds_only_unused_definitions(dead):
    stale = sorted(set(ALLOWED) - set(dead))
    assert not stale, f"used or deleted, drop from ALLOWED: {stale}"


def test_an_unused_function_fails_the_scan(tmp_path):
    for top in ("src", "benchmarks", "examples"):
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan() + used()\n")
    (tmp_path / "src" / "__init__.py").write_text(
        "from mod import orphan, used\n__all__ = ['orphan', 'used']\n")
    (tmp_path / "examples" / "run.py").write_text(
        "from mod import used\nused()\n")
    assert dead_definitions(tmp_path) == {"orphan": "src/mod.py:5"}
