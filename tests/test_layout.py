"""The package's layout rules, read from its source by ``ast`` alone."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "src/lpk").glob("*.py")}
BENCH = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "bench").glob("*.py")]

# Public names with no caller in the library or the benchmark, and why each stays.
UNCALLED = {
    "scene_to_json": "the writer beside scene_from_json, which the CLI reads scene files with",
    "report_from_json": "the reader of report_to_json's documents; its fate is ROADMAP E",
    "pf_recon": "the partial-coverage solve awaiting an engine or a caller; ROADMAP N",
}


def _named(node, names) -> bool:
    return isinstance(node, ast.Name) and node.id in names or (
        isinstance(node, ast.Attribute) and node.attr in names
    )


def test_io_is_the_only_module_that_imports_json():
    importers = {
        module for module, tree in SOURCES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "json"
    }
    assert importers == {"io"}


def test_only_core_states_the_grid_and_window_rules():
    # A second GridMismatchError or L/P >= 0 check outside core restates a
    # rule that core._shared_acquired or core._window holds.
    found = set()
    for module, tree in SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _named(exc, {"GridMismatchError"}):
                    found.add((module, "raises GridMismatchError"))
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                zero = any(isinstance(s, ast.Constant) and s.value == 0 for s in sides)
                if zero and any(_named(s, {"L", "P"}) for s in sides):
                    found.add((module, "compares L or P with 0"))
    assert {module for module, _ in found} <= {"core"}, sorted(found)


def _references(node) -> set:
    """Names a statement uses: loaded names, attributes and the last part
    of a string that spells one (a hook's ``"lpk.lp:pattern_signature"``,
    a ``getattr`` name)."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            spelled = re.fullmatch(r"(?:[\w.]+:)?(?:\w+\.)*(\w+)", sub.value)
            if spelled:
                refs.add(spelled.group(1))
    return refs


def test_every_public_name_has_a_caller_in_the_library_or_the_benchmark():
    # A definition is one top-level statement, so its own body is that
    # statement and every other one may call it.
    statements = [(s, _references(s)) for tree in [*SOURCES.values(), *BENCH] for s in tree.body]
    uncalled = {
        d.name for tree in SOURCES.values() for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
        and not any(d.name in refs for s, refs in statements if s is not d)
    }
    assert uncalled == set(UNCALLED)
