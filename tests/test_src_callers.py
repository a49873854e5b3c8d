"""Every public module-level function or class in ``src/pmcs`` has a caller
outside its own definition: in ``src/``, ``scripts/``, ``perfbench/*.py``,
or as a traced name in BENCHMARK.json's ``per_layer`` list.  A symbol that
only tests reach belongs under ``tests/``.  This test only parses files."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier ``tree`` refers to (names, attributes, imports),
    leaving out the subtree ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced(root: Path = ROOT) -> list[str]:
    """``module.symbol`` for each public symbol of ``root/src/pmcs`` that
    nothing references outside its own definition."""
    sources = sorted((root / "src" / "pmcs").glob("*.py"))
    callers = sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources + callers}
    outside = set().union(*(_names(trees[path]) for path in callers))
    for entry in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]:
        outside.update(entry["name"].split(".")[:2])
    flagged = []
    for path in sources:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in outside:
                continue
            if not any(node.name in _names(trees[src], skip=node) for src in sources):
                flagged.append(f"{path.stem}.{node.name}")
    return flagged


def test_every_public_symbol_has_a_caller():
    flagged = unreferenced()
    assert not flagged, f"public symbols that only tests reach, to move under tests/: {', '.join(flagged)}"
