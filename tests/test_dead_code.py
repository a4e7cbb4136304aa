"""Every top-level function and class under src/agfti/ has a caller.

Code that only the tests use belongs in tests/oracles.py. This check parses
every file in src/, scripts/ and perfbench/ with ast and counts a reference
to a name wherever it appears as a name, an attribute or a string constant
(perfbench/tracing.py names the functions it patches by string). References
inside the definition itself and in an __all__ list do not count, nor do
imports, so a re-export alone keeps nothing alive. Dunders and the click
commands and groups that cli.py registers are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a definition decorated with one of these is called by click, not by code
_REGISTERING = ("main.command", "click.group")


def _references(tree, skip=()):
    """Counter of the names tree references outside the nodes in skip."""
    skipped = {id(node) for root in skip for node in ast.walk(root)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped.update(id(n) for n in ast.walk(node))
    names = Counter()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def _definitions(tree):
    """Top-level function and class definitions the check applies to."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        decorators = [ast.unparse(d) for d in node.decorator_list]
        if any(d.startswith(_REGISTERING) for d in decorators):
            continue
        yield node


def unreferenced(package, sources):
    """(path, line, name) of each definition in package no source references.

    package lists the paths to check; sources maps every path, those of the
    package included, to its source text.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    per_file = {path: _references(tree) for path, tree in trees.items()}
    everywhere = sum(per_file.values(), Counter())
    found = []
    for path in package:
        tree = trees[path]
        for node in _definitions(tree):
            elsewhere = everywhere[node.name] - per_file[path][node.name]
            if elsewhere + _references(tree, skip=[node])[node.name] == 0:
                found.append((path, node.lineno, node.name))
    return found


def test_the_check_finds_an_unused_definition():
    sources = {
        "pkg/a.py": (
            "def used():\n    return 1\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n"
            "class Exported:\n    pass\n\n"
            "__all__ = ['Exported']\n"
        ),
        "pkg/__init__.py": "from .a import Exported, recursive\n",
        "scripts/s.py": "import pkg.a\npkg.a.used()\n",
        "perfbench/t.py": "SITES = [('a', 'used')]\n",
    }
    package = ["pkg/a.py", "pkg/__init__.py"]
    assert unreferenced(package, sources) == [
        ("pkg/a.py", 4, "recursive"), ("pkg/a.py", 7, "Exported"),
    ]


def test_every_definition_in_the_package_is_referenced():
    paths = [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "scripts").rglob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]
    sources = {path: path.read_text() for path in paths}
    package = sorted(p for p in sources if (ROOT / "src" / "agfti") in p.parents)
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, line, name in unreferenced(package, sources)
    ]
    assert not found, "defined but never referenced:\n" + "\n".join(found)
