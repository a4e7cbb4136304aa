"""Every name a module imports is referenced in that module.

No linter ships with the project, so this is its unused-import check. It
parses each module under src/agfti/ and scripts/ with ast. Package
__init__.py files re-export what they import and are skipped, as is an
import whose lines carry "# noqa: F401".
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    paths = [*(ROOT / "src" / "agfti").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]
    return sorted(p for p in paths if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name the source never references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            # "import a.b" binds a; "from m import *" binds nothing nameable
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                unused.append((node.lineno, name))
    return unused


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nimport a.b  # noqa: F401\nloads\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in _modules()
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
