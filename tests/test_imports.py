"""Every imported name is used: the unused-import check, without a linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src/smap/*.py", "tests/*.py", "scripts/*.py")


def _unused_imports(path: Path) -> list[str]:
    """Names an import in ``path`` binds that the module never reads; a
    ``from __future__`` import binds none."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_every_imported_name_is_used():
    files = sorted(p for pattern in SOURCES for p in ROOT.glob(pattern))
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
