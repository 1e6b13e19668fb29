"""Every imported name is used and every top-level definition is read: the
unused-import and dead-definition checks, without a linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src/smap/*.py", "tests/*.py", "scripts/*.py")
READERS = SOURCES + ("perfbench/*.py",)


def _files(patterns) -> list[Path]:
    return sorted(p for pattern in patterns for p in ROOT.glob(pattern))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _unused_imports(path: Path) -> list[str]:
    """Names an import in ``path`` binds that the module never reads; a
    ``from __future__`` import binds none."""
    tree = _parse(path)
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


def _definitions(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _reads(tree: ast.Module) -> set[str]:
    """Names the module reads, bare or as an attribute, outside the
    top-level statement that defines them."""
    reads: set[str] = set()
    for stmt in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.Attribute)}
        reads |= names - set(_definitions(stmt))
    return reads


def test_every_imported_name_is_used():
    files = _files(SOURCES)
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_top_level_definition_is_read():
    """A function, class or constant of ``src/smap`` that nothing in the
    sources, tests, scripts or benchmark reads is dead code."""
    read: set[str] = set()
    for path in _files(READERS):
        read |= _reads(_parse(path))
    dead = [f"{path.relative_to(ROOT)}:{stmt.lineno}: {name}"
            for path in _files(("src/smap/*.py",)) for stmt in _parse(path).body
            for name in _definitions(stmt)
            if name not in read and not name.startswith("__")]
    assert not dead, "top-level definitions nothing reads:\n" + "\n".join(dead)
