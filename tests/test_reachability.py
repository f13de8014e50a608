"""Every module under ``src/repro`` is reached from the entry points.

A static walk of ``import`` statements (module level and function
level) starting at ``repro.cli`` and ``repro.__main__``: a module no
run, report or CLI command can import is dead weight that only its own
tests keep alive, and it belongs in ``tests/`` or nowhere.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOTS = ("repro.cli", "repro.__main__")


def _all_modules():
    out = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imports(path):
    """Dotted names a module imports, with ``from a import b`` giving
    both ``a`` and ``a.b`` (the latter counts only if it is a module)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _reached(modules):
    seen = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        # Importing a.b.c runs the packages a and a.b first.
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                todo.extend(_imports(modules[prefix]))
    return seen


def test_every_module_is_reached_from_the_entry_points():
    modules = _all_modules()
    assert set(ROOTS) <= set(modules)
    assert sorted(set(modules) - _reached(modules)) == []
