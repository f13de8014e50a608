"""Every function and method under ``src/repro`` is named by code that runs.

``test_reachability.py`` pins that every module is imported from an
entry point; this pins the next level down.  A static walk collects
every ``def`` in ``src/repro`` and requires its name to appear as an
``ast.Name`` or ``ast.Attribute`` somewhere in ``src/repro`` or
``examples/``, outside the function's own body.  A function that only
``tests/`` call is API no command, experiment or example uses: delete
it, or move it into the test that needs it.

Import aliases and ``__all__`` strings are not ``Name`` nodes, so a
re-export does not count as a use.  The match is by bare name: it
cannot tell two methods of the same name apart, so it stops new
test-only functions rather than proving every old one is used.

Exempt: dunder methods, and experiment runners decorated with
``@register(...)``, which the registry reaches by id.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
EXAMPLES = SRC.parents[1] / "examples"

#: ``"module:qualname" -> reason`` for a function that must stay
#: although nothing in ``src/repro`` or ``examples/`` names it: an
#: abstract ``SchedClass`` hook, a ``REPRO_VALIDATE`` oracle, the
#: shrinker or a divergence report, campaign worker code, the RT class
#: ``fig1`` renders, or a name only ``perfbench/`` or ``benchmarks/``
#: import.  Empty today: every such function is also named in
#: ``src/repro``.  An entry that stops being needed fails the check.
ALLOWED = {}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_registered(fn):
    return any(
        isinstance(dec, ast.Call)
        and isinstance(dec.func, ast.Name)
        and dec.func.id == "register"
        for dec in fn.decorator_list
    )


def _definitions(tree, prefix=""):
    """``(qualname, node)`` for every function in ``tree``, nested
    functions and methods included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            yield qualname, node
            yield from _definitions(node, qualname + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _walk():
    """Name uses in ``src/repro`` and ``examples/``, and
    ``(module, qualname, node)`` for every function in ``src/repro``."""
    uses = Counter()
    defs = []
    for path in sorted(EXAMPLES.glob("*.py")):
        uses.update(_names(ast.parse(path.read_text(), str(path))))
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        uses.update(_names(tree))
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        defs.extend((module, q, fn) for q, fn in _definitions(tree))
    return uses, defs


def _unnamed():
    """``"module:qualname"`` of every non-exempt function in
    ``src/repro`` whose name nothing outside its own body uses."""
    uses, defs = _walk()
    out = []
    for module, qualname, fn in defs:
        name = fn.name
        if name.startswith("__") and name.endswith("__") or _is_registered(fn):
            continue
        own = sum(1 for used in _names(fn) if used == name)
        if uses[name] - own <= 0:
            out.append(f"{module}:{qualname}")
    return out


def test_the_walk_sees_the_source():
    """Guards the check against passing on an empty walk."""
    _uses, defs = _walk()
    found = {f"{module}:{qualname}" for module, qualname, _fn in defs}
    assert "repro.simcore.engine:Simulator.at" in found
    assert len(found) > 100


def test_every_function_is_named_outside_its_body():
    # Symmetric: an unnamed function must be allowed, and an allowed
    # one must still be unnamed.
    assert sorted(set(_unnamed()) ^ set(ALLOWED)) == []
