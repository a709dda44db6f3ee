"""Every public top-level name in the library is used by the library or the benchmark.

A public name (a module-level def, class or assignment not starting with ``_``)
in a ``src/pillardet`` module must be read somewhere in ``src/pillardet``
(``__init__.py`` excluded) or ``perfbench/`` other than where it is defined.
So must every public method and property of a public class, outside its own
``def``. A name that only tests reach is dead API: delete it with the tests that
exercise only it. A read is a name load, an ``import`` of the name or an
attribute of that name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pillardet"

# Kept although only tests read them. The acceptance and CLI tests use
# ``bev_corners`` and ``read_detections`` as oracles: the corner array of a box,
# and the parser of the detection CSV that ``detect`` writes. ``encoder_backward``
# is MAPE's analytic gradient, which acceptance criterion 4 checks against
# finite differences; no command trains the encoder.
ALLOWED = {"bev_corners", "read_detections", "encoder_backward"}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _public_methods(tree):
    """``(class name, def)`` for each public method and property of a public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_is_read_outside_the_tests():
    defined = {}
    for path in _modules():
        for name in _public_definitions(ast.parse(path.read_text())):
            if not name.startswith("_"):
                defined.setdefault(name, path.name)
    read = set()
    for path in [*_modules(), *sorted((ROOT / "perfbench").glob("*.py"))]:
        read.update(_reads(ast.parse(path.read_text())))
    unread = sorted(f"{module}:{name}" for name, module in defined.items() if name not in read | ALLOWED)
    assert unread == []


def test_every_public_method_is_read_outside_its_own_def():
    trees = {path: ast.parse(path.read_text()) for path in [*_modules(), *sorted((ROOT / "perfbench").glob("*.py"))]}
    read = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = sorted(
        f"{path.name}:{cls}.{method.name}"
        for path in _modules()
        for cls, method in _public_methods(trees[path])
        if read[method.name] == Counter(_reads(method))[method.name]
    )
    assert unread == []


def test_allowlist_names_are_still_defined():
    defined = {name for path in _modules() for name in _public_definitions(ast.parse(path.read_text()))}
    assert ALLOWED <= defined
