"""No private code in the package that only the tests reach.

Read from the source with ast: every private module-level name (a
function, class or assignment whose name starts with one underscore)
defined in src/suita_lab/ is read by some module of the package, so code
that the library and the CLI never run does not hide behind an underscore.
"""

import ast
from pathlib import Path

from suita_lab import errors

SRC = Path(errors.__file__).parent


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [(module, name) for module, tree in trees.items() for name in _private_definitions(tree) if name not in read]
    assert unread == []
