"""No private code in the package that only the tests reach, and no
hidden module-global state.

Read from the source with ast: every private module-level name (a
function, class or assignment whose name starts with one underscore)
defined in src/suita_lab/ is read by some module of the package, so code
that the library and the CLI never run does not hide behind an underscore.
And no function or lambda of the package mutates a module-level name, so
no cache outlives the call that filled it: what a run shares lives on an
object that the run holds (verify.Pole).
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


# methods that change their object in place (list, dict, set)
_MUTATORS = {
    "append", "extend", "insert", "pop", "popitem", "remove", "clear", "update", "setdefault",
    "add", "discard", "sort", "reverse", "difference_update", "intersection_update",
    "symmetric_difference_update", "__setitem__", "__delitem__",
}  # fmt: skip
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(node):
    """The nodes below node, without the insides of nested functions and lambdas."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _binds(func):
    """The names a function or lambda binds itself: parameters, stores,
    nested definitions and imports."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    for node in _own_nodes(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _root(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _global_mutations(tree):
    """(line, source) of each place where a function or lambda mutates a
    module-level name: a `global` statement, a mutating method called on
    a module-level value, or an item or attribute of a module-level name
    stored or deleted.  A module, as in np.insert, has no mutating methods."""
    imported, defined = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    found = []

    def check(node, local):
        if isinstance(node, ast.Global):
            found.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            if _root(node.func.value) in defined - local:
                found.append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in (n for t in targets for n in ast.walk(t) if isinstance(n, (ast.Subscript, ast.Attribute))):
                if isinstance(target.ctx, (ast.Store, ast.Del)) and _root(target.value) in (defined | imported) - local:
                    found.append(node)

    def scan(node, local):
        for child in ast.iter_child_nodes(node):
            inner = (local or set()) | _binds(child) if isinstance(child, _SCOPES) else local
            if inner is not None:
                check(child, inner)
            scan(child, inner)

    scan(tree, None)  # module-level code (None) builds its tables once, at import
    return [(node.lineno, ast.unparse(node).splitlines()[0]) for node in found]


def test_no_function_mutates_a_module_level_name():
    found = {path.name: _global_mutations(ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))}
    assert {module: hits for module, hits in found.items() if hits} == {}


_CACHE = """
import numpy as np
_SEEN = {}
ORDER = []
def remember(x, out):
    global _COUNT
    _SEEN.setdefault(x, []).append(x)
    ORDER.append(x)
    _SEEN[x] = out
    out.append(x)
    np.insert(out, 0, x)
    return _SEEN.get(x)
def shadowed(ORDER):
    ORDER.clear()
    _SEEN = {}
    _SEEN[0] = 1
forget = lambda: ORDER.clear()
"""


def test_the_mutation_check_sees_a_cache():
    # the module above mutates its names on lines 6 to 9 and 17, and leaves
    # them alone where a local or a parameter shadows them
    assert [line for line, _ in _global_mutations(ast.parse(_CACHE))] == [6, 7, 8, 9, 17]
