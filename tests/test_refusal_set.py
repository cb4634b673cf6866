"""The refusal set: one class per kind of refusal, each raised and documented.

Read from the source with ast, so a new exception class, a bare ValueError
or an unraised class shows up here before it reaches a caller.
"""

import ast
import re
from pathlib import Path

import pytest

from suita_lab import errors
from suita_lab.errors import InvalidArgument

from test_support_matrix import REFUSALS

SRC = Path(errors.__file__).parent
README = SRC.parent.parent / "README.md"

KINDS = {
    "InvalidDomain",
    "UnsupportedDomain",
    "PointOutsideDomain",
    "InvalidArgument",
    "ConvergenceFailure",
    "CriticalLevel",
    "BelowResolution",
    "NoCriticalPoint",
    "SkippedDegenerate",
    "ConfigError",
}

# (module, function, raised name) outside errors.py: the report parser
# rewraps its ValueError as a ConfigError naming the line, and argparse
# turns its own error type into a usage message
FOREIGN = {
    ("cli.py", "_typed", "ValueError"),
    ("cli.py", "parse_report_csv", "ValueError"),
    ("cli.py", "_nonneg_int", "argparse.ArgumentTypeError"),
}


def _classes(path):
    return {node.name: node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.ClassDef)}


def _raises():
    """(module, innermost function, raised name, line) of every raise that
    names an exception; a bare `raise` re-raises and names none."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = {}
        for func in ast.walk(tree):  # outer functions come first, so inner ones win
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    where[id(node)] = func.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                out.append((path.name, where.get(id(node), "<module>"), ast.unparse(exc), node.lineno))
    return out


def test_errors_module_holds_one_class_per_kind():
    classes = _classes(SRC / "errors.py")
    assert set(classes) == KINDS | {"SuitaLabError"}
    for name in KINDS:
        assert [ast.unparse(b) for b in classes[name].bases][0] == "SuitaLabError"


def test_no_other_module_defines_an_exception():
    for path in SRC.glob("*.py"):
        if path.name == "errors.py":
            continue
        for name, node in _classes(path).items():
            bases = {ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases}
            assert not bases & (KINDS | {"SuitaLabError", "Exception", "ValueError"}), (path.name, name)


def test_every_raise_names_a_refusal_class():
    foreign = [r[:3] for r in _raises() if r[2] not in KINDS]
    assert set(foreign) == FOREIGN, foreign


def test_every_refusal_class_is_raised():
    assert {name for _, _, name, _ in _raises()} >= KINDS


def test_readme_table_names_every_class():
    rows = re.findall(r"^\| `(\w+)` \|", README.read_text(encoding="utf-8"), re.M)
    assert sorted(rows) == sorted(KINDS)


def test_every_argument_refusal_is_in_the_support_matrix():
    # the raise each InvalidArgument case of REFUSALS reaches, against every
    # one in the package: no out-of-range argument is refused untested
    reached = set()
    for call, expected, _ in REFUSALS.values():
        if expected is InvalidArgument:
            with pytest.raises(InvalidArgument) as info:
                call()
            frame = info.traceback[-1]
            reached.add((Path(str(frame.path)).name, frame.lineno + 1))  # pytest counts lines from 0
    assert reached == {(m, line) for m, _, name, line in _raises() if name == "InvalidArgument"}
