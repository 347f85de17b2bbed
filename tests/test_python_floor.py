"""The code must run on Python 3.10, the requires-python floor in pyproject.toml.

Every source file is parsed with the 3.10 grammar, which refuses syntax
added later (``except*``, for one), and no module may import a name
that 3.10 lacks.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TREES = ("src", "tests", "perfbench")

# module -> names it gained after 3.10; None: the whole module is newer.
NEWER_THAN_FLOOR = {
    "tomllib": None,
    "math": {"cbrt", "exp2"},
    "hashlib": {"file_digest"},
    "contextlib": {"chdir"},
    "sys": {"exception"},
    "re": {"NOFLAG"},
    "inspect": {"getmembers_static"},
    "typing": {
        "Self", "LiteralString", "Never", "assert_never", "assert_type", "reveal_type", "dataclass_transform",
        "Required", "NotRequired", "TypeVarTuple", "Unpack",
    },
    "enum": {"StrEnum", "ReprEnum", "verify", "member", "nonmember", "global_enum", "EnumCheck", "FlagBoundary"},
}
# Builtins added after 3.10, refused as bare names.
NEWER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}


def python_files():
    for tree in TREES:
        for folder, folders, names in os.walk(os.path.join(ROOT, tree)):
            folders[:] = [name for name in folders if not name.startswith(".")]  # caches and work dirs
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


def newer_names(module: ast.Module):
    """(line, dotted name) of each use of a module or name from NEWER_THAN_FLOOR, or of a NEWER_BUILTINS name."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in NEWER_THAN_FLOOR and NEWER_THAN_FLOOR[alias.name] is None:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in NEWER_THAN_FLOOR:
            newer = NEWER_THAN_FLOOR[node.module]
            for alias in node.names:
                if newer is None or alias.name in newer:
                    yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in (NEWER_THAN_FLOOR.get(node.value.id) or ()):
                yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            yield node.lineno, node.id


FILES = sorted(python_files())


def test_every_tree_has_python_files():
    assert {path.split(os.sep)[0] for path in FILES} == set(TREES)


@pytest.mark.parametrize("path", FILES)
def test_parses_with_the_floor_grammar_and_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        source = fh.read()
    module = ast.parse(source, filename=path, feature_version=(3, 10))
    assert list(newer_names(module)) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("import tomllib\n", [(1, "tomllib")]),
        ("from typing import Self\n", [(1, "typing.Self")]),
        ("import enum\nclass K(enum.StrEnum):\n    A = 'a'\n", [(2, "enum.StrEnum")]),
        ("from enum import Enum, StrEnum\n", [(1, "enum.StrEnum")]),
        ("from typing import Callable\nimport enum\n", []),
        ("import math\nroot = math.cbrt(8.0)\n", [(2, "math.cbrt")]),
        ("from contextlib import chdir, suppress\n", [(1, "contextlib.chdir")]),
        ("try:\n    pass\nexcept ExceptionGroup:\n    pass\n", [(3, "ExceptionGroup")]),
    ],
)
def test_newer_names_are_found(source, found):
    assert list(newer_names(ast.parse(source))) == found


def test_newer_syntax_is_refused():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11 syntax
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
