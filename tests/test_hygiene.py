"""Static hygiene of the package modules, by the standard-library ast only.

Six faults are caught: a module-level import that the module never uses,
a plain local assignment (``x = ...``) in a function whose name is never
read in that function or the functions nested in it, a module-level
private function or class (``_name``) that no module of the package reads,
a public function, class or method that nothing in the package, the
scripts or the benchmark reads outside its own definition, a
double-backquoted dotted name in a docstring or comment that names nothing,
and an ``assert`` statement, which ``python -O`` drops: an internal check
raises ``AssertionError`` itself.
A method is read only through an attribute (``x.name``): a local variable of
the same name does not read it.
"""

import ast
import builtins
import importlib
import io
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import treeact

PACKAGE = sorted(Path(treeact.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(p for d in ("scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))

# Public definitions that only tests read, kept on purpose: name -> why.
KEEP_PUBLIC = {
    "automorphisms_fixing_leaf":
        "acceptance criterion 6 enumerates a leaf's stabiliser with it on small trees",
    "count_automorphisms_fixing_leaf":
        "acceptance criterion 6 checks that enumeration's size against it",
    "mapping":
        "TreeAutomorphism's map as a dict; the oracles and the decoration pins read maps "
        "through it",
}


def _read_names(tree: ast.AST, attributes: bool = False):
    """Every name read under tree, string annotations included, and with
    attributes every attribute name too; once per read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif attributes and isinstance(node, ast.Attribute):
            yield node.attr
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            yield from _read_names(ast.parse(annotation.value, mode="eval"), attributes)


def _attribute_reads(tree: ast.AST):
    return (node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _inherited(cls: ast.ClassDef) -> set[str]:
    """The attributes cls gets from bases outside the package, builtins such
    as ``ValueError`` or ``module.Class`` such as ``argparse.ArgumentParser``:
    a method of that name overrides one that its base's own code calls."""
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Name) and hasattr(builtins, base.id):
            names.update(dir(getattr(builtins, base.id)))
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            names.update(dir(getattr(importlib.import_module(base.value.id), base.attr)))
    return names


def _loaded_names(tree: ast.AST) -> set[str]:
    return set(_read_names(tree))


def unused_imports(source: str) -> list[str]:
    module = ast.parse(source)
    used = _loaded_names(module)
    found = []
    for stmt in module.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"line {stmt.lineno}: {bound}")
    return found


def _own_scope(func: ast.AST):
    """The nodes of func's own scope, without nested functions and classes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _unpacked(target: ast.expr) -> list[ast.Name]:
    """The names a tuple or list target binds, starred ones included."""
    if isinstance(target, ast.Starred):
        target = target.value
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _unpacked(elt)]
    return []


def unread_locals(source: str) -> list[str]:
    """Assigned locals that their function never reads.  A name bound by
    unpacking counts too, unless it starts with an underscore."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _loaded_names(func)
        stores, outer = [], {"_"}
        for node in _own_scope(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Assign):
                stores += [t for t in node.targets if isinstance(t, ast.Name)]
                stores += [name for t in node.targets if isinstance(t, (ast.Tuple, ast.List))
                           for name in _unpacked(t) if not name.id.startswith("_")]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                if isinstance(node.target, ast.Name):
                    stores.append(node.target)
        for target in sorted(stores, key=lambda t: (t.lineno, t.col_offset)):
            if target.id not in read | outer:
                found.append(f"line {target.lineno}: {target.id} in {func.name}")
    return found


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no top-level
    statement of any module reads, their own definition aside."""
    tops = [(name, stmt) for name, source in sources.items()
            for stmt in ast.parse(source).body]
    reads = [set(_read_names(stmt, attributes=True)) for _name, stmt in tops]
    found = []
    for k, (name, stmt) in enumerate(tops):
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        private = stmt.name.startswith("_") and not stmt.name.startswith("__")
        if private and not any(stmt.name in read for m, read in enumerate(reads) if m != k):
            found.append(f"{name} line {stmt.lineno}: {stmt.name}")
    return found


def unread_public_definitions(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Public module-level functions and classes, and public methods of
    module-level classes, in sources that no read in sources or callers
    names outside the definition itself; a method is read only as an
    attribute.  Dunders count as private, and a method that overrides one
    inherited from outside the package is read by its base."""
    modules = {name: ast.parse(source) for name, source in sources.items()}
    reads, attribute_reads = Counter(), Counter()
    for tree in [*modules.values(), *map(ast.parse, callers)]:
        reads.update(_read_names(tree, attributes=True))
        attribute_reads.update(_attribute_reads(tree))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for name, module in modules.items():
        for stmt in module.body:
            if not isinstance(stmt, kinds):
                continue
            scans = [(stmt, reads, lambda d: _read_names(d, True))]
            if isinstance(stmt, ast.ClassDef):
                inherited = _inherited(stmt)
                scans += [(d, attribute_reads, _attribute_reads) for d in stmt.body
                          if isinstance(d, kinds) and d.name not in inherited]
            for d, counted, own_reads in scans:
                if (not d.name.startswith("_")
                        and counted[d.name] == sum(1 for r in own_reads(d) if r == d.name)):
                    found.append(f"{name} line {d.lineno}: {d.name}")
    return found


_QUOTED_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def _prose(source: str):
    """(line, text) of every docstring and comment in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


def _defined_or_read(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _stdlib_attribute(dotted: str) -> bool:
    head, *rest = dotted.split(".")
    if head not in sys.stdlib_module_names:
        return False
    obj = importlib.import_module(head)
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def unresolved_prose_names(sources: dict[str, str]) -> list[str]:
    """Double-backquoted dotted names in docstrings and comments that name
    nothing: some part of the name is neither defined nor read anywhere in
    sources, and the whole is no importable standard-library attribute."""
    known = {n for source in sources.values() for n in _defined_or_read(ast.parse(source))}
    found = []
    for name, source in sources.items():
        for line, text in sorted(_prose(source)):
            for match in _QUOTED_NAME.finditer(text):
                dotted = match.group(1)
                if not (set(dotted.split(".")) <= known or _stdlib_attribute(dotted)):
                    found.append(f"{name} line {line + text.count(chr(10), 0, match.start())}: "
                                 f"{dotted}")
    return found


def assert_statements(source: str) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "matrices", "ordering", "tower", "trees"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert unread_locals(path.read_text()) == []


def test_no_unread_private_definitions():
    assert unread_private_definitions({p.name: p.read_text() for p in PACKAGE}) == []


def test_every_public_definition_is_read():
    assert CALLERS and {p.parent.name for p in CALLERS} == {"scripts", "perfbench"}
    found = unread_public_definitions({p.name: p.read_text() for p in PACKAGE},
                                      [p.read_text() for p in CALLERS])
    assert [f for f in found if f.split(": ")[1] not in KEEP_PUBLIC] == []
    # a kept name that gains a reader leaves the list
    assert sorted(f.split(": ")[1] for f in found) == sorted(KEEP_PUBLIC)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def test_prose_names_resolve():
    assert unresolved_prose_names({p.name: p.read_text() for p in PACKAGE}) == []


class TestCheckers:
    def test_unused_import_is_found(self):
        src = "from typing import Mapping, Sequence\nimport os.path\n\nx: Mapping = {}\n"
        assert unused_imports(src) == ["line 1: Sequence", "line 2: os"]

    def test_string_annotation_counts_as_use(self):
        src = "from typing import Sequence\n\ndef f(xs: 'Sequence[int]') -> None:\n    pass\n"
        assert unused_imports(src) == []

    def test_unread_local_is_found(self):
        src = ("def reps(sub):\n"
               "    subset = {g for g in sub}\n"
               "    out = []\n"
               "    for h in sub:\n"
               "        out.append(h)\n"
               "    return out\n")
        assert unread_locals(src) == ["line 2: subset in reps"]

    def test_unread_unpacked_name_is_found(self):
        src = ("def split(rows):\n"
               "    names, parent, lifts, ends = rows\n"
               "    [head, *rest], (_skip, tail) = rows, rows\n"
               "    first, *middle = rows\n"
               "    return names, parent, ends, head, tail, first\n")
        assert unread_locals(src) == ["line 2: lifts in split", "line 3: rest in split",
                                      "line 4: middle in split"]

    def test_closure_and_nonlocal_reads_count(self):
        src = ("def outer():\n"
               "    n = 0\n"
               "    seen = set()\n"
               "    def bump():\n"
               "        nonlocal n\n"
               "        n += 1\n"
               "        return seen\n"
               "    bump()\n"
               "    return n\n")
        assert unread_locals(src) == []

    def test_unread_private_definition_is_found(self):
        sources = {"a.py": ("def _used():\n    pass\n\n"
                            "def _left():\n    return _left()\n\n"
                            "class _Kept:\n    pass\n"),
                   "b.py": "from .a import _used, _Kept\n\nx = _used() or _Kept\n"}
        assert unread_private_definitions(sources) == ["a.py line 4: _left"]

    def test_unread_public_definition_is_found(self):
        sources = {"a.py": ("def used():\n    pass\n\n"
                            "def left(n):\n    return left(n - 1)\n\n"
                            "class Box:\n"
                            "    def __len__(self):\n        return 0\n\n"
                            "    def size(self):\n        return Box().size()\n\n"
                            "    def read(self) -> 'Box':\n        return self\n")}
        callers = ["from a import Box, used\n\nused()\nBox().read()\n"]
        assert unread_public_definitions(sources, callers) == [
            "a.py line 4: left", "a.py line 11: size"]

    def test_method_is_read_only_as_an_attribute(self):
        sources = {"a.py": ("import argparse\n\n"
                            "class Box:\n"
                            "    def close(self):\n        pass\n\n"
                            "class P(argparse.ArgumentParser):\n"
                            "    def error(self, message):\n        pass\n\n"
                            "def use(close):\n    return Box(), P, close\n")}
        callers = ["from a import use\n\nuse(None)\n"]
        assert unread_public_definitions(sources, callers) == ["a.py line 4: close"]

    def test_assert_statement_is_found(self):
        src = ("def check(n):\n"
               "    if n < 0:\n"
               "        raise AssertionError('internal error: negative')\n"
               "    assert n, 'zero'\n")
        assert assert_statements(src) == ["line 4"]

    def test_unresolved_prose_name_is_found(self):
        sources = {"a.py": ('"""Read ``_kept``, ``dataclasses.replace``\n'
                            'and ``os.nothing``; ``schemas/x.json`` is a path."""\n\n'
                            "def _kept(x):\n"
                            "    return x  # ``x`` was ``_gone``\n")}
        assert unresolved_prose_names(sources) == ["a.py line 2: os.nothing",
                                                   "a.py line 5: _gone"]
