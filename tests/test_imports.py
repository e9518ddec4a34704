"""Every import in ``src/repro`` is used by the module that makes it.

A stdlib-``ast`` scan: a name bound by ``import`` / ``from ... import``
must be read somewhere in the same module — as a name, in a quoted
annotation, or by being listed in ``__all__``.  Package ``__init__.py``
files are skipped, since re-exporting is what their imports are for.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")


def _modules():
    for dirpath, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(dirpath, name)


def _annotation_names(node):
    """Names read by the quoted annotations under *node*."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id


def unused_imports(source):
    """``(line, name)`` for every import *source* binds and never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    used.update(_annotation_names(arg.annotation))
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)):
            used.update(element.value for element in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_and_spares_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    return [os.sep]\n"
    )
    assert unused_imports(source) == [(3, "osp"), (4, "Dict")]


def test_src_has_no_unused_imports():
    found = []
    for path in _modules():
        with open(path) as handle:
            found.extend("%s:%d %s" % (os.path.relpath(path, SRC), line, name)
                         for line, name in unused_imports(handle.read()))
    assert not found, "unused import(s):\n" + "\n".join(found)
