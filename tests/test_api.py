"""The public import surface: every exported name resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import hjreduce

MODULES = ["expr", "phase_space", "symmetry", "reduction", "hj",
           "reconstruction", "integrators", "cli"]


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = hjreduce if module is None else importlib.import_module(
        f"hjreduce.{module}")
    assert mod.__all__, "no public names"
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate names"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_two_forms_live_in_hj():
    from hjreduce import hj, reduction
    assert reduction.TwoForm is hj.TwoForm
    assert reduction.exterior_derivative is hj.exterior_derivative
    assert (reduction.magnetic_lagrangian_residual
            is hj.magnetic_lagrangian_residual)
    assert hjreduce.TwoForm is hj.TwoForm


SRC = Path(hjreduce.__file__).resolve().parent


def _exported(tree):
    """The strings of a module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _read(tree):
    """Every name a module reads: loaded names, attributes and the
    names it imports from elsewhere."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def unread_names(sources):
    """Per module source (name -> text): the imports it neither reads nor
    exports, and the module-level assignments no module reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read_anywhere = set().union(*map(_read, trees.values()),
                                *map(_exported, trees.values()))
    unread = []
    for name, tree in trees.items():
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        used |= {n.value.id for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name)}
        used |= _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                unread += [f"{name}: import {a.asname or a.name}"
                           for a in node.names
                           if (a.asname or a.name).split(".")[0] not in used]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                unread += [f"{name}: {t.id} =" for target in targets
                           for t in ast.walk(target)
                           if isinstance(t, ast.Name)
                           and not t.id.startswith("__")
                           and t.id not in read_anywhere]
    return unread


def test_every_module_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unread_names(sources) == []


def test_unread_names_finds_both_kinds():
    sources = {"a.py": "import math\nimport os\nfrom b import X\n"
                       "__all__ = ['X']\nY = 1\nZ = os.sep\n",
               "b.py": "from a import Z\nX = Z\n"}
    assert unread_names(sources) == ["a.py: import math", "a.py: Y ="]
