#!/usr/bin/env python3
"""Print the size of a Python package, per module and in total.

    python tools/size_report.py [PACKAGE_DIR]      (default: src/hjreduce)

Two measures, both read from the source alone:

- code lines: lines holding a token other than a comment; blank lines,
  comment lines and docstrings (of modules, classes and functions) are
  left out;
- settable values: the defaulted parameters plus the ``*args`` and
  ``**kwargs`` of every function and method, nested ones included.  A
  value is public when its module, every enclosing class or function
  and the function itself have names without a leading underscore
  (dunder names such as ``__init__`` and ``__init__.py`` count as
  public).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _settable(fn):
    a = fn.args
    return (len(a.defaults) + sum(d is not None for d in a.kw_defaults)
            + (a.vararg is not None) + (a.kwarg is not None))


def _docstring_starts(tree):
    """(line, column) of the first token of every docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def measure(source, module="module.py"):
    """(code lines, settable values, public settable values) of a source."""
    tree = ast.parse(source)
    docstrings = _docstring_starts(tree)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or (tok.type == tokenize.STRING
                                    and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    total = public = 0
    stack = [(tree, _private(Path(module).stem))]
    while stack:
        node, hidden = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = hidden
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = hidden or _private(child.name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                n = _settable(child)
                total += n
                public += 0 if inner else n
            stack.append((child, inner))
    return len(lines), total, public


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src/hjreduce")
    rows = [(path.name, *measure(path.read_text(encoding="utf-8"), path.name))
            for path in sorted(root.glob("*.py"))]
    if not rows:
        print(f"size_report.py: no .py files in {root}", file=sys.stderr)
        return 2
    rows.append(("total", *(sum(col) for col in zip(*[r[1:] for r in rows]))))
    print(f"{'module':<20} {'code lines':>10} {'settable':>9} {'public':>7}")
    for name, code, settable, public in rows:
        print(f"{name:<20} {code:>10} {settable:>9} {public:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
