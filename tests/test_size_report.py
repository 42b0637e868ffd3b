"""The counting rules of ``tools/size_report.py`` on small sources."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import size_report  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math


def f(a, b=1, *args, c, d=2, **kw):
    """Docstring of f."""
    s = """not a docstring"""  # a trailing comment
    return a + b


def _helper(x=0):
    def inner(y=1):
        return y
    return inner(x)


class Shape:
    """Docstring of a class."""

    def __init__(self, w=1.0):
        self.w = w

    def _area(self, scale=1.0):
        return self.w * scale


class _Hidden:
    def method(self, z=3):
        return z
'''


def test_code_lines_settable_and_public():
    code, settable, public = size_report.measure(SOURCE)
    # import, def f, s = ..., return; def _helper, def inner, return y,
    # return inner(x); class Shape, def __init__, self.w = w, def _area,
    # return; class _Hidden, def method, return z
    assert code == 16
    # f: b, d, *args, **kw; _helper: x; inner: y; __init__: w;
    # _area: scale; _Hidden.method: z
    assert settable == 4 + 1 + 1 + 1 + 1 + 1
    # only f and Shape.__init__ are public
    assert public == 4 + 1


def test_private_module_has_no_public_values():
    assert size_report.measure("def f(a=1):\n    return a\n",
                               "_private.py") == (2, 1, 0)
    assert size_report.measure("def f(a=1):\n    return a\n",
                               "__init__.py") == (2, 1, 1)


def test_one_line_docstring_after_code_on_its_line():
    # a docstring sharing its line with the def leaves the def counted
    assert size_report.measure('def f():  """doc"""\n')[0] == 1


def test_a_path_without_modules_exits_2(tmp_path, capsys):
    # an empty directory, a typo'd path and an option all name no module
    for arg in (str(tmp_path), str(tmp_path / "missing"), "--help"):
        assert size_report.main([arg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"size_report.py: no .py files in {arg}\n"
