"""The CLI contract on mutated scenario documents.

Each example takes a bundled scenario and a command that runs it, sets
or deletes a few of the document's fields, and runs the result through
``cli.main`` with small ``--grid`` and ``--t-end`` flags so that a run
that passes its checks stays short.  Whatever the document, the exit
code is one of 0 (pass), 1 (residual failure), 2 (scenario error) and
3 (precondition or numeric failure), never 4 (internal error); a
nonzero exit prints exactly one stderr line, and a zero exit prints
none.  The draws are derandomized, so every run checks the same
documents.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hjreduce import cli

# (command, scenario) pairs that exit 0 unmutated under FLAGS
RUNS = [("reduce", "calogero"), ("reduce", "magnetic_synthetic"),
        ("solve-hj", "calogero"), ("solve-hj", "heavytop"),
        ("verify", "calogero"), ("verify", "heavytop"),
        ("verify", "oscillator"), ("verify", "magnetic_synthetic"),
        ("reconstruct", "calogero"), ("simulate", "freeparticle"),
        ("simulate", "oscillator"), ("integrate", "oscillator"),
        ("equilibrium", "freeparticle"), ("equilibrium", "oscillator")]
FLAGS = ["--grid", "3", "--t-end", "0.1"]

# Replacement values: small numbers, names and expression texts, broken
# ones included, and containers of the wrong shape.
VALUES = st.one_of(
    st.sampled_from([0, 1, 2, -1, 0.5, -2.5, 1e-300, True, None, "", "q",
                     "q1", "y1", "t", "w", "q1+w", "sin(q1", "1/0",
                     "sqrt(-1)", "q^-2", "log(q)", "2*y1+w", [], [0],
                     [1, 0], [[0, 1]], [[-1, 1]], {}, {"a": 1}]),
    st.integers(-3, 40),
    st.text(alphabet="pqxy12t+-*/^(). e", max_size=8))
# A field's text with a term appended, which often parses: a name the
# scenario may not declare, the time, a singular or scaling term.
SUFFIXES = st.sampled_from(["+w", "+t", "*t", "+x", "+y1", "+q", "+p",
                            "/0", "*0", "^2", "^-1", "-1", "*1e300"])


def like(old):
    """A value for a field that holds ``old``, of its type when it has
    a simple one."""
    if isinstance(old, str):
        return SUFFIXES.map(old.__add__)
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        return st.sampled_from([0, -1, 0.5, 3, 1e-9, -0.25, 1e300])
    return VALUES


def paths(node, at=()):
    """Every path to a field or list entry below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield at + (key,)
        yield from paths(child, at + (key,))


@st.composite
def mutated(draw):
    command, name = draw(st.sampled_from(RUNS))
    doc = copy.deepcopy(cli.load_scenario(name))
    for _ in range(draw(st.integers(1, 3))):
        found = sorted(paths(doc), key=repr)
        if not found:
            break
        *parent, key = draw(st.sampled_from(found))
        holder = doc
        for step in parent:
            holder = holder[step]
        if isinstance(holder, dict) and draw(st.integers(0, 3)) == 0:
            del holder[key]
        else:
            # two draws in three keep the field's type
            value = st.one_of(like(holder[key]), like(holder[key]), VALUES)
            holder[key] = copy.deepcopy(draw(value))
    return command, doc


@settings(derandomize=True, max_examples=500, deadline=None,
          database=None)
@given(mutated())
def test_every_exit_is_a_contract_code(case):
    command, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), "--out",
                             str(Path(tmp) / "out"), *FLAGS])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), err.getvalue()
    assert len(lines) == (code != 0), err.getvalue()
