"""The scenario checker against jsonschema, the reference validator.

``cli._schema_error`` implements the subset of JSON Schema draft 2020-12
that ``SCENARIO_SCHEMA`` uses.  jsonschema (a test dependency only)
judges seeded mutations of the bundled scenarios: both must agree on
validity, and on the path and message of a document's only violation.
"""

import copy
import json
import random
import subprocess
import sys

import jsonschema
import pytest
from jsonschema.exceptions import best_match

from hjreduce import cli
from hjreduce.cli import SCENARIO_SCHEMA

BUNDLED = ("calogero", "heavytop", "freeparticle", "oscillator",
           "magnetic_synthetic")
N_DOCUMENTS = 1500
ORACLE = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def _schema_error(doc):
    return cli._schema_error(doc, SCENARIO_SCHEMA, "$")


def _nodes(value, path=()):
    """Every (path, value) in a JSON document, the document itself first."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _nodes(v, path + (i,))


def _replacements(rng, value):
    """Values to put in place of ``value``, most of them invalid there."""
    out = ["x", "", [], {}, None, True, False, 1.5, -1, 0]
    if isinstance(value, bool):
        out += [1, 0.0]
    elif isinstance(value, int):
        out += [float(value), value + 0.5, -value, value - rng.randint(1, 9)]
    elif isinstance(value, float):
        out += [int(value), -abs(value), 0.0, -1e9, True]
    elif isinstance(value, str):
        out += ["", "a b", value + "!", 7]
    elif isinstance(value, list):
        out += [value[:1], value[:-1], value * 2, [True], [[]], ["q"]]
    elif isinstance(value, dict):
        out += [{"bogus": 1}]
    return out


def _mutate(rng, doc):
    """One random edit of ``doc`` in place."""
    path, value = rng.choice(list(_nodes(doc)))
    if isinstance(value, dict) and rng.random() < 0.5:
        if value and rng.random() < 0.5:
            del value[rng.choice(sorted(value))]  # a key, maybe required
        else:
            value[rng.choice(["bogus", "Name", "range", "grid"])] = 1
        return
    if not path:
        return
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = rng.choice(_replacements(rng, value))


def _documents():
    rng = random.Random(20261018)
    bases = [cli.load_scenario(name) for name in BUNDLED]
    for _ in range(N_DOCUMENTS):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            _mutate(rng, doc)
        yield doc


def _all_paths(errors):
    for err in errors:
        yield err.json_path
        yield from _all_paths(err.context)


def test_checker_agrees_with_jsonschema():
    single = several = 0
    for doc in _documents():
        errors = list(ORACLE.iter_errors(doc))
        got = _schema_error(doc)
        assert (got is None) == (not errors), (doc, got)
        if not errors:
            continue
        if len(errors) == 1:
            single += 1
            best = best_match(errors)
            assert got == f"{best.json_path}: {best.message}", doc
        else:
            several += 1
            assert got.split(": ", 1)[0] in set(_all_paths(errors)), doc
    # the mutations reach both kinds of invalid document
    assert single > N_DOCUMENTS // 4 and several > N_DOCUMENTS // 20


@pytest.mark.parametrize("value, valid", [
    (2, True), (2.0, True), (True, False), (2.5, False), (1, False),
    ([1, 2.0], True), ([], False), ([0], False), ("2", False)])
def test_counts_any_of(value, valid):
    doc = {"name": "x", "coords": ["q"], "hamiltonian": "p",
           "verify": {"grid": {"counts": value}}}
    assert (_schema_error(doc) is None) == valid
    assert ORACLE.is_valid(doc) == valid


@pytest.mark.parametrize("branch, valid", [
    (1, True), (1.0, True), (-1.0, True), (True, False), (2, False),
    ("1", False)])
def test_enum_equality(branch, valid):
    doc = {"name": "x", "coords": ["q"], "hamiltonian": "p",
           "solve": {"range": [0, 1], "branch": branch}}
    assert (_schema_error(doc) is None) == valid
    assert ORACLE.is_valid(doc) == valid


def _keywords(schema):
    """Every (keyword, argument) pair in a schema and its subschemas."""
    for key, arg in schema.items():
        yield key, arg
        if key == "properties":
            for sub in arg.values():
                yield from _keywords(sub)
        elif key == "items":
            yield from _keywords(arg)
        elif key == "anyOf":
            for sub in arg:
                yield from _keywords(sub)


def test_every_schema_keyword_is_implemented():
    descending = {"properties", "items", "anyOf", "$schema"}
    for key, arg in _keywords(SCENARIO_SCHEMA):
        assert key in descending or key in cli._CHECKS, key
        # each keyword in the one form the checker implements
        if key == "type":
            assert arg in cli._JSON_TYPES
        elif key == "additionalProperties":
            assert arg is False
        elif key == "enum":
            assert all(isinstance(x, (str, int, float)) for x in arg)
        elif key == "anyOf":
            assert all(sub["type"] in cli._JSON_TYPES for sub in arg)


def test_cli_runs_without_jsonschema(tmp_path):
    script = (
        "import sys\n"
        "class Blocked:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'jsonschema':\n"
        "            raise ImportError(f'{name} is not installed')\n"
        "sys.meta_path.insert(0, Blocked())\n"
        "import hjreduce.cli\n"
        "assert 'jsonschema' not in sys.modules\n"
        "sys.exit(hjreduce.cli.main(['reduce', 'calogero', '--out', "
        "sys.argv[1]]))\n")
    r = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "calogero_reduced.json").read_text())
