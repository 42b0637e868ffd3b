"""Command-line front end: JSON scenarios in, reports and tables out.

Commands: reduce, solve-hj, verify, reconstruct, simulate, integrate,
equilibrium.  A scenario is a JSON document (``SCENARIO_SCHEMA`` below)
naming the system, its symmetry, and per-command settings; outputs are
JSON reports and CSV series written atomically.

Exit codes: 0 success; 1 a measured residual exceeded --tol (the CSV
and the failing report are still written); 2 invalid scenario or usage,
including an unreadable scenario or an unwritable output path and a
coordinate or momentum named 't', the reserved time variable; 3
numeric failure (solver divergence, domain error, an RK4 step that
overflows or gives NaN, violated precondition, among them a quadrature
equation that reads 't', a NaN or inf in a report field or a CSV
column); 4 internal error (a bug: the traceback is printed).  An input
too large to allocate (a step count or grid beyond memory) is a
scenario error, exit 2.  A command only computes: it returns its
report, summary and CSV, and ``main`` alone writes them, prints the
verdict and picks the exit code.  ``main`` makes every output text,
which checks each report field and CSV value, before its first write,
so a run that exits 3 leaves no new file.  Identical scenario + seed +
flags give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import tempfile
import traceback
from importlib import resources

import numpy as np

from .expr import DomainError, ParseError, evaluate_rows, parse as parse_expr
from .hj import (GeneratingFunction, OneForm, PreconditionError, SolveError,
                 check_complete, cyclic_ansatz, cyclic_complete_solution,
                 mesh_grid, quadrature_complete_solution, solve_reduced_1d)
from .integrators import run_scheme, transform_to_equilibrium
from .phase_space import (TIME, HamiltonianSystem, PhasePoint, Trajectory,
                          default_momentum_names, flow_reference)
from .reconstruction import (integrate_projected, lift_report, lift_solution,
                             reconstruct_trajectory)
from .reduction import (build_chart, magnetic_lagrangian_residual,
                        magnetic_term, reduced_hamiltonian)
from .symmetry import TranslationAction

__all__ = ["main", "load_scenario", "emit_trajectory", "read_trajectory",
           "SCENARIO_SCHEMA", "ScenarioError"]

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_SCENARIO = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


class ScenarioError(Exception):
    """Scenario file invalid or inapplicable to the requested command."""


# ---------------------------------------------------------------------------
# Scenario schema.

_RANGE = {"type": "array", "items": {"type": "number"},
          "minItems": 2, "maxItems": 2}
_NUM_ARRAY = {"type": "array", "items": {"type": "number"}}
_STR_ARRAY = {"type": "array", "items": {"type": "string"}, "minItems": 1}
_MATRIX = {"type": "array", "items": _NUM_ARRAY, "minItems": 1}
_COUNTS = {"anyOf": [{"type": "integer", "minimum": 2},
                     {"type": "array", "items":
                      {"type": "integer", "minimum": 1}, "minItems": 1}]}
_CHART_GRID = {
    "type": "object",
    "properties": {"y": {"type": "array", "items": _RANGE},
                   "x": {"type": "array", "items": _RANGE},
                   "counts": _COUNTS},
    "additionalProperties": False,
}
_BOUNDS_GRID = {
    "type": "object",
    "properties": {"bounds": {"type": "array", "items": _RANGE,
                              "minItems": 1},
                   "counts": _COUNTS},
    "required": ["bounds"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1,
                 "pattern": "^[A-Za-z0-9_.-]+$"},
        "coords": _STR_ARRAY,
        "momenta": _STR_ARRAY,
        "hamiltonian": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
        "energy": {"type": "number"},
        "t_end": {"type": "number"},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "action": _MATRIX,
        "mu": _NUM_ARRAY,
        "z0": {
            "type": "object",
            "properties": {"q": _NUM_ARRAY, "p": _NUM_ARRAY},
            "required": ["q", "p"],
            "additionalProperties": False,
        },
        "chart": {
            "type": "object",
            "properties": {"y_block": _MATRIX, "x_block": _MATRIX,
                           "horizontal": _MATRIX, "generators": _MATRIX},
            "additionalProperties": False,
        },
        "solve": {
            "type": "object",
            "properties": {"range": _RANGE, "energy": {"type": "number"},
                           "branch": {"enum": [1, -1]},
                           "n_nodes": {"type": "integer", "minimum": 3},
                           "cyclic": _STR_ARRAY, "beta": _NUM_ARRAY},
            "required": ["range"],
            "additionalProperties": False,
        },
        "verify": {
            "type": "object",
            "properties": {"grid": _CHART_GRID},
            "additionalProperties": False,
        },
        "reconstruct": {
            "type": "object",
            "properties": {"y0": _NUM_ARRAY, "g0": _NUM_ARRAY,
                           "t_end": {"type": "number"},
                           "dt": {"type": "number", "exclusiveMinimum": 0}},
            "required": ["y0"],
            "additionalProperties": False,
        },
        "integrator": {
            "type": "object",
            "properties": {"kind": {"enum": ["typeI", "typeII"]},
                           "s": {"type": "string"},
                           "params": _STR_ARRAY,
                           "tau": {"type": "number", "exclusiveMinimum": 0},
                           "n_steps": {"type": "integer", "minimum": 1}},
            "required": ["kind", "s", "params", "tau", "n_steps"],
            "additionalProperties": False,
        },
        "generating_function": {
            "type": "object",
            "properties": {"kind": {"enum": ["typeI", "typeII"]},
                           "s": {"type": "string"},
                           "params": _STR_ARRAY},
            "required": ["kind", "s", "params"],
            "additionalProperties": False,
        },
        "complete_solution": {
            "type": "object",
            "properties": {"method": {"enum": ["quadrature"]},
                           "q_range": _RANGE,
                           "branch": {"enum": [1, -1]},
                           "param": {"type": "string"},
                           "n_quad": {"type": "integer", "minimum": 8}},
            "required": ["q_range"],
            "additionalProperties": False,
        },
        "magnetic": {
            "type": "object",
            "properties": {"alpha_mu": _STR_ARRAY,
                           "gamma_tilde": _STR_ARRAY,
                           "grid": _BOUNDS_GRID},
            "required": ["alpha_mu"],
            "additionalProperties": False,
        },
    },
    "required": ["name", "coords", "hamiltonian"],
    "additionalProperties": False,
}

# The JSON Schema (draft 2020-12) keywords SCENARIO_SCHEMA uses, with the
# draft's semantics and jsonschema's messages.  Each value check maps a
# keyword to the JSON type it constrains (None: every type) and to a
# function (value, keyword argument, schema node) -> message or None.
# properties, items and anyOf descend; $schema is ignored; any other
# keyword is a KeyError, never skipped.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # true is no number, and an integral float such as 2.0 is an integer
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def _json_equal(a, b):
    """JSON equality of scalars: 1.0 equals 1, but true does not."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _additional(value, allowed, node):
    extras = sorted(k for k in value if k not in node.get("properties", {}))
    if not extras or allowed is not False:
        return None
    verb = "was" if len(extras) == 1 else "were"
    return (f"Additional properties are not allowed "
            f"({', '.join(repr(k) for k in extras)} {verb} unexpected)")


def _too_short(value, n):
    return f"{value!r} {'should be non-empty' if n == 1 else 'is too short'}"


_CHECKS = {
    "type": (None, lambda v, t, _: (
        None if _JSON_TYPES[t](v) else f"{v!r} is not of type {t!r}")),
    "enum": (None, lambda v, e, _: (
        None if any(_json_equal(v, x) for x in e)
        else f"{v!r} is not one of {e!r}")),
    "required": ("object", lambda v, r, _: next(
        (f"{k!r} is a required property" for k in r if k not in v), None)),
    "additionalProperties": ("object", _additional),
    "minItems": ("array", lambda v, n, _: (
        _too_short(v, n) if len(v) < n else None)),
    "maxItems": ("array", lambda v, n, _: (
        f"{v!r} is too long" if len(v) > n else None)),
    "minLength": ("string", lambda v, n, _: (
        _too_short(v, n) if len(v) < n else None)),
    "pattern": ("string", lambda v, p, _: (
        None if re.search(p, v) else f"{v!r} does not match {p!r}")),
    "minimum": ("number", lambda v, m, _: (
        f"{v!r} is less than the minimum of {m!r}" if v < m else None)),
    "exclusiveMinimum": ("number", lambda v, m, _: (
        f"{v!r} is less than or equal to the minimum of {m!r}"
        if v <= m else None)),
}


def _schema_error(value, schema, path):
    """The shallowest violation of ``schema`` by ``value``, or None.

    The violation is ``"<JSON path>: <message>"``, the path in
    jsonschema's ``json_path`` form (``$.verify.grid.y[0]``); a document
    is checked at path ``"$"``.  The walk goes level by level and checks
    a node's own keywords, in schema order, before any node below it.
    An ``anyOf`` that no branch accepts reports the violation of the one
    branch whose type the value has, or, with no such single branch,
    itself.
    """
    level = [(path, value, schema)]
    while level:
        below = []
        for path, value, node in level:
            for key, arg in node.items():
                if key == "properties":
                    if isinstance(value, dict):
                        below.extend((f"{path}.{k}", value[k], sub)
                                     for k, sub in arg.items() if k in value)
                elif key == "items":
                    if isinstance(value, list):
                        below.extend((f"{path}[{i}]", v, arg)
                                     for i, v in enumerate(value))
                elif key == "anyOf":
                    errors = [_schema_error(value, sub, path) for sub in arg]
                    if all(errors):
                        typed = [e for e, sub in zip(errors, arg)
                                 if _JSON_TYPES[sub["type"]](value)]
                        return typed[0] if len(typed) == 1 else \
                            f"{path}: {value!r} is not valid under any of " \
                            "the given schemas"
                elif key != "$schema":
                    applies, check = _CHECKS[key]
                    if applies is None or _JSON_TYPES[applies](value):
                        message = check(value, arg, node)
                        if message is not None:
                            return f"{path}: {message}"
        level = below
    return None


def load_scenario(path_or_name):
    """Load a scenario by file path or bundled name, schema-checked."""
    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        fname = path_or_name if path_or_name.endswith(".json") \
            else path_or_name + ".json"
        res = resources.files("hjreduce").joinpath("scenarios", fname)
        if not res.is_file():
            raise ScenarioError(f"scenario not found: {path_or_name}")
        text = res.read_text(encoding="utf-8")
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"not valid JSON: {e}")
    err = _schema_error(doc, SCENARIO_SCHEMA, "$")
    if err is not None:
        raise ScenarioError(err)
    return _integers(doc, SCENARIO_SCHEMA, "$")


def _finite(text):
    """A JSON number as a float, refusing one beyond the double range and
    the tokens NaN, Infinity and -Infinity, which json.loads accepts
    although JSON has no such values."""
    value = float(text)
    if not np.isfinite(value):
        raise ScenarioError(f"number '{text}' is not finite")
    return value


def _integers(value, schema, path):
    """A valid ``value`` with each number that ``schema`` types as an
    integer (2.0 is one in JSON Schema) as a Python int.  An integer
    literal in a number field that no double holds is a ScenarioError
    at its JSON ``path``; every other number is kept as written."""
    if "anyOf" in schema:
        schema = next(sub for sub in schema["anyOf"]
                      if _schema_error(value, sub, "$") is None)
    if schema.get("type") == "integer":
        return int(value)
    if schema.get("type") == "number":
        try:
            float(value)
        except OverflowError:
            raise ScenarioError(f"{path}: the {len(str(abs(value)))}-digit "
                                "integer is beyond the double range") from None
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _integers(v, props[k], f"{path}.{k}") if k in props else v
                for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_integers(v, schema["items"], f"{path}[{i}]")
                for i, v in enumerate(value)]
    return value


def _parse_field(text, where):
    try:
        return parse_expr(text)
    except ParseError as e:
        raise ScenarioError(f"{where}: {e}")


def build_system(doc):
    """HamiltonianSystem + optional action + mu from a validated doc."""
    coords = doc["coords"]
    if len(set(coords)) != len(coords):
        raise ScenarioError("$.coords: coordinate names must be distinct")
    if "momenta" in doc:
        where, momenta = "$.momenta", doc["momenta"]
    else:
        where, momenta = "$.coords", default_momentum_names(coords)
    if len(momenta) != len(coords) \
            or len(set(coords) | set(momenta)) != 2 * len(coords):
        raise ScenarioError(
            f"{where}: need one momentum name per coordinate, distinct from "
            f"each other and from the coordinates (momenta {list(momenta)})")
    for field, names in (("$.coords", coords), (where, momenta)):
        if TIME in names:
            raise ScenarioError(f"{field}: '{TIME}' is the time variable, "
                                "not a coordinate or momentum name")
    h = _parse_field(doc["hamiltonian"], "$.hamiltonian")
    try:
        sys_ = HamiltonianSystem(h, coords, momenta)
    except ValueError as e:
        raise ScenarioError(f"$.hamiltonian: {e}")
    action = None
    mu = None
    if "action" in doc:
        rows = doc["action"]
        for i, row in enumerate(rows):
            if len(row) != len(coords):
                raise ScenarioError(
                    f"$.action[{i}]: generator has {len(row)} entries, "
                    f"expected {len(coords)}")
        try:
            action = TranslationAction(rows)
        except ValueError as e:
            raise ScenarioError(f"$.action: {e}")
        mu = np.zeros(action.k)
    if "mu" in doc:
        if action is None and "chart" not in doc:
            raise ScenarioError("$.mu: mu given without an action")
        mu = np.asarray(doc["mu"], dtype=float)
        if action is not None and mu.size != action.k:
            raise ScenarioError(
                f"$.mu: expected {action.k} entries, got {mu.size}")
    return sys_, action, mu


def _seed(doc, args):
    return args.seed if args.seed is not None else doc.get("seed", 42)


def _phase_point(doc):
    if "z0" not in doc:
        raise ScenarioError("this command needs a 'z0' section")
    z = doc["z0"]
    n = len(doc["coords"])
    if len(z["q"]) != n or len(z["p"]) != n:
        raise ScenarioError(f"$.z0: q and p must each have {n} entries")
    return PhasePoint(z["q"], z["p"])


def _time_grid(doc, args, section=None):
    block = doc.get(section, {}) if section else {}
    t_end = args.t_end if args.t_end is not None \
        else block.get("t_end", doc.get("t_end"))
    dt = args.dt if args.dt is not None else block.get("dt", doc.get("dt"))
    if t_end is None or dt is None:
        raise ScenarioError("this command needs t_end and dt "
                            "(scenario fields or --t-end/--dt)")
    return float(t_end), float(dt)


# ---------------------------------------------------------------------------
# Output helpers.

def _temp_file(path, text):
    """A new file beside ``path`` holding ``text``, with open()'s mode."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".hjreduce_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            # mkstemp makes the file 0600; a report is as readable as any
            # file open() makes under the process umask
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(text)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _write_files(items):
    """Write each (path, text) pair, all or none, then print what was written.

    Every text goes to a temporary file beside its path before any path
    is replaced.  If a step fails, the temporary files and every output
    file this call created are deleted before the error propagates; a
    file from an earlier run that was already replaced is not restored.
    """
    temps, created = [], []
    try:
        for path, text in items:
            temps.append((_temp_file(path, text), path))
        for tmp, path in temps:
            existed = os.path.lexists(path)
            os.replace(tmp, path)
            if not existed:
                created.append(path)
    except BaseException:
        for leftover in [tmp for tmp, _ in temps] + created:
            with contextlib.suppress(OSError):
                os.unlink(leftover)
        raise
    for _, path in temps:
        print(f"wrote {path}")


def _json_default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


def _json_text(obj):
    """A report as strict JSON text; a NaN or inf in it is a DomainError."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                          default=_json_default)
    except ValueError:
        for field in sorted(obj):
            try:
                json.dumps(obj[field], allow_nan=False, default=_json_default)
            except ValueError:
                raise DomainError(f"report field '{field}' is not finite") \
                    from None
        raise
    return text + "\n"


_CSV_BLOCK = 1024


def _csv_text(header, columns):
    """CSV text of float columns (1-d or 2-d arrays) at full double precision.

    A NaN or inf anywhere in a column is a DomainError naming the column.
    """
    table = np.column_stack(columns)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise DomainError(
            f"CSV column '{header[int(np.argmin(finite))]}' is not finite")
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)]
    # blocks of rows as Python floats: one list of the whole table would
    # hold a float object per value at once
    for start in range(0, len(table), _CSV_BLOCK):
        lines.extend(row % tuple(r)
                     for r in table[start:start + _CSV_BLOCK].tolist())
    return "\n".join(lines) + "\n"


def _numbered(name, n):
    return [f"{name}{i+1}" for i in range(n)]


def _trajectory_csv(traj):
    """Header and columns of a trajectory CSV."""
    return (["t", *_numbered("q", traj.n), *_numbered("p", traj.n)],
            [traj.times, traj.qs, traj.ps])


def emit_trajectory(traj, path):
    """CSV with header t,q1,...,qn,p1,...,pn at full double precision."""
    _write_files([(path, _csv_text(*_trajectory_csv(traj)))])


def read_trajectory(path):
    """Inverse of emit_trajectory; bit-exact for files it wrote."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        lines = [ln for ln in f.read().split("\n") if ln]
    header = lines[0].split(",") if lines else []
    if len(header) < 3 or len(header) % 2 == 0 or header[0] != "t":
        raise ValueError(f"{path}: not a trajectory CSV")
    n = (len(header) - 1) // 2
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    data = np.array(rows, dtype=float).reshape(len(rows), 2 * n + 1)
    return Trajectory(data[:, 0], data[:, 1:n + 1], data[:, n + 1:])


def _out_path(doc, args, suffix):
    return os.path.join(args.out, f"{doc['name']}_{suffix}")


def _grid_counts(grid_spec, default, n_axes, where):
    """A grid section's counts, checked to give one count per axis."""
    counts = grid_spec.get("counts", default)
    if isinstance(counts, list) and len(counts) != n_axes:
        raise ScenarioError(f"{where}.counts: need {n_axes} counts, one per "
                            f"axis, got {len(counts)}")
    return counts


def _chart_points(chart, grid_spec, override):
    """Full-space grid from per-chart-coordinate bounds."""
    y_bounds = grid_spec.get("y", [])
    x_bounds = grid_spec.get("x", [])
    if len(y_bounds) != chart.m or len(x_bounds) != chart.k:
        raise ScenarioError(
            f"$.verify.grid: need {chart.m} y ranges and {chart.k} x ranges")
    bounds = [_interval(r, f"$.verify.grid.{axis}[{i}]")
              for axis, ranges in (("y", y_bounds), ("x", x_bounds))
              for i, r in enumerate(ranges)]
    counts = override if override is not None \
        else _grid_counts(grid_spec, 20, chart.m + chart.k, "$.verify.grid")
    pts = mesh_grid(bounds, counts)
    ys = pts[:, :chart.m]
    xs = pts[:, chart.m:]
    return ys @ chart.horizontal.T + xs @ chart.generators.T


# ---------------------------------------------------------------------------
# Shared pipeline pieces.

def _reduced_problem(doc, sys_, action, mu, args):
    """Chart + reduced hamiltonian, checked against the scenario action."""
    if action is None:
        raise ScenarioError("this command needs an 'action' section")
    chart = build_chart(action)
    h_red = reduced_hamiltonian(sys_, chart, mu, seed=_seed(doc, args))
    return chart, h_red


def _solve_1d(doc, sys_, action, mu, args):
    """Dispatch the scenario to a 1-D quadrature solution.

    Returns (solution, basis): the solution carries its variable, its
    energy and its root, whose residual g = equation - energy measures
    the solved equation anywhere on the range (``solution.residual``).
    ``basis`` is what the solve built: the checked CyclicAnsatz of a
    cyclic solve, the reduction chart of an action, or None for a
    one-dimensional system.
    """
    sv = doc.get("solve")
    if sv is None:
        raise ScenarioError("this command needs a 'solve' section")
    energy = sv.get("energy", doc.get("energy"))
    if energy is None:
        raise ScenarioError("$.solve: no energy given "
                            "(solve.energy or top-level energy)")
    energy = float(energy)
    if "cyclic" in sv:
        betas = sv.get("beta")
        if betas is None or len(betas) != len(sv["cyclic"]):
            raise ScenarioError("$.solve.beta: need one beta per cyclic "
                                "variable")
        ans = cyclic_ansatz(sys_, sv["cyclic"], betas, seed=_seed(doc, args))
        if len(ans.remaining_vars) != 1:
            raise ScenarioError("$.solve.cyclic: exactly one non-cyclic "
                                "coordinate is needed for quadrature")
        basis, y_var, p_var, equation = (ans, ans.remaining_vars[0],
                                         ans.slot_vars[0], ans.equation)
    elif action is not None:
        basis, equation = _reduced_problem(doc, sys_, action, mu, args)
        if basis.m != 1:
            raise ScenarioError("the reduced problem is not one-dimensional")
        y_var, p_var = basis.y_names[0], basis.py_names[0]
    elif sys_.n == 1:
        basis, y_var, p_var, equation = (None, sys_.coords[0],
                                         sys_.momenta[0], sys_.h)
    else:
        raise ScenarioError("solve-hj needs an action, a cyclic list, or a "
                            "one-dimensional system")
    n_nodes = args.grid if args.grid is not None \
        else sv.get("n_nodes", 2001)
    if n_nodes < 3:  # the schema holds $.solve.n_nodes to at least 3
        raise ScenarioError(f"--grid: must be at least 3 for a quadrature "
                            f"solve, got {n_nodes}")
    sol = solve_reduced_1d(equation, y_var, p_var, energy,
                           _interval(sv["range"], "$.solve.range"),
                           branch=sv.get("branch", 1), n_nodes=n_nodes)
    return sol, basis


def _interval(pair, where):
    """``pair`` as (lo, hi); unless lo < hi, a ScenarioError at ``where``."""
    lo, hi = pair
    if not lo < hi:
        raise ScenarioError(f"{where}: empty range [{lo}, {hi}]")
    return lo, hi


def _generating_function(sys_, block, where):
    """The generating function of a scenario block with kind, s, params."""
    s = _parse_field(block["s"], f"{where}.s")
    try:
        return GeneratingFunction(block["kind"], s, q_vars=sys_.coords,
                                  params=block["params"])
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}")


def _quadrature_family(doc, sys_):
    """The scenario's quadrature complete-solution family."""
    cs = doc["complete_solution"]
    if sys_.n != 1:
        raise ScenarioError("$.complete_solution: quadrature families "
                            "need a one-dimensional system")
    q_range = _interval(cs["q_range"], "$.complete_solution.q_range")
    return quadrature_complete_solution(sys_, q_range,
                                        branch=cs.get("branch", 1),
                                        param=cs.get("param", "a1"))


# ---------------------------------------------------------------------------
# Commands.  Each takes the scenario, the arguments and the built system
# (system, action, mu), writes and prints nothing, and returns
# (report suffix, report, summary, failure text, csv): the failure text
# is the stderr line of a report whose "pass" is false, and csv is None
# or (suffix, header, columns).

def cmd_reduce(doc, args, sys_, action, mu):
    chart, h_red = _reduced_problem(doc, sys_, action, mu, args)
    h_text = str(h_red)
    out = {
        "name": doc["name"] + "_reduced",
        "coords": list(chart.y_names),
        "momenta": list(chart.py_names),
        "hamiltonian": h_text,
        "mu": mu.tolist(),
        "seed": _seed(doc, args),
        "chart": {
            "y_block": chart.y_block.tolist(),
            "x_block": chart.x_block.tolist(),
            "horizontal": chart.horizontal.tolist(),
            "generators": chart.generators.tolist(),
        },
    }
    if "energy" in doc:
        out["energy"] = doc["energy"]
    if "solve" in doc and "cyclic" not in doc["solve"]:
        out["solve"] = doc["solve"]
    return ("reduced.json", out,
            f"reduce: {', '.join(chart.y_names)} | h = {h_text}", None, None)


def cmd_solve_hj(doc, args, sys_, action, mu):
    sol, _ = _solve_1d(doc, sys_, action, mu, args)
    table = sol.table
    resid = sol.residual(table.ys, table.derivs)
    report = {
        "variable": sol.coords[0],
        "energy": sol.energy,
        "range": [sol.y_range[0], sol.y_range[1]],
        "n_nodes": int(table.ys.size),
        "branch": doc["solve"].get("branch", 1),
        "max_node_residual": resid,
        "tol": args.tol,
        "pass": bool(resid <= args.tol),
    }
    return ("solve.json", report,
            f"solve-hj: max node residual {resid:.3e} (tol {args.tol:.1e})",
            f"node residual {resid:.3e} > {args.tol:.1e}",
            ("table.csv", ["y", "W", "dW"],
             [table.ys, table.values, table.derivs]))


def _magnetic_form(mg, field, coords, what):
    """The 1-form ``$.magnetic.<field>`` on ``coords``: one component
    per coordinate (a ``what``), each reading no other name, not even
    the time."""
    where = f"$.magnetic.{field}"
    comps = [_parse_field(c, where) for c in mg[field]]
    if len(comps) != len(coords):
        raise ScenarioError(f"{where}: one component per {what}")
    for i, c in enumerate(comps):
        extra = c.free_vars() - set(coords)
        if extra:
            raise ScenarioError(f"{where}[{i}]: uses undeclared variables: "
                                f"{sorted(extra)}")
    return OneForm(coords, components=comps)


def _verify_magnetic(doc, sys_, action, mu, args):
    if action is None:
        raise ScenarioError("magnetic verification needs an 'action'")
    mg = doc["magnetic"]
    chart = build_chart(action)
    alpha = _magnetic_form(mg, "alpha_mu", sys_.coords, "coordinate")
    term = magnetic_term(chart, alpha, mu, seed=_seed(doc, args))
    report = {
        "beta": {f"d{chart.y_names[i]}^d{chart.y_names[j]}":
                 str(term.beta.entry(i, j))
                 for i in range(chart.m) for j in range(i + 1, chart.m)},
        "pullback_residual": term.pullback_residual,
        "momentum_dev": term.momentum_dev,
        "invariance_dev": term.invariance_dev,
        "tol": args.tol,
    }
    ok = term.pullback_residual <= args.tol
    if "gamma_tilde" in mg:
        gamma = _magnetic_form(mg, "gamma_tilde", chart.y_names,
                               "reduced coordinate")
        gspec = mg.get("grid", {"bounds": [[-2.0, 2.0]] * chart.m})
        if len(gspec["bounds"]) != chart.m:
            raise ScenarioError(
                f"$.magnetic.grid.bounds: need {chart.m} ranges, one per "
                f"reduced coordinate, got {len(gspec['bounds'])}")
        bounds = [_interval(r, f"$.magnetic.grid.bounds[{i}]")
                  for i, r in enumerate(gspec["bounds"])]
        grid = mesh_grid(bounds,
                         args.grid if args.grid is not None
                         else _grid_counts(gspec, 15, chart.m,
                                           "$.magnetic.grid"))
        resid = magnetic_lagrangian_residual(gamma, term.beta, grid)
        report["magnetic_residual"] = resid
        ok = ok and resid <= args.tol
    report["pass"] = bool(ok)
    return report


def _verify_family(doc, sys_, args, gf, param_values, q_var, q_range):
    n_pts = args.grid if args.grid is not None else 200
    t_end = doc.get("t_end", 1.0)
    points = {q_var: np.linspace(q_range[0], q_range[1], n_pts),
              TIME: np.linspace(0.0, t_end, n_pts)}
    for c in sys_.coords:
        if c != q_var:
            points[c] = np.linspace(-2.0, 2.0, n_pts)
    for nm, v in zip(gf.params, param_values):
        points[nm] = np.full(n_pts, float(v))
    rep = check_complete(gf, sys_, points, tol=args.tol)
    return {
        "hj_max_dev": rep.hj_max_dev,
        "min_abs_det": rep.min_abs_det,
        "tol": args.tol,
        "pass": bool(rep.complete),
    }


def cmd_verify(doc, args, sys_, action, mu):
    if "magnetic" in doc:
        report = _verify_magnetic(doc, sys_, action, mu, args)
        kind = "magnetic"
    elif "complete_solution" in doc:
        gf = _quadrature_family(doc, sys_)
        energy = doc.get("energy")
        if energy is None:
            energy = sys_.energy(_phase_point(doc))
        report = _verify_family(doc, sys_, args, gf, (energy,),
                                sys_.coords[0],
                                doc["complete_solution"]["q_range"])
        kind = "complete_solution"
    elif "solve" in doc and "cyclic" in doc["solve"]:
        sol, ans = _solve_1d(doc, sys_, action, mu, args)
        n_pts = args.grid if args.grid is not None else 200
        ys = np.linspace(sol.y_range[0], sol.y_range[1], n_pts)
        worst = sol.residual(ys, [sol.root.solve((y,)) for y in ys])
        sv = doc["solve"]
        gf = cyclic_complete_solution(sys_, ans, sv["range"],
                                      branch=sv.get("branch", 1))
        fam = _verify_family(doc, sys_, args, gf, [sol.energy, *sv["beta"]],
                             sol.coords[0], sol.y_range)
        report = {**fam, "max_offnode_residual": worst,
                  "pass": bool(worst <= args.tol and fam["pass"])}
        kind = "cyclic"
    elif action is not None:
        sol, chart = _solve_1d(doc, sys_, action, mu, args)
        vspec = doc.get("verify", {}).get("grid")
        if vspec is None:
            raise ScenarioError("this scenario has no verify.grid section")
        grid = _chart_points(chart, vspec, args.grid)
        rep = lift_report(sys_, sol, chart, mu, grid, seed=_seed(doc, args))
        report = {
            "hj_max_dev": rep.hj_max_dev,
            "closedness": rep.closedness,
            "momentum_dev": rep.momentum_dev,
            "invariance_dev": rep.invariance_dev,
            "energy_estimate": rep.energy,
            "grid_points": int(grid.shape[0]),
            "tol": args.tol,
            "pass": bool(rep.hj_max_dev <= args.tol
                         and rep.momentum_dev <= args.tol),
        }
        kind = "reduction"
    else:
        raise ScenarioError("nothing to verify: need 'magnetic', "
                            "'complete_solution', a cyclic solve, or an "
                            "action pipeline")
    report["mode"] = kind
    return ("verify.json", report, f"verify[{kind}]:",
            f"verification exceeded tol {args.tol:.1e}", None)


def cmd_reconstruct(doc, args, sys_, action, mu):
    rc = doc.get("reconstruct")
    if rc is None:
        raise ScenarioError("this command needs a 'reconstruct' section")
    cyclic = "cyclic" in doc.get("solve", {})
    if action is None and not cyclic:
        raise ScenarioError("reconstruction needs an 'action' section")
    t_end, dt = _time_grid(doc, args, "reconstruct")
    sol, chart = _solve_1d(doc, sys_, action, mu, args)
    if cyclic:  # reduced by the cyclic translations at the level beta
        chart, mu = chart.chart, doc["solve"]["beta"]
    y0 = np.asarray(rc["y0"], dtype=float)
    g0 = np.asarray(rc["g0"], dtype=float) if "g0" in rc else None
    traj = reconstruct_trajectory(sys_, sol, chart, mu, y0, t_end, dt, g0=g0)
    form = lift_solution(sol, chart, mu, sys_.coords)
    traj2 = integrate_projected(sys_, form, traj.qs[0], t_end, dt)
    sup_dev = max(float(np.max(np.abs(traj.qs - traj2.qs))),
                  float(np.max(np.abs(traj.ps - traj2.ps))))
    z0 = PhasePoint(traj.qs[0], form.values(traj.qs[0]))
    flow = flow_reference(sys_, z0, t_end, dt)
    on_graph = evaluate_rows(form.components, form.coords, flow.qs)
    related = float(max(np.max(np.abs(on_graph - flow.ps), axis=1)))
    report = {
        "t_end": t_end,
        "dt": dt,
        "sup_dev_vs_projected": sup_dev,
        "graph_relatedness_dev": related,
        "tol": args.tol,
        "pass": bool(sup_dev <= args.tol and related <= args.tol),
    }
    return ("reconstruct.json", report,
            f"reconstruct: sup dev {sup_dev:.3e}, relatedness {related:.3e}",
            f"reconstruction deviation exceeded tol {args.tol:.1e}",
            ("reconstructed.csv", *_trajectory_csv(traj)))


def cmd_simulate(doc, args, sys_, action, mu):
    z0 = _phase_point(doc)
    t_end, dt = _time_grid(doc, args)
    traj = flow_reference(sys_, z0, t_end, dt)
    energies = traj.energies(sys_)
    report = {
        "t_end": t_end,
        "dt": dt,
        "samples": len(traj),
        "energy_initial": float(energies[0]),
        "energy_final": float(energies[-1]),
        "max_energy_drift": float(np.max(np.abs(energies - energies[0]))),
    }
    return ("simulate.json", report,
            f"simulate: {len(traj)} samples, energy drift "
            f"{report['max_energy_drift']:.3e}", None,
            ("trajectory.csv", *_trajectory_csv(traj)))


def cmd_integrate(doc, args, sys_, action, mu):
    ib = doc.get("integrator")
    if ib is None:
        raise ScenarioError("this command needs an 'integrator' section")
    z0 = _phase_point(doc)
    gf = _generating_function(sys_, ib, "$.integrator")
    rep = run_scheme(gf, sys_, z0, ib["n_steps"], ib["tau"], action=action)
    report = {
        "tau": ib["tau"],
        "n_steps": ib["n_steps"],
        "symplecticity_defect": rep.symplecticity_defect,
        "max_energy_drift": float(np.max(rep.energy_drift)),
        "tol": args.tol,
        "pass": bool(rep.symplecticity_defect <= args.tol),
    }
    if rep.momentum_drift is not None:
        report["max_momentum_drift"] = float(np.max(rep.momentum_drift))
    return ("scheme.json", report,
            f"integrate: defect {rep.symplecticity_defect:.3e}",
            f"symplecticity defect {rep.symplecticity_defect:.3e} > "
            f"{args.tol:.1e}",
            ("scheme.csv", *_trajectory_csv(rep.trajectory)))


def cmd_equilibrium(doc, args, sys_, action, mu):
    z0 = _phase_point(doc)
    t_end, dt = _time_grid(doc, args)
    param_guess = None
    if "generating_function" in doc:
        gb = doc["generating_function"]
        if gb["kind"] != "typeI":
            raise ScenarioError("$.generating_function: equilibrium "
                                "transforms use a typeI family")
        gf = _generating_function(sys_, gb, "$.generating_function")
    elif "complete_solution" in doc:
        gf = _quadrature_family(doc, sys_)
        param_guess = [doc.get("energy", sys_.energy(z0))]
    else:
        raise ScenarioError("equilibrium needs a 'generating_function' or "
                            "'complete_solution' section")
    rep = transform_to_equilibrium(gf, sys_, z0, t_end, dt,
                                   param_guess=param_guess)
    n = sys_.n
    report = {
        "t_end": t_end,
        "dt": dt,
        "alpha0": rep.alphas[0].tolist(),
        "beta0": rep.betas[0].tolist(),
        "max_variation": rep.max_var,
        "tol": args.tol,
        "pass": bool(rep.max_var <= args.tol),
    }
    return ("equilibrium.json", report,
            f"equilibrium: max variation {rep.max_var:.3e}",
            f"new variables varied by {rep.max_var:.3e} > {args.tol:.1e}",
            ("equilibrium.csv",
             ["t", *_numbered("alpha", n), *_numbered("beta", n)],
             [rep.times, rep.alphas, rep.betas]))


_COMMANDS = {
    "reduce": (cmd_reduce, "descend an invariant system to the quotient"),
    "solve-hj": (cmd_solve_hj, "solve a 1-D reduced equation by quadrature"),
    "verify": (cmd_verify, "check a scenario's solution claim end to end"),
    "reconstruct": (cmd_reconstruct,
                    "rebuild a full trajectory from the reduced flow"),
    "simulate": (cmd_simulate, "integrate the canonical equations (RK4)"),
    "integrate": (cmd_integrate,
                  "run a generating-function scheme with diagnostics"),
    "equilibrium": (cmd_equilibrium,
                    "transform a trajectory to equilibrium coordinates"),
}


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="hjreduce",
        description="Symmetry reduction, Hamilton-Jacobi solving by "
                    "quadrature, and generating-function integrators.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, (fn, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("scenario",
                        help="scenario file path or bundled scenario name")
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="residual tolerance (default 1e-8)")
        sp.add_argument("--grid", type=int, default=None,
                        help="override grid point count per axis")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario RNG seed")
        sp.add_argument("--out", default=".",
                        help="output directory (default .)")
        sp.add_argument("--dt", type=float, default=None,
                        help="override the integration step")
        sp.add_argument("--t-end", dest="t_end", type=float, default=None,
                        help="override the integration span")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.grid is not None and args.grid < 1:
            raise ScenarioError(f"--grid: must be at least 1, got {args.grid}")
        if not 0.0 <= args.tol < np.inf:
            raise ScenarioError(f"--tol: must be finite and non-negative, "
                                f"got {args.tol}")
        for flag, value in (("--dt", args.dt), ("--t-end", args.t_end)):
            if value is not None and not np.isfinite(value):
                raise ScenarioError(f"{flag}: must be finite, got {value}")
        if args.seed is not None and args.seed < 0:
            raise ScenarioError(f"--seed: must be non-negative, got {args.seed}")
        doc = load_scenario(args.scenario)
        suffix, report, summary, failure, csv = args.fn(
            doc, args, *build_system(doc))
        # every text is made, and so checked, before the first write
        texts = [] if csv is None else [(csv[0], _csv_text(*csv[1:]))]
        texts.append((suffix, _json_text(report)))
        _write_files([(_out_path(doc, args, sfx), text)
                      for sfx, text in texts])
        if "pass" in report:
            summary += " PASS" if report["pass"] else " FAIL"
        print(summary)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except (DomainError, SolveError, PreconditionError) as e:
        print(f"numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        # remaining ValueErrors are malformed inputs (ranges, counts, shapes)
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except RecursionError:
        # parse, print, evaluate and differentiate recurse on tree depth
        print("scenario error: expression nests too deeply for the "
              "recursion limit", file=sys.stderr)
        return EXIT_SCENARIO
    except OSError as e:
        # an unreadable scenario path or an unwritable --out
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except MemoryError as e:
        # a step count or grid too large to allocate
        print(f"scenario error: input too large: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    if report.get("pass", True):
        return EXIT_OK
    print(f"residual failure: {failure}", file=sys.stderr)
    return EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
