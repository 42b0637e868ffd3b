"""Compiled evaluation plans (``expr._Plan``) against the tree walker:
the same bits, the same errors, the walker kept where it must be, and
one compile per chunk source."""

import builtins
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjreduce import expr
from hjreduce.expr import (FUNCTION_NAMES, Const, DomainError, External,
                           UnboundVariableError, Var, _Plan, call,
                           evaluate_rows, parse)
from hjreduce.hj import heavy_top_system
from hjreduce.phase_space import FLOW_SINGULAR_TOL, HamiltonianSystem

TOL = FLOW_SINGULAR_TOL


def bits(v):
    """Type and IEEE bit pattern, so NaN and signed zeros compare too."""
    return type(v), struct.pack("<d", v)


def outcome(fn, *args):
    try:
        return [bits(v) for v in fn(*args)], None
    except Exception as err:  # compared below
        return None, err


def assert_walked(plan, row):
    """plan(row) is the walker's values, or raises the walker's error."""
    b = dict(zip(plan.argnames, row))
    want, want_err = outcome(
        lambda: [e.evaluate(b, plan.singular_tol) for e in plan.exprs])
    got, got_err = outcome(plan, list(row))
    assert got == want
    assert type(got_err) is type(want_err)
    assert str(got_err) == str(want_err)
    assert getattr(got_err, "subexpr", None) is getattr(want_err, "subexpr",
                                                        None)
    return got_err


def many_body(n, seed):
    """n particles on a line, inverse-square couplings drawn from seed."""
    rng = np.random.default_rng(seed)
    qs = [f"q{i + 1}" for i in range(n)]
    ps = [f"p{i + 1}" for i in range(n)]
    pot = "+".join(f"{round(float(rng.uniform(0.05, 0.2)), 6)!r}"
                   f"/({qs[i]}-{qs[j]})^2"
                   for i in range(n) for j in range(i + 1, n))
    return HamiltonianSystem("0.5*(" + "+".join(f"{p}^2" for p in ps)
                             + ")+" + pot, qs, ps)


def spread_rows(n, seed, count=30):
    """Rows (q, p, t) with the particles 1.5 apart."""
    rng = np.random.default_rng(seed)
    q = 1.5 * (np.arange(n) - 0.5 * (n - 1)) + rng.uniform(-0.2, 0.2,
                                                            (count, n))
    return np.column_stack([q, rng.uniform(-0.3, 0.3, (count, n)),
                            rng.uniform(0.0, 1.0, count)])


@pytest.fixture
def counted_compiles(monkeypatch):
    """An empty code cache and the file names of every compile made."""
    monkeypatch.setattr(expr, "_CODE_CACHE", {})
    made = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        made.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return made


class TestBitForBit:
    @pytest.mark.parametrize("n", [6, 16])
    def test_many_body_fields(self, n):
        sys_ = many_body(n, n)
        plan = sys_._field_plan
        assert plan._kernel is not None
        rows = spread_rows(n, 3)
        want = evaluate_rows(plan.exprs, sys_._names, rows, TOL)
        assert plan.rows(rows).tobytes() == want.tobytes()
        want = evaluate_rows(sys_._dh_dp, sys_._names, rows, TOL)
        assert sys_._dh_dp_plan.rows(rows).tobytes() == want.tobytes()

    def test_the_16_body_field_merges_and_chunks(self):
        # the derivative trees' distinct inner nodes merge to fewer
        # operations (q1-q2 in dh/dq1 and in dh/dq2 is one), which
        # compile in chunks of at most _PLAN_CHUNK
        plan = many_body(16, 1)._field_plan
        ops, consts, outs = expr._merge(
            plan.exprs, {v: i for i, v in enumerate(plan.argnames)})
        steps = sum(op[0] not in ("a", "c") for op in ops)
        nodes, stack = {}, list(plan.exprs)
        while stack:
            node = stack.pop()
            if id(node) not in nodes and not isinstance(node, (Const, Var)):
                nodes[id(node)] = node
                stack += node._children()
        assert steps < len(nodes)
        chunks = expr._plan_sources(ops, consts, outs, len(plan.argnames),
                                    True)
        assert len(chunks) == math.ceil(steps / expr._PLAN_CHUNK) > 1

    def test_heavy_top(self):
        sys_ = heavy_top_system(1.3, 0.7, 1.1, 9.81, 0.4)
        rng = np.random.default_rng(8)
        rows = np.column_stack([rng.uniform(0.3, 2.8, 40),
                                rng.uniform(-3.0, 3.0, (40, 5)),
                                np.zeros(40)])
        for plan in (sys_._field_plan, sys_._dh_dp_plan):
            want = evaluate_rows(plan.exprs, plan.argnames, rows,
                                 plan.singular_tol)
            assert plan.rows(rows).tobytes() == want.tobytes()

    def test_zero_rows_and_no_expressions(self):
        plan = _Plan((parse("x*y"),), ("x", "y"), 0.0, "t")
        assert plan.rows(np.empty((0, 2))).shape == (0, 1)
        assert _Plan((), ("x",), 0.0, "t").rows([[1.0]]).shape == (1, 0)

    def test_signed_zero_constants_stay_apart(self):
        plan = _Plan((expr.Mul(Var("x"), Const(0.0)),
                      expr.Mul(Var("x"), Const(-0.0))), ("x",), 0.0, "t")
        assert [bits(v) for v in plan([2.0])] == [bits(0.0), bits(-0.0)]

    def test_a_repeated_name_takes_its_later_value(self):
        plan = _Plan((Var("x") + Const(1.0),), ("x", "x"), 0.0, "t")
        assert plan([1.0, 2.0]) == [3.0]


# (expression, names, row, tolerance, message or None)
ERRORS = [
    ("1/(x-y)", "xy", [1e-12, 0.0], TOL, None),
    ("1/(x-y)", "xy", [5e-13, 0.0], TOL, "division by zero"),
    ("1/(x-y)", "xy", [2.0, 2.0], 0.0, "division by zero"),
    ("1/(x-y)", "xy", [5e-13, 0.0], 0.0, None),
    ("x^y", "xy", [10.0, 400.0], 0.0, "power overflow"),
    ("x^2", "x", [math.inf], 0.0, "power overflow"),
    ("x^(-1)", "x", [0.0], 0.0, "zero raised to a negative power"),
    ("x^(-1)", "x", [1e-13], TOL, "zero raised to a negative power"),
    ("x^(-1)", "x", [1e-13], 0.0, None),
    ("x^y", "xy", [-0.0, -2.0], 0.0, "zero raised to a negative power"),
    ("x^y", "xy", [1e-13, -2.0], TOL, "zero raised to a negative power"),
    ("x^y", "xy", [1e-13, 2.0], TOL, None),
    ("x^y", "xy", [-8.0, 0.5], 0.0,
     "invalid power (negative base, fractional exponent)"),
    ("sqrt(x)", "x", [-1.0], 0.0, "sqrt of a negative number"),
    ("sqrt(x)", "x", [-0.0], 0.0, None),
    ("log(x)", "x", [0.0], 0.0, "log of a non-positive number"),
    ("log(x*y-x*y)", "xy", [1e200, 1e200], 0.0, "log overflow"),
    ("exp(x)", "x", [1000.0], 0.0, "exp overflow"),
    ("sin(x*y)", "xy", [1e200, 1e200], 0.0, "sin domain error"),
    ("x*y-x*y", "xy", [1e200, 1e200], 0.0, None),
    ("(x*y)/(x*y)+x", "xy", [1e200, 1e200], TOL, None),
    ("-(x*y)+x*y", "xy", [1e200, -1e200], 0.0, None),
]


class TestErrors:
    @pytest.mark.parametrize("text, names, row, tol, message", ERRORS,
                             ids=[f"{c[0]}@{c[2]}-{c[3]}" for c in ERRORS])
    def test_the_walkers_error_or_bits(self, text, names, row, tol,
                                       message):
        e = parse(text)
        plan = _Plan((e, Var(names[0])), tuple(names), tol, "t")
        err = assert_walked(plan, row)
        if message is None:
            assert err is None
        else:
            assert isinstance(err, DomainError)
            assert str(err).startswith(message + " in '")

    def test_nan_from_unchecked_arithmetic_is_returned(self):
        plan = _Plan((parse("x*y-x*y"),), ("x", "y"), 0.0, "t")
        (v,) = plan([1e200, 1e200])
        assert math.isnan(v)

    def test_the_first_failing_expression_is_the_walkers(self):
        # both fail at this row; the walker's list order decides
        plan = _Plan((parse("sqrt(y)"), parse("log(x)")), ("x", "y"), 0.0,
                     "t")
        err = assert_walked(plan, [0.0, -1.0])
        assert str(err) == "sqrt of a negative number in 'sqrt(y)'"

    def test_the_first_failing_row_is_the_walkers(self):
        plan = _Plan((parse("1/x"),), ("x",), TOL, "t")
        with pytest.raises(DomainError) as got:
            plan.rows([[1.0], [1e-13], [0.0]])
        with pytest.raises(DomainError) as want:
            evaluate_rows(plan.exprs, ("x",), [[1.0], [1e-13], [0.0]], TOL)
        assert str(got.value) == str(want.value)
        assert got.value.subexpr is want.value.subexpr


class Recorder:
    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self, v):
        self.log.append((self.tag, v))
        return v

    def partial(self, i):
        return Recorder(self.log, self.tag + "'")


class TestWalkerKept:
    def test_an_external_keeps_the_walker_and_its_call_order(
            self, counted_compiles):
        log = []
        exprs = (External(Recorder(log, "a"), (Var("x"),)) + Var("y"),
                 External(Recorder(log, "b"), (Var("y"),)))
        plan = _Plan(exprs, ("x", "y"), 0.0, "t")
        assert plan._kernel is None and counted_compiles == []
        got = plan.rows([[1.0, 2.0], [3.0, 4.0]])
        assert log == [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)]
        assert got.tolist() == [[3.0, 2.0], [7.0, 4.0]]

    def test_an_unbound_name_keeps_the_walker(self, counted_compiles):
        plan = _Plan((parse("x+1"), parse("x*w")), ("x",), 0.0, "t")
        assert plan._kernel is None and counted_compiles == []
        with pytest.raises(UnboundVariableError) as ei:
            plan([2.0])
        assert ei.value.name == "w"


class TestCodeShared:
    def test_equal_shapes_compile_each_chunk_once(self, counted_compiles):
        a, b = many_body(8, 1), many_body(8, 2)
        plan_a = a._field_plan
        made = list(counted_compiles)
        assert len(made) > 1
        assert all(re.fullmatch(r"<plan field #\d+>", f) for f in made)
        plan_b = b._field_plan
        assert counted_compiles == made
        row = spread_rows(8, 5, 1)
        assert plan_a.rows(row).tobytes() != plan_b.rows(row).tobytes()
        for sys_, plan in ((a, plan_a), (b, plan_b)):
            want = evaluate_rows(plan.exprs, sys_._names, row, TOL)
            assert plan.rows(row).tobytes() == want.tobytes()

    def test_constants_are_data(self, counted_compiles):
        a = _Plan((parse("x*2.0+y"),), ("x", "y"), 0.0, "one")
        b = _Plan((parse("x*3.0+y"),), ("x", "y"), 0.0, "two")
        assert len(counted_compiles) == 1
        assert a([1.0, 1.0]) == [3.0] and b([1.0, 1.0]) == [4.0]


# The expression grammar, with constants and arguments at the edges of
# every check: signed zeros, values within the tolerance, overflow.
_EDGES = [0.0, -0.0, 1e-13, -1e-13, 0.5, -1.5, 2.0, 3.0, 1e200, -1e200]
_LEAVES = st.one_of(st.sampled_from([Var("x"), Var("y"), Var("z")]),
                    st.sampled_from(_EDGES).map(Const))
_GRAMMAR = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.tuples(kids, kids).map(lambda t: expr.Add(*t)),
    st.tuples(kids, kids).map(lambda t: expr.Sub(*t)),
    st.tuples(kids, kids).map(lambda t: expr.Mul(*t)),
    st.tuples(kids, kids).map(lambda t: expr.Div(*t)),
    st.tuples(kids, kids).map(lambda t: expr.Pow(*t)),
    kids.map(expr.Neg),
    st.tuples(st.sampled_from(sorted(FUNCTION_NAMES)), kids).map(
        lambda t: call(*t))), max_leaves=12)


class TestGrammar:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_GRAMMAR, min_size=1, max_size=3),
           st.lists(st.tuples(*[st.sampled_from(_EDGES)] * 3), min_size=1,
                    max_size=4),
           st.sampled_from([0.0, TOL]))
    def test_equal_outputs_or_equal_errors(self, exprs, rows, tol):
        # the nodes are built unfolded, so constant-only operations and
        # repeated subtrees reach the plan too
        plan = _Plan(exprs + [exprs[0]], ("x", "y", "z"), tol, "t")
        for row in rows:
            assert_walked(plan, row)
