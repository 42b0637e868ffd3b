"""``expr.compile`` with a singular tolerance and past one chunk, against
the tree walker: the same bits and the same errors on every side of a
chunk boundary, and one compile per chunk source."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjreduce import expr
from hjreduce.expr import (FUNCTION_NAMES, Const, DomainError, Var, call,
                           compile, compile_newton, differentiate,
                           evaluate_rows, parse)
from hjreduce.hj import heavy_top_system
from hjreduce.phase_space import FLOW_SINGULAR_TOL, HamiltonianSystem

from oracles import assert_walked, bits

TOL = FLOW_SINGULAR_TOL


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


def sweep(kernel, rows):
    """The kernel at every row, as evaluate_rows lays its values out."""
    return np.array([kernel(*row) for row in rows.tolist()], dtype=float)


def field(sys_):
    return (*sys_._dh_dp, *sys_._dh_dq)


def n_ops(exprs, names):
    """The operations that compute, after merging."""
    ops = expr._merge(exprs, {v: i for i, v in enumerate(names)})[0]
    return len(expr._steps(ops))


class TestBitForBit:
    @pytest.mark.parametrize("n", [6, 16])
    def test_many_body_fields(self, n):
        sys_ = many_body(n, n)
        kernel = sys_._field_kernel
        assert "_FAILS" in kernel.__code__.co_names  # generated, not walked
        rows = spread_rows(n, 3)
        want = evaluate_rows(field(sys_), sys_._names, rows, TOL)
        assert sweep(kernel, rows).tobytes() == want.tobytes()
        want = evaluate_rows(sys_._dh_dp, sys_._names, rows, TOL)
        assert sweep(sys_._dh_dp_kernel, rows).tobytes() == want.tobytes()

    def test_the_16_body_field_merges_and_chunks(self, counted_compiles):
        # the derivative trees' distinct inner nodes merge to fewer
        # operations (q1-q2 in dh/dq1 and in dh/dq2 is one), which
        # compile in chunks of at most _CHUNK, each its own source,
        # before the function that calls them
        sys_ = many_body(16, 1)
        exprs = field(sys_)
        steps = n_ops(exprs, sys_._names)
        nodes, stack = {}, list(exprs)
        while stack:
            node = stack.pop()
            if id(node) not in nodes and not isinstance(node, (Const, Var)):
                nodes[id(node)] = node
                stack += node._children()
        assert steps < len(nodes)
        compile(exprs, sys_._names, "t", TOL)
        assert len(counted_compiles) == math.ceil(steps / expr._CHUNK) + 1 > 2

    def test_heavy_top(self):
        sys_ = heavy_top_system(1.3, 0.7, 1.1, 9.81, 0.4)
        rng = np.random.default_rng(8)
        rows = np.column_stack([rng.uniform(0.3, 2.8, 40),
                                rng.uniform(-3.0, 3.0, (40, 5)),
                                np.zeros(40)])
        for exprs, kernel in ((field(sys_), sys_._field_kernel),
                              (sys_._dh_dp, sys_._dh_dp_kernel)):
            want = evaluate_rows(exprs, sys_._names, rows, TOL)
            assert sweep(kernel, rows).tobytes() == want.tobytes()

    def test_no_expressions(self):
        assert compile((), ("x",), "t", TOL)(1.0) == ()

    def test_signed_zero_constants_stay_apart(self):
        kernel = compile((expr.Mul(Var("x"), Const(0.0)),
                          expr.Mul(Var("x"), Const(-0.0))), ("x",), "t", TOL)
        assert [bits(v) for v in kernel(2.0)] == [bits(0.0), bits(-0.0)]

    def test_a_repeated_name_takes_its_later_value(self):
        # past one chunk too: the arguments are converted once, before
        # the chunks run
        exprs = chained(expr._CHUNK + 1)
        kernel = compile(exprs, ("x", "y", "x"), "t", TOL)
        assert kernel(-1.0, 1.0, 4.0)[0] == 2.0
        assert_walked(kernel, exprs, ("x", "y", "x"), (-1.0, 1.0, 4.0), TOL)


def chained(n):
    """(sqrt(x), y, -0.0, (y+1+..+1)/(x-y)) with n operations.

    The walker evaluates sqrt(x) first and then the denominator x-y, so
    both are computed in the first chunk; the sum follows, and the
    quotient, which reads x-y, is the last operation.
    """
    x, y = Var("x"), Var("y")
    total = y
    for _ in range(n - 3):
        total = expr.Add(total, Const(1.0))
    return (call("sqrt", x), y, Const(-0.0), expr.Div(total, x - y))


# (x, y) rows: no failure; sqrt fails in the first chunk; the quotient
# fails in the last one, at both tolerances or only within TOL; both
# fail, and the walker's order makes sqrt's the error
CHAIN_ROWS = [(4.0, 1.0), (-1.0, 1.0), (2.0, 2.0), (5e-13, 0.0),
              (-1.0, -1.0), (-0.0, 3.0)]


class TestChunkBoundaries:
    @pytest.mark.parametrize("n", [expr._CHUNK, expr._CHUNK + 1,
                                   2 * expr._CHUNK + 1])
    @pytest.mark.parametrize("tol", [0.0, TOL])
    def test_the_walkers_bits_and_errors(self, n, tol, counted_compiles):
        exprs = chained(n)
        assert n_ops(exprs, ("x", "y")) == n
        kernel = compile(exprs, ("x", "y"), "t", tol)
        assert len(counted_compiles) == (1 if n <= expr._CHUNK
                                         else math.ceil(n / expr._CHUNK) + 1)
        errors = [assert_walked(kernel, exprs, ("x", "y"), row, tol)
                  for row in CHAIN_ROWS]
        assert [str(e).split(" in ")[0] if e else None for e in errors] == [
            None, "sqrt of a negative number", "division by zero",
            "division by zero" if tol else None, "sqrt of a negative number",
            None]
        assert [bits(v) for v in kernel(4.0, 1.0)] == [
            bits(2.0), bits(1.0), bits(-0.0), bits((n - 2.0) / 3.0)]

    def test_a_long_newton_equation(self, counted_compiles):
        # compile_newton's kernels of g and g_p come from the same
        # generator, their chunks inside the one Newton source
        p, y = Var("p"), Var("y")
        g = p * p - y
        for _ in range(expr._CHUNK):
            g = g + Const(1e-3) * y * p
        g_p = differentiate(g, "p")
        g_fn, gp_fn, _ = compile_newton(g, g_p, ("y", "p"), "t", 1e-12, 60,
                                        1e-12)
        assert len(counted_compiles) == 1
        assert "_g_1" in g_fn.__globals__ and "_gp_1" in g_fn.__globals__
        for args in [(2.0, 1.5), (-1.0, 0.5)]:
            assert_walked(lambda *a: (g_fn(*a), gp_fn(*a)), (g, g_p),
                          ("y", "p"), args)


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
        exprs = (parse(text), Var(names[0]))
        err = assert_walked(compile(exprs, tuple(names), "t", tol), exprs,
                            tuple(names), row, tol)
        if message is None:
            assert err is None
        else:
            assert isinstance(err, DomainError)
            assert str(err).startswith(message + " in '")

    def test_nan_from_unchecked_arithmetic_is_returned(self):
        (v,) = compile((parse("x*y-x*y"),), ("x", "y"), "t")(1e200, 1e200)
        assert math.isnan(v)

    def test_the_first_failing_expression_is_the_walkers(self):
        # both fail at this row; the walker's list order decides
        exprs = (parse("sqrt(y)"), parse("log(x)"))
        err = assert_walked(compile(exprs, ("x", "y"), "t"), exprs,
                            ("x", "y"), [0.0, -1.0])
        assert str(err) == "sqrt of a negative number in 'sqrt(y)'"

    def test_the_first_failing_row_is_the_walkers(self):
        # a sweep of the kernel raises at the first row the walker's
        # sweep raises at
        e = parse("1/x")
        rows = np.array([[1.0], [1e-13], [0.0]])
        with pytest.raises(DomainError) as got:
            sweep(compile((e,), ("x",), "t", TOL), rows)
        with pytest.raises(DomainError) as want:
            evaluate_rows((e,), ("x",), rows, TOL)
        assert str(got.value) == str(want.value)
        assert got.value.subexpr is want.value.subexpr


class TestCodeShared:
    def test_equal_shapes_compile_each_chunk_once(self, counted_compiles):
        a, b = many_body(8, 1), many_body(8, 2)
        kernel_a = a._field_kernel
        made = list(counted_compiles)
        assert len(made) > 2
        assert all(re.fullmatch(r"<kernel field #\d+>", f) for f in made)
        kernel_b = b._field_kernel
        assert counted_compiles == made
        row = spread_rows(8, 5, 1)
        assert sweep(kernel_a, row).tobytes() != sweep(kernel_b,
                                                       row).tobytes()
        for sys_, kernel in ((a, kernel_a), (b, kernel_b)):
            want = evaluate_rows(field(sys_), sys_._names, row, TOL)
            assert sweep(kernel, row).tobytes() == want.tobytes()


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
        # repeated subtrees reach the kernel too
        exprs = exprs + [exprs[0]]
        kernel = compile(exprs, ("x", "y", "z"), "t", tol)
        for row in rows:
            assert_walked(kernel, exprs, ("x", "y", "z"), row, tol)
