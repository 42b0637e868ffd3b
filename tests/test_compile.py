"""``expr.compile`` kernels against the tree walker, and against sympy."""

import math
import re
import struct

import numpy as np
import pytest

from hjreduce.expr import (Const, DomainError, External, UnboundVariableError,
                           Var, call, compile, differentiate, evaluate, parse)

from oracles import random_expr


def bits(v):
    """Type and IEEE bit pattern, so NaN and signed zeros compare too."""
    return type(v), struct.pack("<d", v)


def walk(exprs, names, args):
    """The tree walker's values or its error, as the reference."""
    b = dict(zip(names, args))
    try:
        return [bits(evaluate(e, b)) for e in exprs], None
    except Exception as err:  # compared with the kernel's below
        return None, err


def run(exprs, names, args):
    try:
        return [bits(v) for v in compile(exprs, names)(*args)], None
    except Exception as err:
        return None, err


def assert_same(exprs, names, args):
    want, want_err = walk(exprs, names, args)
    got, got_err = run(exprs, names, args)
    assert got == want
    assert type(got_err) is type(want_err)
    assert str(got_err) == str(want_err)
    assert getattr(got_err, "subexpr", None) is getattr(want_err, "subexpr",
                                                        None)
    return want_err


class TestBitEqualToTheWalker:
    def test_random_expressions_and_derivatives(self):
        rng = np.random.default_rng(5)
        names = ("x", "y", "z")
        for _ in range(60):
            e = random_expr(rng, names, 5)
            e_x = differentiate(e, "x")
            exprs = [e, e_x, differentiate(e_x, "y"), differentiate(e, "z")]
            for args in rng.uniform(-2.0, 2.0, size=(4, 3)):
                assert assert_same(exprs, names, tuple(args)) is None

    def test_single_expression_gives_a_single_value(self):
        e = parse("x*y+1")
        assert compile(e, ["x", "y"])(2.0, 3.0) == 7.0
        assert compile([e], ["x", "y"])(2.0, 3.0) == (7.0,)

    def test_argument_types_and_non_finite_constants(self):
        # float() conversion as the walker's, a folded inf constant gives
        # NaN at q = 0 in both, and integer and numpy arguments convert
        e = parse("1e200*1e200*q + p")
        for args in [(0.0, 1.0), (np.float64(2.0), 3), (-0.0, -0.0)]:
            assert assert_same([e, -Var("p")], ["q", "p"], args) is None

    def test_each_kernel_has_its_own_file_name(self):
        # profiles key functions by file, line and name: kernels of the
        # same name must still differ
        e = parse("x*y+1")
        files = [compile(e, ["x", "y"], "pbranch g_p").__code__.co_filename
                 for _ in range(2)]
        assert files[0] != files[1]
        assert all(re.fullmatch(r"<kernel pbranch g_p #\d+>", f)
                   for f in files)
        default = compile(e, ["x", "y"]).__code__.co_filename
        assert default.startswith("<kernel kernel #")

    def test_a_name_listed_twice_takes_the_later_argument(self):
        assert compile(Var("x"), ["x", "x"])(1.0, 2.0) == 2.0
        assert_same([Var("x") + 1.0], ["x", "x"], (1.0, 2.0))


class TestSameErrors:
    @pytest.mark.parametrize("text, args, message", [
        ("x/(y-y)", (1.0, 2.0), "division by zero"),
        ("x/0.0*y", (1.0, 2.0), "division by zero"),
        ("x^(-2)", (0.0, 1.0), "zero raised to a negative power"),
        ("x^y", (0.0, -1.0), "zero raised to a negative power"),
        ("x^y", (-8.0, 0.5), "invalid power"),
        ("x^y", (10.0, 400.0), "power overflow"),
        ("sqrt(x)", (-1.0, 0.0), "sqrt of a negative number"),
        ("log(x-y)", (1.0, 1.0), "log of a non-positive number"),
        ("exp(x)", (1000.0, 0.0), "exp overflow"),
        ("sin(x*1e200*1e200)", (1.0, 0.0), "sin domain error"),
        # NaN passes the math functions without an exception
        ("x^y", (math.nan, 2.0), "power overflow"),
        ("exp(x)", (math.nan, 0.0), "exp overflow"),
        ("sqrt(x*1e200*1e200-y*1e200*1e200)", (1.0, 1.0), "sqrt overflow"),
    ])
    def test_each_failing_case(self, text, args, message):
        err = assert_same([parse(text)], ["x", "y"], args)
        assert isinstance(err, DomainError)
        assert str(err).startswith(message)

    def test_division_fails_in_its_denominator_first(self):
        # both operands fail; the walker evaluates the denominator first
        e = call("sqrt", Var("x")) / call("log", Var("x"))
        err = assert_same([e], ["x"], (-1.0,))
        assert err.subexpr is e.right

    def test_unbound_variable_where_the_walker_reaches_it(self):
        e = call("sqrt", Var("x")) + Var("w")
        err = assert_same([e], ["x"], (4.0,))
        assert isinstance(err, UnboundVariableError) and err.name == "w"
        assert isinstance(assert_same([e], ["x"], (-4.0,)), DomainError)


class Recorder:
    """An External function that logs its calls and returns numpy floats."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self, *args):
        self.log.append((self.tag, args))
        return np.float64(len(self.log))


class TestExternal:
    def test_calls_in_the_walkers_order_and_never_merged(self):
        x, y = Var("x"), Var("y")
        walker_log, kernel_log = [], []
        trees = []
        for log in (walker_log, kernel_log):
            f = External(Recorder(log, "f"), (x, y))
            g = External(Recorder(log, "g"), (y,))
            # f is shared by identity; the division reads g first
            trees.append([f + f * x, (f - 1.0) / (g + 2.0), g])
        want = [evaluate(e, {"x": 1.5, "y": -2.0}) for e in trees[0]]
        got = compile(trees[1], ["x", "y"])(1.5, -2.0)
        assert [bits(v) for v in got] == [bits(v) for v in want]
        assert kernel_log == walker_log
        assert [tag for tag, _ in walker_log] == ["f", "f", "g", "f", "g"]


class TestCompilesWhatTheWalkerCannot:
    def test_a_variable_name_that_is_python_source(self):
        name = "__import__('os').system('exit 1') or x"
        e = Var(name) * 2.0
        assert compile(e, [name])(1.5) == 3.0
        with pytest.raises(UnboundVariableError) as ei:
            compile(e, ["x"])(1.5)
        assert ei.value.name == name

    def test_a_five_thousand_term_sum(self):
        names = ("a", "b", "c")
        args = (0.3, -1.7, 2.9)
        e = Var("a")
        want = args[0]
        for i in range(1, 5000):
            coeff = 1.0 + i / 7.0
            e = e + Const(coeff) * Var(names[i % 3])
            want = want + coeff * args[i % 3]
        with pytest.raises(RecursionError):
            evaluate(e, dict(zip(names, args)))
        assert bits(compile(e, names)(*args)) == bits(want)


class TestAgainstSympy:
    @pytest.mark.parametrize("text", [
        "x^2*y - 3*x/(1+y^2)",
        "sin(x)*cos(y) + tan(x*y)",
        "exp(-x^2)*sqrt(1+y^2) - log(2+sin(x))",
        "arctan(x/(1.5+y^2))^3",
        "1/(x-y)^2 + 0.5*(x^2+y^2)",
    ])
    def test_lambdify_agrees(self, text):
        sympy = pytest.importorskip("sympy")
        sx, sy = sympy.symbols("x y")
        sym = sympy.sympify(text.replace("^", "**").replace("arctan", "atan"),
                            locals={"x": sx, "y": sy})
        reference = sympy.lambdify((sx, sy), sym, modules="math")
        kernel = compile(parse(text), ["x", "y"])
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-2.0, 2.0, size=(20, 2)):
            want = reference(float(x), float(y))
            assert kernel(x, y) == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert not math.isnan(want)
