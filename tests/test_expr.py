import math
import threading

import numpy as np
import pytest

from hjreduce import expr as expr_module
from hjreduce.cli import load_scenario
from hjreduce.expr import (Add, Call, Const, Div, DomainError, Expr, External,
                           Mul, Neg, ParseError, Pow, Sub,
                           UnboundVariableError, UnknownFunctionError, Var,
                           call, differentiate, evaluate, free_vars, parse,
                           substitute)
from oracles import fd_derivative, random_expr


def ev(text, **bindings):
    return evaluate(parse(text), bindings)


# Printed first partials of the bundled Hamiltonians, every coordinate
# and momentum.  Caching variable sets must not change a derivative tree.
BUNDLED_DERIVATIVES = {
    "calogero": {
        "q1": "-(2.0*(q1-q2))/((q1-q2)^2.0)^2.0",
        "q2": "2.0*(q1-q2)/((q1-q2)^2.0)^2.0",
        "p1": "0.5*(2.0*p1)",
        "p2": "0.5*(2.0*p2)",
    },
    "heavytop": {
        "theta": "0.5*((2.0*(pphi-ppsi*cos(theta))*-(ppsi*-sin(theta))"
                 "*sin(theta)^2.0-(pphi-ppsi*cos(theta))^2.0"
                 "*(2.0*sin(theta)*cos(theta)))/(sin(theta)^2.0)^2.0)"
                 "+-sin(theta)",
        "phi": "0.0",
        "psi": "0.0",
        "ptheta": "0.5*(2.0*ptheta)",
        "pphi": "0.5*(2.0*(pphi-ppsi*cos(theta))*sin(theta)^2.0"
                "/(sin(theta)^2.0)^2.0)",
        "ppsi": "0.5*(2.0*(pphi-ppsi*cos(theta))*-cos(theta)*sin(theta)^2.0"
                "/(sin(theta)^2.0)^2.0+2.0*ppsi)",
    },
}


class TestParse:
    def test_precedence_and_associativity(self):
        assert ev("2+3*4") == 14
        assert ev("2*3+4") == 10
        assert ev("2-3-4") == -5
        assert ev("2^3^2") == 512  # right-associative
        assert ev("-2^2") == -4    # unary minus binds looser than ^
        assert ev("2^-1") == 0.5
        assert ev("12/3/2") == 2
        assert ev("(2+3)*4") == 20

    def test_functions_and_numbers(self):
        assert ev("sin(0)") == 0
        assert ev("exp(0)+cos(0)") == 2
        assert ev("1.5e2") == 150
        assert ev(".5") == 0.5
        assert ev("sqrt(2)") == math.sqrt(2)
        assert abs(ev("arctan(1)") - math.pi / 4) < 1e-15
        assert ev("log(exp(2))") == pytest.approx(2, abs=1e-15)

    def test_variables(self):
        assert ev("x*y+z", x=2, y=3, z=4) == 10
        assert ev("theta1^2", theta1=3) == 9

    def test_parse_errors_carry_offsets(self):
        with pytest.raises(ParseError) as ei:
            parse("1+*2")
        assert ei.value.offset == 2
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("(1+2")
        with pytest.raises(ParseError):
            parse("1+2)")
        with pytest.raises(ParseError):
            parse("1 2")

    def test_non_finite_literal_rejected(self):
        # 1e400 reads as inf, and inf*0 would evaluate to NaN
        with pytest.raises(ParseError) as ei:
            parse("1e400*q^2")
        assert ei.value.offset == 0
        assert "out of range" in str(ei.value)
        with pytest.raises(ParseError) as ei:
            parse("q + -1e999")
        assert ei.value.offset == 5
        assert ev("1e300*q", q=2.0) == 2e300

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("sinh(1)")
        # an unknown name *not* applied is just a variable
        assert ev("sinh+1", sinh=2) == 3

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            ev("x+y", x=1)


class TestEvaluate:
    def test_domain_errors(self):
        for text in ("1/0", "sqrt(-1)", "log(0)", "log(-2)", "0^-1"):
            with pytest.raises(DomainError):
                ev(text)

    def test_singular_tol_widens_division_guard(self):
        e = parse("1/x")
        # exact zero always raises; a tiny denominator only raises once
        # singular_tol covers it
        assert evaluate(e, {"x": 1e-15}) == 1.0 / 1e-15
        with pytest.raises(DomainError):
            evaluate(e, {"x": 1e-15}, 1e-12)
        assert evaluate(e, {"x": 0.5}, 1e-12) == 2.0

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            ev("(-2)^0.5")
        assert ev("(-2)^2") == 4
        assert ev("(-2)^3") == -8


class TestDifferentiate:
    def test_random_vs_central_differences(self):
        rng = np.random.default_rng(7)
        names = ["x", "y"]
        checked = 0
        while checked < 300:
            e = random_expr(rng, names, 3)
            d = differentiate(e, "x")
            pt = {n: float(rng.uniform(-1.5, 1.5)) for n in names}

            def f(x, pt=pt, e=e):
                b = dict(pt)
                b["x"] = x
                return evaluate(e, b)

            try:
                sym = evaluate(d, pt)
                num = fd_derivative(f, pt["x"])
            except DomainError:
                continue
            if abs(sym) > 1e4 or abs(evaluate(e, pt)) > 1e4:
                continue
            assert abs(sym - num) <= 1e-6 * (1 + abs(sym)), str(e)
            checked += 1

    def test_known_rules(self):
        assert str(differentiate(parse("x^2"), "x")) != ""
        d = differentiate(parse("sin(x)*cos(x)"), "x")
        # d/dx sin x cos x = cos(2x)
        for x in (0.0, 0.3, 1.1, -0.7):
            assert evaluate(d, {"x": x}) == pytest.approx(math.cos(2 * x),
                                                          abs=1e-14)

    def test_constant_and_foreign_var(self):
        assert evaluate(differentiate(parse("y*3"), "x"), {"y": 5}) == 0

    def test_bundled_hamiltonians(self):
        for name, expected in BUNDLED_DERIVATIVES.items():
            doc = load_scenario(name)
            h = parse(doc["hamiltonian"])
            assert list(expected) == doc["coords"] + doc["momenta"]
            for var, text in expected.items():
                assert str(differentiate(h, var)) == text, (name, var)

    def test_each_variable_set_computed_once(self, monkeypatch):
        computed = []  # holds the nodes, so no id is reused
        node_vars = expr_module._node_vars

        def counting(node):
            computed.append(node)
            return node_vars(node)

        monkeypatch.setattr(expr_module, "_node_vars", counting)
        n = 400
        e = parse("+".join(f"{i + 2}*x{i % 7}^2" for i in range(n)))
        differentiate(e, "x0")
        ids = [id(node) for node in computed]
        assert len(ids) == len(set(ids))
        assert len(ids) == 2 * n + (n - 1)  # every inner node of e, once
        differentiate(e, "x1")
        assert len(computed) == len(ids)

    def test_deep_sum(self):
        # differentiate takes two frames per tree level, so 490 terms fit
        # the default recursion limit only if the variable-set cache adds
        # no depth.  A new thread starts on an empty stack, as a script
        # does; the test runner's own frames would count otherwise.
        n = 490
        e = parse("+".join(f"{i + 1}*x^2" for i in range(n)))
        out = []
        worker = threading.Thread(
            target=lambda: out.append(differentiate(e, "x")))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(out) == 1, "differentiate raised"
        assert evaluate(out[0], {"x": 1.0}) == n * (n + 1)


class TestPrinter:
    def test_round_trip_fixpoint_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            e = random_expr(rng, ["a", "b"], 3)
            s = str(e)
            again = parse(s)
            assert str(again) == s
            pt = {"a": 0.37, "b": -1.21}
            try:
                v1 = evaluate(e, pt)
            except DomainError:
                continue
            assert evaluate(again, pt) == v1

    def test_negative_constant_round_trip(self):
        # prints like 0.5*q--0.5*q and must reparse to the same tree
        e = parse("0.5*q--0.5*q")
        assert str(parse(str(e))) == str(e)
        assert evaluate(e, {"q": 3.0}) == 3.0

    def test_parenthesization(self):
        assert str(parse("(a+b)*c")) == "(a+b)*c"
        assert str(parse("a+b*c")) == "a+b*c"
        assert str(parse("a^(b+c)")) == "a^(b+c)"
        assert str(parse("(a^b)^c")) == "(a^b)^c"  # ^ is right-associative


class TestSubstituteAndFreeVars:
    def test_substitute_folds_constants(self):
        e = parse("x^2+y")
        out = substitute(e, {"x": Const(3.0)})
        # 3^2 folds to a constant
        assert evaluate(out, {"y": 1.0}) == 10.0
        assert free_vars(out) == {"y"}

    def test_substitute_expression(self):
        e = parse("p1^2+p2^2")
        out = substitute(e, {"p1": parse("u+v"), "p2": parse("u-v")})
        assert evaluate(out, {"u": 1.0, "v": 2.0}) == (3.0) ** 2 + 1.0

    def test_free_vars(self):
        assert free_vars(parse("sin(x)*y+2")) == {"x", "y"}
        assert free_vars(Const(4)) == set()

    def test_free_vars_returns_a_fresh_set(self):
        e = parse("x*y")
        for out in (free_vars(e), e.free_vars()):
            out.discard("x")
            out.add("z")
        assert free_vars(e) == {"x", "y"}
        assert str(differentiate(e, "x")) == "y"


class TestSmartConstructors:
    def test_folding(self):
        assert isinstance(Const(2) + Const(3), Const)
        assert str(Var("x") * Const(1.0)) == "x"
        assert str(Var("x") + Const(0.0)) == "x"
        assert isinstance(Var("x") ** Const(1.0), Var)
        assert str(Const(0.0) * Var("x")) == "0.0"

    def test_call_rejects_unknown(self):
        with pytest.raises(ValueError):
            call("nope", Var("x"))

    @pytest.mark.parametrize("node, field", [
        (Const(2.0), "value"), (Var("x"), "name"),
        *[(cls(Const(2.0), Var("x")), "left")
          for cls in (Add, Sub, Mul, Div, Pow)],
        (Neg(Var("x")), "arg"), (Call("sin", Var("x")), "arg"),
        (External(math.hypot, (Var("x"), Var("y"))), "args")],
        ids=lambda v: type(v).__name__ if isinstance(v, Expr) else v)
    def test_nodes_immutable(self, node, field):
        for name in (field, "_vars", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, Const(3.0))

    def test_pow_fold(self):
        e = Pow(Const(2.0), Const(10.0))
        assert evaluate(e, {}) == 1024.0
        assert isinstance(Const(2.0) ** Const(10.0), Const)

    def test_call_node(self):
        with pytest.raises(ValueError):
            Call("zeta", Const(1.0))
