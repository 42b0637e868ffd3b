"""``expr.evaluate_rows`` against the per-row loop it replaces."""

import numpy as np
import pytest

from hjreduce.expr import (Const, DomainError, External, Var, call,
                           evaluate_rows)

from oracles import random_expr


def per_row(exprs, names, rows, tol=0.0):
    """The loop that evaluate_rows replaces, as the reference."""
    return np.array([[e.evaluate(dict(zip(names, row)), tol) for e in exprs]
                     for row in rows]).reshape(len(rows), len(exprs))


class TestEvaluateRows:
    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    def test_bit_equal_to_per_row_evaluate(self, tol):
        rng = np.random.default_rng(11)
        names = ("x", "y", "z")
        exprs = [random_expr(rng, names, 4) for _ in range(40)]
        rows = rng.uniform(-2.0, 2.0, size=(30, 3))
        got = evaluate_rows(exprs, names, rows, tol)
        assert got.shape == (30, 40)
        assert got.tobytes() == per_row(exprs, names, rows, tol).tobytes()

    def test_singular_tol_reaches_every_row(self):
        e = [Const(1.0) / (Var("x") - Var("y"))]
        rows = [(1.0, 0.0), (1.0, 1.0 - 1e-13)]
        assert evaluate_rows(e, ("x", "y"), rows)[1, 0] > 1e12
        with pytest.raises(DomainError):
            evaluate_rows(e, ("x", "y"), rows, 1e-12)

    def test_first_error_is_the_loops(self):
        # row 1 fails at sqrt(y); row 2 would fail earlier in the list
        x, y = Var("x"), Var("y")
        exprs = [call("log", x), x + y, call("sqrt", y)]
        rows = [(1.0, 1.0), (2.0, -1.0), (-1.0, -1.0)]
        with pytest.raises(DomainError) as ref:
            per_row(exprs, ("x", "y"), rows)
        with pytest.raises(DomainError) as got:
            evaluate_rows(exprs, ("x", "y"), rows)
        assert str(got.value) == str(ref.value) == (
            "sqrt of a negative number in 'sqrt(y)'")

    def test_point_by_point_order(self):
        calls = []

        class Recorder:
            def __init__(self, tag):
                self.tag = tag

            def __call__(self, v):
                calls.append((self.tag, v))
                return v

        exprs = [External(Recorder("a"), (Var("x"),)),
                 External(Recorder("b"), (Var("y"),))]
        evaluate_rows(exprs, ("x", "y"), [(1.0, 2.0), (3.0, 4.0)])
        assert calls == [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)]

    def test_zero_rows(self):
        # np.atleast_2d([]) would be one empty row, shape (1, 0)
        exprs = [Var("x"), Var("y")]
        assert evaluate_rows(exprs, ("x", "y"), []).shape == (0, 2)
        assert evaluate_rows(exprs, ("x", "y"), np.empty((0, 2))).shape == (0, 2)
        assert evaluate_rows([], ("x",), [(1.0,)]).shape == (1, 0)

    def test_a_repeated_name_takes_its_later_value(self):
        assert evaluate_rows([Var("x")], ("x", "x"), [(1.0, 2.0)])[0, 0] == 2.0
