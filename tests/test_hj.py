import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hjreduce.expr import (Add, Call, Const, DomainError, Div, External, Mul,
                           Neg, Pow, Sub, Var, call, differentiate,
                           evaluate_rows, parse)
from hjreduce.hj import (BranchAmbiguityError, GeneratingFunction,
                         ImplicitBranchRoot, NewtonDivergenceError, OneForm,
                         PreconditionError,
                         RunningIntegral, SolveError, TabulatedAntiderivative,
                         TurningPointError, TwoForm, additive_split_check,
                         check_complete, closedness_residual, cyclic_ansatz,
                         cyclic_complete_solution, heavy_top_system,
                         hj_residual, magnetic_lagrangian_residual, mesh_grid,
                         quadrature_complete_solution, random_grid,
                         solve_heavy_top, solve_reduced_1d,
                         time_dependent_residual, time_extension)
from hjreduce import hj
from hjreduce.cli import build_system, load_scenario
from hjreduce.phase_space import HamiltonianSystem, PhasePoint
from hjreduce.reduction import build_chart, reduced_hamiltonian
from hjreduce.symmetry import TranslationAction
from oracles import fd_derivative, separate_cyclic, tree_shape, ulp

REDUCED_PAIR_H = "p^2+1/q^2"


@pytest.fixture(scope="module")
def reduced_pair():
    return HamiltonianSystem(parse(REDUCED_PAIR_H), ["q"])


@pytest.fixture(scope="module")
def pair_solution(reduced_pair):
    return solve_reduced_1d(reduced_pair.h, "q", "p", 2.0, (0.8, 5.0))


class TestGrids:
    def test_mesh_grid(self):
        g = mesh_grid([(0, 1), (10, 12)], [3, 2])
        assert g.shape == (6, 2)
        assert g[0].tolist() == [0, 10]
        assert g[-1].tolist() == [1, 12]

    def test_mesh_grid_scalar_count(self):
        assert mesh_grid([(0, 1)], 5).shape == (5, 1)

    @pytest.mark.parametrize("counts", [[7], [7, 7, 7]])
    def test_mesh_grid_needs_one_count_per_axis(self, counts):
        with pytest.raises(ValueError, match="one count per axis"):
            mesh_grid([(0, 1), (10, 12)], counts)

    def test_random_grid_seeded(self):
        a = random_grid([(-1, 1), (2, 3)], 20, seed=5)
        b = random_grid([(-1, 1), (2, 3)], 20, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (20, 2)
        assert a[:, 1].min() >= 2 and a[:, 1].max() <= 3


class TestOneForm:
    def test_exact_components(self):
        f = OneForm.exact(parse("x*y^2"), ("x", "y"))
        np.testing.assert_allclose(f.values([2.0, 3.0]), [9.0, 12.0])
        assert f.potential is not None

    def test_component_strings(self):
        f = OneForm(("x",), components=("2*x",))
        assert f.values([3.0])[0] == 6.0

    def test_zero(self):
        f = OneForm.zero(("a", "b"))
        np.testing.assert_array_equal(f.values([1.0, 2.0]), [0.0, 0.0])

    def test_requires_something(self):
        with pytest.raises(ValueError):
            OneForm(("x",))


class TestClosedness:
    def test_exact_forms_closed(self):
        f = OneForm.exact(parse("sin(x*y)"), ("x", "y"))
        grid = random_grid([(-1, 1), (-1, 1)], 25, seed=1)
        assert closedness_residual(f, grid) < 1e-14

    def test_non_closed(self):
        f = OneForm(("x", "y"), components=(Var("y"), Const(0.0)))
        grid = random_grid([(-1, 1), (-1, 1)], 25, seed=1)
        assert closedness_residual(f, grid) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("grid", [[1, 1, 3, 3], [[1, 1, 3], [3, 3, 1]],
                                      [[1], [3]]])
    def test_grid_of_the_wrong_width(self, grid):
        # a flat list is one point, not the points (1, 1) and (3, 3)
        f = OneForm(("x", "y"), ("x*y", "0"))
        with pytest.raises(ValueError,
                           match="grid points must have one entry per coordinate"):
            closedness_residual(f, grid)

    @pytest.mark.parametrize("m", [1, 2])
    def test_empty_grid_is_rejected(self, m):
        # a maximum over no points is not a residual of zero
        coords = ("x", "y")[:m]
        f = OneForm.exact(parse("x^2"), coords)
        s = HamiltonianSystem(parse("0.5*p_x^2"), coords)
        grid = np.zeros((0, m))
        with pytest.raises(ValueError, match="the grid has no points"):
            closedness_residual(f, grid)
        with pytest.raises(ValueError, match="the grid has no points"):
            magnetic_lagrangian_residual(f, TwoForm(coords, {}), grid)
        with pytest.raises(ValueError, match="the grid has no points"):
            hj_residual(s, f, grid)


class TestHJResidual:
    def test_exact_solution(self, reduced_pair):
        # W'(q) = sqrt(2 - 1/q^2) solves p^2 + 1/q^2 = 2
        form = OneForm(("q",), components=("sqrt(2-1/q^2)",))
        grid = mesh_grid([(0.8, 5.0)], [80])
        rep = hj_residual(reduced_pair, form, grid)
        assert rep.e_est == pytest.approx(2.0, abs=1e-14)
        assert rep.max_dev < 1e-14

    def test_wrong_coords_rejected(self, reduced_pair):
        form = OneForm(("z",), components=("z",))
        with pytest.raises(ValueError):
            hj_residual(reduced_pair, form, mesh_grid([(0.8, 2.0)], [5]))

    def test_non_closed_precondition(self):
        s = HamiltonianSystem(parse("0.5*(p1^2+p2^2)"), ["q1", "q2"])
        form = OneForm(("q1", "q2"), components=(Var("q2"), Const(0.0)))
        with pytest.raises(PreconditionError):
            hj_residual(s, form, random_grid([(-1, 1), (-1, 1)], 10))


class TestImplicitBranchRoot:
    """Root of p^2 + y p - a = 0; closed form (-y + sqrt(y^2+4a))/2."""

    @staticmethod
    def closed(y, a):
        return 0.5 * (-y + math.sqrt(y * y + 4 * a))

    @pytest.fixture()
    def root(self):
        g = parse("p^2+y*p-a")
        return ImplicitBranchRoot(g, "y", "p", params=("a",), branch=1)

    def test_solve_matches_closed_form(self, root):
        rng = np.random.default_rng(6)
        for _ in range(40):
            y = float(rng.uniform(-2, 2))
            a = float(rng.uniform(0.5, 3.0))
            assert root.solve((y, a)) == pytest.approx(self.closed(y, a),
                                                       rel=1e-13)

    def test_negative_branch(self):
        g = parse("p^2-a")
        r = ImplicitBranchRoot(g, "y", "p", params=("a",), branch=-1)
        assert r.solve((0.0, 4.0)) == pytest.approx(-2.0, rel=1e-13)

    def test_call_protocol(self, root):
        assert root.arity == 2
        assert root(1.0, 2.0) == pytest.approx(self.closed(1.0, 2.0))

    def test_first_partials_vs_closed_form(self, root):
        dy = root.partial(0)
        da = root.partial(1)
        for y, a in ((0.3, 1.0), (-1.2, 2.5), (1.7, 0.8)):
            s = math.sqrt(y * y + 4 * a)
            assert dy(y, a) == pytest.approx(0.5 * (-1 + y / s), rel=1e-12)
            assert da(y, a) == pytest.approx(1.0 / s, rel=1e-12)

    def test_first_partials_vs_fd(self, root):
        dy = root.partial(0)
        assert dy(0.4, 1.3) == pytest.approx(
            fd_derivative(lambda y: root.solve((y, 1.3)), 0.4), abs=1e-8)

    def test_second_partials_vs_fd(self, root):
        dyy = root.partial(0).partial(0)
        dya = root.partial(0).partial(1)
        got = dyy(0.4, 1.3)
        num = fd_derivative(lambda y: root.partial(0)(y, 1.3), 0.4)
        assert got == pytest.approx(num, abs=1e-7)
        got = dya(0.4, 1.3)
        num = fd_derivative(lambda a: root.partial(0)(0.4, a), 1.3)
        assert got == pytest.approx(num, abs=1e-7)

    def test_third_partials_not_implemented(self, root):
        with pytest.raises(NotImplementedError):
            root.partial(0).partial(0).partial(0)

    def test_stray_variable_is_a_precondition(self):
        with pytest.raises(PreconditionError, match="reads 'a', 't'"):
            ImplicitBranchRoot(parse("p^2+sin(t)-a"), "y", "p")

    def test_no_root_raises_turning_point(self):
        g = parse("p^2+1")
        r = ImplicitBranchRoot(g, "y", "p", branch=1)
        with pytest.raises(TurningPointError):
            r.solve((0.0,))

    def test_bracket_bisects_then_hands_off_to_newton(self):
        # bisection stops where |g| first meets the root tolerance and
        # starts the generated Newton there, sign 0.0: no branch side
        root = ImplicitBranchRoot(parse("p^2-2-y"), "y", "p")
        newton, seen = root._newton, []

        def recorded(*args):
            seen.append(args)
            return newton(*args)

        root._newton = recorded
        p = root.solve((0.0,))
        ((y, x, sign),) = seen
        assert (y, sign) == (0.0, 0.0)
        assert 0.0 < abs(x * x - 2.0) <= 1e-12
        assert p == newton(0.0, x, 0.0)
        assert ulp(p, math.sqrt(2.0)) <= 1
        # a Newton that gives up leaves the bisection point
        root._newton = lambda *args: None
        assert root._bracket_solve((0.0,)) == x

    def test_bracket_exact_zero_returns_at_once(self):
        root = ImplicitBranchRoot(parse("2*p-1"), "y", "p")
        root._newton = None  # not called: the first midpoint is the root
        assert root._bracket_solve((0.0,)) == 0.5

    def test_bracket_collapse_is_newton_divergence(self):
        # g changes sign between two adjacent doubles without a zero:
        # no double holds p^2 == 2, and |g| there is about 1e15
        root = ImplicitBranchRoot(parse("1/(p^2-2)"), "y", "p", branch=1)
        with pytest.raises(NewtonDivergenceError,
                           match="^pbranch: no convergence to tol 1.0e-12$"):
            root.solve((0.0,))

    def test_pole_in_the_bracket_is_the_collapse_error(self):
        # 1/(p-1.3) changes sign across a pole that bisection lands on;
        # 1/(p^2-2) across one that it cannot: the same error for both
        messages = []
        for g in ("1/(p-1.3)", "1/(p^2-2)"):
            root = ImplicitBranchRoot(parse(g), "y", "p", branch=1)
            with pytest.raises(NewtonDivergenceError) as ei:
                root.solve((0.0,))
            messages.append(str(ei.value))
        assert messages == ["pbranch: no convergence to tol 1.0e-12"] * 2

    def test_far_end_outside_the_domain_is_a_turning_point(self):
        # g > 0 on [0, 1]; the far end 2 leaves sqrt's domain first
        root = ImplicitBranchRoot(parse("sqrt(1-p)+0.5"), "y", "p", branch=1)
        with pytest.raises(TurningPointError, match="no momentum root"):
            root.solve((0.0,))

    def test_partial_with_zero_g_p_is_a_turning_point(self):
        # the root p = 0 of p^2 - y^2 at y = 0: the kernel succeeds and
        # reads g_p = 0
        root = ImplicitBranchRoot(parse("p^2-y^2"), "y", "p")
        with pytest.raises(TurningPointError,
                           match="implicit derivative at a turning point"):
            root.partial(0)(0.0)

    def test_partial_domain_error_past_g_p_raises_again(self):
        # g_y = sqrt(y) + y*(0.5/sqrt(y)) divides by zero at y = 0, where
        # g_p = 1: not a turning point, so the walker's error stands
        root = ImplicitBranchRoot(parse("p-1+y*sqrt(y)"), "y", "p")
        assert root(0.0) == 1.0
        with pytest.raises(DomainError, match="division by zero"):
            root.partial(0)(0.0)

    def test_anchors_warm_start(self, root):
        ys = np.linspace(-1, 1, 11)
        root.set_anchors(ys, [self.closed(y, 1.0) for y in ys])
        assert root.solve((0.37, 1.0)) == pytest.approx(
            self.closed(0.37, 1.0), rel=1e-13)

    def test_explicit_guess(self, root):
        assert root._chain((0.5, 1.0), 0.6) == pytest.approx(
            self.closed(0.5, 1.0), rel=1e-13)

    def test_same_solve_order_same_bits(self):
        # Each solve starts Newton from the root before it, so a root's
        # last bits depend on earlier solves and output bytes rest on each
        # command solving in a fixed order: two fresh roots fed the same
        # sequence must agree bit for bit.
        g = parse("0.5*(p^2+1.3*q^2)+0.2*q^4-0.9")
        ys = np.random.default_rng(3).permutation(np.linspace(-1, 1, 997))
        first, second = (ImplicitBranchRoot(g, "q", "p", branch=1)
                         for _ in range(2))
        a = [first.solve((y,)) for y in ys]
        b = [second.solve((y,)) for y in ys]
        assert a == b


class TestTableRootMemo:
    """A root with an anchor table is a pure function of its arguments."""

    G = "p^2+y*p-a"
    ANCHORS = np.linspace(-1.0, 1.0, 11)
    POINTS = np.linspace(-0.95, 0.95, 40).tolist()

    @classmethod
    def table_root(cls):
        root = ImplicitBranchRoot(parse(cls.G), "y", "p", params=("a",))
        root.set_anchors(cls.ANCHORS, [TestImplicitBranchRoot.closed(y, 1.0)
                                       for y in cls.ANCHORS])
        return root

    @pytest.fixture(scope="class")
    def alone(self):
        """Each point's root from a root that solves nothing else."""
        return [self.table_root().solve((y, 1.0)).hex() for y in self.POINTS]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 39), min_size=1, max_size=120))
    def test_any_order_gives_the_same_bits(self, alone, picks):
        # repeats hit the memo, and a cap of 8 clears it on the way
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hj, "_MEMO_CAP", 8)
            root = self.table_root()
            got = [root.solve((self.POINTS[i], 1.0)).hex() for i in picks]
            assert len(root._memo) <= 8
        assert got == [alone[i] for i in picks]

    def test_each_parameter_has_its_own_root(self):
        root = self.table_root()
        for a in (1.0, 2.5, 1.0, 2.5):
            assert root.solve((0.37, a)) == pytest.approx(
                TestImplicitBranchRoot.closed(0.37, a), rel=1e-13)
        assert list(root._memo) == [(0.37, 1.0), (0.37, 2.5)]

    def test_list_and_array_arguments(self):
        root = self.table_root()
        want = root.solve((0.37, 1.0))
        assert root.solve([0.37, 1.0]) == want
        assert root.solve(np.array([0.37, 1.0])) == want
        assert root(np.float64(0.37), 1) == want
        assert list(root._memo) == [(0.37, 1.0)]

    def test_set_anchors_clears_the_memo(self):
        root = self.table_root()
        root.solve((0.37, 1.0))
        assert root._memo
        root.set_anchors(self.ANCHORS, [TestImplicitBranchRoot.closed(y, 1.0)
                                        for y in self.ANCHORS])
        assert root._memo == {}

    def test_anchors_are_the_sorted_inputs(self):
        ys = np.array([0.5, -1.0, 0.25, 1e-300, -0.0])
        ps = np.array([2.0, -3.5, 0.1, 7.0, 1.5])
        root = ImplicitBranchRoot(parse(self.G), "y", "p", params=("a",))
        root.set_anchors(ys.tolist(), ps)
        order = np.argsort(ys)
        for got, want in zip(root._anchors, (ys[order], ps[order])):
            assert got.typecode == "d"
            assert got.tobytes() == want.tobytes()

    def test_one_newton_run_per_distinct_argument(self, monkeypatch):
        # one _chain call per solve, with one start: the nearest anchor
        root = self.table_root()
        runs, starts = [], []
        newton, chain = root._newton, ImplicitBranchRoot._chain
        root._newton = lambda *a: (runs.append(a[:-2]), newton(*a))[1]
        monkeypatch.setattr(ImplicitBranchRoot, "_chain", lambda self, a, g: (
            starts.append(g), chain(self, a, g))[1])
        for args in ((0.37, 1.0), (0.5, 1.0), (0.37, 1.0), (0.37, 2.0),
                     (0.5, 1.0)):
            root.solve(args)
        assert runs == [(0.37, 1.0), (0.5, 1.0), (0.37, 2.0)]
        ys, ps = root._anchors
        assert starts == [ps[7], ps[8], ps[7]]
        assert root._last is None


class TestRootKernels:
    def test_root_paths_never_walk_a_tree(self, monkeypatch):
        # solves, first and second partials and the quadrature table (its
        # array Newton included) run on compiled kernels alone, with the
        # same bits as before
        g = parse("0.5*p^2+0.3*y^4/(1+a^2)-a")

        def values():
            root = ImplicitBranchRoot(g, "y", "p", params=("a",))
            d_y = root.partial(0)
            sol = solve_reduced_1d(parse("0.5*p^2+0.3*y^4"), "y", "p", 1.0,
                                   (-1.0, 1.0), n_nodes=101)
            return [root.solve((0.4, 1.3)), d_y(0.4, 1.3),
                    d_y.partial(1)(-0.2, 0.9), sol.table(0.33),
                    sol.root(0.71), sol.table.derivs.tolist(),
                    sol.table.values.tolist()]

        want = values()

        def walked(*args):
            raise AssertionError("the tree walker was entered")

        for cls in (Const, Var, Add, Sub, Mul, Div, Pow, Neg, Call, External):
            monkeypatch.setattr(cls, "_ev", walked)
        assert values() == want


class FnIntegrand:
    """Plain-function integrand adapter for RunningIntegral tests."""

    def __init__(self, f, partials=()):
        self.f = f
        self.arity = 1 + len(partials)
        self.partials = partials

    def __call__(self, *args):
        return self.f(*args)

    def partial(self, i):
        return self.partials[i]


class TestRunningIntegral:
    def test_vs_scipy_quad(self):
        f = FnIntegrand(lambda y: math.exp(-y * y))
        w = RunningIntegral(f, 0.0, 2.0)
        base = w.base
        for y in (0.0, 0.31, 1.0, 1.73, 2.0):
            ref = quad(lambda s: math.exp(-s * s), base, y,
                       epsabs=1e-13)[0]
            assert w(y) == pytest.approx(ref, abs=1e-9)

    def test_signed_below_base(self):
        f = FnIntegrand(lambda y: 1.0 + 0.0 * y)
        w = RunningIntegral(f, -1.0, 1.0)
        assert w.base == 0.0
        assert w(-0.5) == pytest.approx(-0.5, abs=1e-13)
        assert w(0.5) == pytest.approx(0.5, abs=1e-13)

    def test_outside_range(self):
        f = FnIntegrand(lambda y: y)
        w = RunningIntegral(f, 0.0, 1.0)
        with pytest.raises(DomainError):
            w(1.5)

    def test_nan_is_outside_the_range(self):
        w = RunningIntegral(FnIntegrand(lambda y: y), 0.0, 1.0)
        with pytest.raises(DomainError, match="outside quadrature range"):
            w(math.nan)

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5),
                                        (0.0, math.nan)])
    def test_empty_range_is_refused(self, lo, hi):
        with pytest.raises(ValueError, match="empty range"):
            RunningIntegral(FnIntegrand(lambda y: y), lo, hi)

    def test_partial_zero_is_integrand(self):
        f = FnIntegrand(lambda y: y)
        w = RunningIntegral(f, 0.0, 1.0)
        assert w.partial(0) is f

    def test_values_are_python_floats(self):
        # the sums run in float arithmetic, at the base node and off it
        root = ImplicitBranchRoot(parse("p^2-a"), "y", "p", params=("a",),
                                  branch=1)
        w = RunningIntegral(root, 0.0, 2.0)
        for y in (w.base, 1.5, 0.25):
            assert type(w(y, 2.2)) is float
            assert type(w.partial(1)(y, 2.2)) is float
        assert type(w.base) is float

    def test_parameter_partial(self):
        # root of p^2 = a gives W(y, a) = (y - base) sqrt(a);
        # dW/da = (y - base) / (2 sqrt(a)), again a running integral
        root = ImplicitBranchRoot(parse("p^2-a"), "y", "p", params=("a",),
                                  branch=1)
        w = RunningIntegral(root, 0.0, 2.0)
        wa = w.partial(1)
        y, a = 1.5, 2.2
        expect = (y - w.base) / (2 * math.sqrt(a))
        assert wa(y, a) == pytest.approx(expect, rel=1e-10)
        assert w(y, a) == pytest.approx((y - w.base) * math.sqrt(a),
                                        rel=1e-12)


class TestGaussLegendreRule:
    """Each call is one 24-point Gauss-Legendre rule on [base, y]."""

    # the family 0.5*(p^2 + 1.3 q^2) + 0.4 q^4 = a at a = 0.7, whose
    # turning points are +-TURN
    G = "0.5*(p^2+1.3*q^2)+0.4*q^4-a"
    A = 0.7
    TURN = math.sqrt((math.sqrt(0.65 ** 2 + 1.6 * A) - 0.65) / 0.8)

    def family(self, f):
        root = ImplicitBranchRoot(parse(self.G), "q", "p", params=("a",))
        return RunningIntegral(root, -f * self.TURN, f * self.TURN)

    def momentum(self, q):
        return math.sqrt(2.0 * (self.A - 0.65 * q * q - 0.4 * q ** 4))

    @pytest.mark.parametrize("f", [0.5, 0.9, 0.95])
    @pytest.mark.parametrize("side", [1, -1])
    def test_matches_scipy_quad_out_to_the_range_ends(self, f, side):
        # W integrates p and dW/da integrates dp/da = 1/p, from the base
        # (0) to either end of the range, f of the way to a turning point
        w = self.family(f)
        y = side * f * self.TURN
        want = [quad(g, 0.0, y, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
                for g in (self.momentum, lambda q: 1.0 / self.momentum(q))]
        assert w.base == 0.0
        assert abs(w(y, self.A) - want[0]) <= 1e-12
        assert abs(w.partial(1)(y, self.A) - want[1]) <= 1e-10

    @pytest.mark.parametrize("side", [1, -1])
    def test_24_solves_per_call_in_path_order(self, monkeypatch, side):
        # value and parameter-partial calls alike: 24 solves, each farther
        # from the base than the one before
        calls = []
        solve = ImplicitBranchRoot.solve
        monkeypatch.setattr(ImplicitBranchRoot, "solve", lambda self, a: (
            calls.append(a[0]), solve(self, a))[1])
        w = self.family(0.9)
        for fn in (w, w.partial(1)):
            for y in (0.05, 0.4, 0.9 * self.TURN):
                del calls[:]
                fn(side * y, self.A)
                distance = [abs(q - w.base) for q in calls]
                assert len(calls) == 24
                assert distance == sorted(set(distance))
                assert all(0.0 < d < y for d in distance)

    def test_a_family_root_keeps_no_per_y_cache(self):
        # the nodes move with y, so only the previous root is kept
        w = self.family(0.9)
        w(0.5, self.A)
        w.partial(1)(0.5, self.A)
        assert w.integrand._memo == {}
        assert w.integrand._last is not None

    def test_zero_at_the_base(self):
        w = self.family(0.9)
        assert w(w.base, self.A) == 0.0
        assert w.partial(1)(w.base, self.A) == 0.0

    def test_nodes_and_weights(self):
        import mpmath

        xs, ws = np.polynomial.legendre.leggauss(24)
        assert np.max(np.abs(np.array(hj._GL_NODES) - xs)) <= 1e-15
        # numpy's end weights are themselves off by 1.5e-15; a 50-digit
        # rule sets the 1e-15 bound
        assert np.max(np.abs(np.array(hj._GL_WEIGHTS) - ws)) <= 2e-15
        with mpmath.workdps(50):
            exact = sorted(mpmath.calculus.quadrature.GaussLegendre(
                mpmath.mp).calc_nodes(4, mpmath.mp.prec))
        assert len(exact) == 24
        for x, w, (ex, ew) in zip(hj._GL_NODES, hj._GL_WEIGHTS, exact):
            assert abs(x - float(ex)) <= 1e-15
            assert abs(w - float(ew)) <= 1e-15


class TestTabulatedAntiderivative:
    def test_values_are_python_floats(self, pair_solution):
        table = pair_solution.table
        for y in (table.ys[0], 1.234, table.ys[-1]):
            assert type(table(y)) is float
        assert isinstance(table.ys, np.ndarray)

    def test_zero_width_interval(self):
        # repeated nodes: the Hermite step has no width to divide by
        w = TabulatedAntiderivative([0.0, 0.0, 1.0], [5.0, 5.0, 6.0],
                                    [1.0, 1.0, 1.0], root=None)
        assert w(0.0) == 5.0


class TestSolveReduced1D:
    def test_node_residual(self, reduced_pair, pair_solution):
        sol = pair_solution
        worst = 0.0
        for y, p in zip(sol.table.ys, sol.table.derivs):
            worst = max(worst, abs(p * p + 1 / y ** 2 - 2.0))
        assert worst <= 1e-10

    def test_root_off_node_frozen(self, pair_solution):
        assert pair_solution.root.solve((2.0,)) == pytest.approx(
            math.sqrt(2 - 0.25), rel=1e-14)
        assert pair_solution.root.solve((3.0,)) == pytest.approx(
            math.sqrt(2 - 1 / 9), rel=1e-14)

    def test_table_vs_scipy_quad(self, pair_solution):
        def integrand(s):
            return math.sqrt(2.0 - 1.0 / (s * s))

        for y in (1.0, 2.35, 4.9):
            ref = quad(integrand, 0.8, y, epsabs=1e-13)[0]
            assert pair_solution.table(y) == pytest.approx(ref, abs=1e-9)

    def test_solution_is_one_form(self, pair_solution, reduced_pair):
        grid = mesh_grid([(0.9, 4.8)], [50])
        rep = hj_residual(reduced_pair, pair_solution, grid)
        assert rep.max_dev < 1e-12
        assert rep.e_est == pytest.approx(2.0, abs=1e-13)

    def test_nan_is_outside_the_table(self, pair_solution):
        with pytest.raises(DomainError, match="outside tabulated range"):
            pair_solution.table(math.nan)

    def test_energy_and_range_recorded(self, pair_solution):
        assert pair_solution.energy == 2.0
        assert pair_solution.y_range == (0.8, 5.0)

    def test_negative_branch(self, reduced_pair):
        sol = solve_reduced_1d(reduced_pair.h, "q", "p", 2.0, (0.8, 5.0),
                               branch=-1, n_nodes=201)
        assert sol.root.solve((2.0,)) == pytest.approx(
            -math.sqrt(2 - 0.25), rel=1e-13)

    def test_turning_point_raises(self):
        h = parse("0.5*(p^2+q^2)")
        with pytest.raises(TurningPointError):
            solve_reduced_1d(h, "q", "p", 0.5, (-2.0, 2.0), n_nodes=101)

    def test_branch_ambiguity_raises(self):
        # h = p^2 - 2 y p is not monotone in p between 0 and the root
        h = parse("p^2-2*y*p")
        with pytest.raises(BranchAmbiguityError):
            solve_reduced_1d(h, "y", "p", 1.0, (1.0, 2.0), n_nodes=51)

    def test_bad_range(self, reduced_pair):
        with pytest.raises(ValueError):
            solve_reduced_1d(reduced_pair.h, "q", "p", 2.0, (5.0, 0.8))


def _walker_residual(equation, sol, ys, ps):
    """max |equation - E| through the tree walker, as a sweep would take it."""
    vals = evaluate_rows([equation], (sol.coords[0], sol.root.p_var),
                         np.column_stack([ys, ps]))[:, 0]
    return float(np.fmax.reduce(np.abs(vals - sol.energy), initial=0.0))


def _bundled_equation(name, n_nodes=401):
    """A bundled scenario's solved 1-D equation and its solution."""
    doc = load_scenario(name)
    sys_, action, mu = build_system(doc)
    sv = doc["solve"]
    if "cyclic" in sv:
        ans = cyclic_ansatz(sys_, sv["cyclic"], sv["beta"])
        eq, y, p = ans.equation, ans.remaining_vars[0], ans.slot_vars[0]
    else:
        chart = build_chart(action)
        eq = reduced_hamiltonian(sys_, chart, mu)
        y, p = chart.y_names[0], chart.py_names[0]
    energy = sv.get("energy", doc.get("energy"))
    return eq, solve_reduced_1d(eq, y, p, energy, sv["range"],
                                n_nodes=n_nodes)


def chain_table(h, y_var, p_var, energy, y_range, branch=1, n_nodes=2001):
    """The scalar node chain the array Newton replaced, kept as the oracle.

    Each node solves from the previous node's root, each midpoint from
    its left node's, by Newton and else the bracket (``_chain``); the
    node checks are the old loop's.  Returns the
    node roots and W at the nodes, or raises the chain's error.
    """
    root = ImplicitBranchRoot(h - Const(float(energy)), y_var, p_var,
                              branch=branch)
    ys = np.linspace(y_range[0], y_range[1], n_nodes).tolist()
    ps, sign_ref, guess = [], 0.0, None
    for y in ys:
        p = root._chain((y,), guess)
        gp = root._gp(y, p)
        if abs(gp) < 1e-6 * (1.0 + abs(p)):
            raise TurningPointError(
                y, f"momentum derivative vanishes near y={y}: turning point margin hit")
        s = math.copysign(1.0, gp)
        if sign_ref == 0.0:
            sign_ref = s
        elif s != sign_ref:
            raise BranchAmbiguityError(
                f"equation is not monotone in {p_var} on the branch (y={y})")
        ps.append(p)
        guess = p
    values = [0.0]
    for i in range(len(ys) - 1):
        a, c = ys[i], ys[i + 1]
        pm = root._chain((0.5 * (a + c),), ps[i])
        values.append(values[i] + (c - a) / 6.0 * (ps[i] + 4.0 * pm + ps[i + 1]))
    return ps, values


class InverseSquare:
    """1/y^2 as an External, so the equation has no array Newton."""

    name = "V"

    def __init__(self):
        self.calls = 0

    def __call__(self, y):
        self.calls += 1
        return 1.0 / (y * y)


class TestTableBuild:
    """The array Newton's tables against the scalar chain they replaced."""

    @pytest.mark.parametrize("name, n_nodes", [
        ("calogero", 2001), ("calogero", 8001), ("heavytop", 2001),
        ("heavytop", 401)])
    def test_within_the_ulp_bound(self, name, n_nodes):
        # ^ and sin/cos go through numpy's power, sin and cos, which may
        # differ from libm: the bound is 4 ulp, 2 the most measured
        eq, sol = _bundled_equation(name, n_nodes)
        ps, values = chain_table(eq, sol.coords[0], sol.root.p_var,
                                 sol.energy, sol.y_range, n_nodes=n_nodes)
        assert max(map(ulp, ps, sol.table.derivs.tolist())) <= 4
        assert max(map(ulp, values, sol.table.values.tolist())) <= 4

    @pytest.mark.parametrize("text, energy, y_range, n_nodes, error", [
        # a pole on a node: the division raises there
        ("p^2-1/y^2", 1.0, (-1.0, 1.0), 101, DomainError),
        # the root leaves the branch: the margin check, then the bracket
        ("0.5*(p^2+q^2)", 0.5, (0.0, 2.0), 101, TurningPointError),
        ("0.5*(p^2+q^2)", 0.5, (0.0, 2.0), 100, TurningPointError),
        ("0.5*(p^2+q^2)", 0.5, (1.5, 2.0), 100, TurningPointError),
        # g_p changes sign along the root p = 1 at y = 1.5
        ("(y-1.5)*(p-1)", 0.0, (1.0, 2.0), 100, BranchAmbiguityError),
        ("(1.5-y)*(p-1)", 0.0, (1.0, 2.0), 300, BranchAmbiguityError)])
    def test_the_chains_error_at_the_same_node(self, text, energy, y_range,
                                               n_nodes, error):
        h = parse(text)
        var = sorted(h.free_vars() - {"p"})[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as want:
                chain_table(h, var, "p", energy, y_range, n_nodes=n_nodes)
            with pytest.raises(error) as got:
                solve_reduced_1d(h, var, "p", energy, y_range,
                                 n_nodes=n_nodes)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "location", None) == getattr(
            want.value, "location", None)

    def test_no_warning_escapes(self):
        # starts that overflow or leave the domain: the rows fail quietly
        sol = solve_reduced_1d(parse("p*p+1/q^2+log(q+3)"), "q", "p", 4.0,
                               (0.8, 5.0), n_nodes=51)
        batch = sol.root._rows
        ys = np.linspace(-5.0, 5.0, 64)
        starts = np.concatenate([np.full(32, 1e300), np.full(32, -1e-300)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, ok, _, _ = hj._in_blocks(lambda y, p: batch(y, p, 1.0), ys,
                                        starts)
        assert not ok.all()

    def test_tables_build_in_a_fresh_interpreter(self):
        # generated sources run without builtins: a numpy method that
        # imports on its first call would fail only in a new process
        code = (
            "from hjreduce.expr import parse\n"
            "from hjreduce.hj import solve_reduced_1d\n"
            "for h, lo, hi in (('p^2+sqrt(q)^3', 0.5, 1.5),\n"
            "                  ('p^2+0.1*sin(q)*cos(q)', -1.0, 1.0)):\n"
            "    sol = solve_reduced_1d(parse(h), 'q', 'p', 2.0, (lo, hi),\n"
            "                           n_nodes=101)\n"
            "    name = sol.root._rows.__code__.co_filename\n"
            "    assert name.startswith('<newton-rows'), name\n")
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
               "PYTHONPATH": str(Path(hj.__file__).resolve().parents[1])}
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True)
        assert (r.returncode, r.stderr) == (0, "")

    def test_an_external_takes_the_scalar_fallback(self):
        ext = InverseSquare()
        h = parse("p^2") + External(ext, (Var("q"),))
        sol = solve_reduced_1d(h, "q", "p", 2.0, (0.8, 5.0), n_nodes=201)
        assert ext.calls > 2 * 201
        ps, values = chain_table(h, "q", "p", 2.0, (0.8, 5.0), n_nodes=201)
        assert sol.table.derivs.tolist() == ps
        assert sol.table.values.tolist() == values

    def test_scalar_solves_only_on_the_coarse_chain(self, monkeypatch):
        chained, solved = [], []
        chain, solve = ImplicitBranchRoot._chain, ImplicitBranchRoot.solve
        monkeypatch.setattr(ImplicitBranchRoot, "_chain", lambda self, a, g: (
            chained.append(a[0]), chain(self, a, g))[1])
        monkeypatch.setattr(ImplicitBranchRoot, "solve", lambda self, a: (
            solved.append(a[0]), solve(self, a))[1])
        sol = solve_reduced_1d(parse("p^2+1/q^2"), "q", "p", 2.0, (0.8, 5.0),
                               n_nodes=2001)
        ys = sol.table.ys
        # the coarse chain, then the monotonicity check's 17 solves, each
        # one chain call from the anchor table and the only memo entries
        checked = np.linspace(0.8, 5.0, 17).tolist()
        assert chained == ys[::32].tolist() + [ys[-1]] + checked
        assert solved == checked
        assert list(sol.root._memo) == [(y,) for y in checked]
        assert sol.root._last is None


class TestSolutionResidual:
    """The residual a solution measures is the walker's, bit for bit."""

    @pytest.mark.parametrize("name", ["calogero", "heavytop"])
    def test_matches_the_walker(self, name):
        eq, sol = _bundled_equation(name)
        ys = np.linspace(sol.y_range[0], sol.y_range[1], 200)
        off = (ys, [sol.root.solve((y,)) for y in ys])
        for ys, ps in ((sol.table.ys, sol.table.derivs), off):
            got = sol.residual(ys, ps)
            assert type(got) is float
            assert got == _walker_residual(eq, sol, ys, ps)
            assert [sol.residual([y], [p]) for y, p in zip(ys, ps)] == [
                _walker_residual(eq, sol, [y], [p]) for y, p in zip(ys, ps)]

    @pytest.fixture(scope="class")
    def log_solution(self):
        eq = parse("p*p+1/q^2+log(q+3)")
        return eq, solve_reduced_1d(eq, "q", "p", 4.0, (0.8, 5.0),
                                    n_nodes=51)

    def test_skips_a_nan_row(self, log_solution):
        eq, sol = log_solution
        ys, ps = [1.0, 2.0], [math.nan, sol.root.solve((2.0,))]
        got = sol.residual(ys, ps)
        assert got == _walker_residual(eq, sol, ys, ps)
        assert got == sol.residual(ys[1:], ps[1:])
        assert sol.residual([1.0], [math.nan]) == 0.0

    def test_first_failing_row_raises(self, log_solution):
        eq, sol = log_solution
        ys, ps = [1.0, -5.0, 0.0], [1.0, 1.0, 1.0]
        with pytest.raises(DomainError) as got:
            sol.residual(ys, ps)
        with pytest.raises(DomainError) as want:
            _walker_residual(eq, sol, ys, ps)
        assert str(got.value) == str(want.value)
        assert got.value.subexpr is want.value.subexpr
        assert "log" in str(got.value)


class TestGeneratingFunction:
    def test_free_vars_must_be_declared(self):
        with pytest.raises(ValueError):
            GeneratingFunction("typeI", parse("q*a+z"), ("q",), ("a",))

    def test_unused_param_needs_absent_ok(self):
        with pytest.raises(ValueError):
            GeneratingFunction("typeI", parse("q*a"), ("q",), ("a", "b"))
        gf = GeneratingFunction("typeI", parse("q*a"), ("q",), ("a", "b"),
                                absent_ok=("b",))
        assert gf.params == ("a", "b")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            GeneratingFunction("typeI", parse("q*a"), ("q",), ("q",))

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            GeneratingFunction("typeIII", parse("q*a"), ("q",), ("a",))

    def test_partial_caching(self):
        gf = GeneratingFunction("typeII", parse("q*b+t*b^2"), ("q",), ("b",))
        assert gf.s_q is gf.s_q
        assert gf.s_qc[0].evaluate({"q": 1, "b": 1, "t": 0}) == 1.0
        assert gf.s_t.evaluate({"q": 0, "b": 3, "t": 0}) == 9.0

    def test_second_partials_are_row_major(self):
        # entry i*n + j of s_qc, s_qq and s_cc is d s_q[i]/dc_j,
        # d s_q[i]/dq_j and d s_c[i]/dc_j, bit for bit; s_qc is not
        # symmetric here, so a transposed layout shows
        q, c = ("q1", "q2"), ("a1", "a2")
        s = parse("q1*a1+q2*a2+0.3*q1*a2-t*(0.5*(a1^2+a2^2)+0.2*a1*a2"
                  "+0.25*q1^2*q2+0.1*q2^2*a1)")
        gf = GeneratingFunction("typeI", s, q, c)
        names = (*q, *c, "t")
        rows = np.random.default_rng(11).uniform(-1.0, 1.0, (20, 5))
        for got, rows_of, cols in ((gf.s_qc, q, c), (gf.s_qq, q, q),
                                   (gf.s_cc, c, c)):
            want = [differentiate(differentiate(s, a), b)
                    for a in rows_of for b in cols]
            values = evaluate_rows(got, names, rows)
            assert np.any(values != 0.0)
            assert values.tobytes() == evaluate_rows(want, names,
                                                     rows).tobytes()


class TestFamilyKernels:
    """A family's tuples run as kernels: twin families, one through the
    kernels and one through the walker, solve the same sequence of roots
    from the same warm starts, so their values agree bit for bit."""

    @staticmethod
    def twins():
        sys_ = heavy_top_system(1.3, 0.7, 1.1, 9.81, 0.4)
        ans = cyclic_ansatz(sys_, ["phi", "psi"], [0.3, 0.2])
        return [cyclic_complete_solution(sys_, ans, (0.6, 2.5))
                for _ in range(2)]

    def test_a_maps_tuples_compile_once_per_guard(self):
        kernel_gf, walker_gf = self.twins()
        rows = [(np.array([t, 0.4, -0.2]), np.array([40.0, 0.3, 0.2]), 0.1)
                for t in (0.9, 1.4, 2.1)]
        for exprs in ("s_q", "s_qc", "s_c"):
            for tol in (0.0, 1e-12):
                for q, c, t in rows:
                    got = kernel_gf._at(getattr(kernel_gf, exprs), q, c, t,
                                        tol)
                    want = evaluate_rows(getattr(walker_gf, exprs),
                                         walker_gf._names,
                                         [[*q, *c, t]], tol)[0]
                    assert got.tobytes() == want.tobytes()
        kernels = kernel_gf._kernels.values()
        assert len(kernels) == 6
        assert all(re.fullmatch(r"<kernel S #\d+>", k.__code__.co_filename)
                   for k in kernels)

    def test_a_pure_s_walks(self):
        gf = GeneratingFunction("typeII", parse("q*b+t*b^2"), ("q",), ("b",))
        assert gf._at(gf.s_q, np.array([1.0]), np.array([2.0]), 0.5,
                      0.0).tolist() == [2.0]
        assert gf._kernels is None

    def test_completeness_rows_are_the_walkers(self):
        kernel_gf, walker_gf = self.twins()
        names = (*kernel_gf._names,)
        rng = np.random.default_rng(4)
        rows = np.column_stack([rng.uniform(0.7, 2.4, 30),
                                rng.uniform(-2.0, 2.0, (30, 2)),
                                np.full((30, 3), [40.0, 0.3, 0.2]),
                                rng.uniform(0.0, 1.0, 30)])
        for got, want in ((kernel_gf.s_q, walker_gf.s_q),
                          (kernel_gf.s_qc, walker_gf.s_qc)):
            assert hj._kernel_rows(got, names, rows, "t").tobytes() == \
                evaluate_rows(want, names, rows).tobytes()


class TestTimeExtension:
    def test_reduced_pair_solution(self, reduced_pair, pair_solution):
        gf = time_extension(pair_solution, 2.0)
        pts = {"q": np.linspace(1.0, 4.5, 40),
               "t": np.linspace(0.0, 1.0, 40)}
        assert time_dependent_residual(gf, reduced_pair, pts) < 1e-12

    def test_requires_potential(self):
        form = OneForm(("q",), components=("q",))
        with pytest.raises(ValueError):
            time_extension(form, 1.0)


class TestCheckComplete:
    def test_free_particle_family(self):
        s = HamiltonianSystem(parse("0.5*p^2"), ["q"])
        gf = GeneratingFunction("typeI", parse("q*a1-t*a1^2/2"), ("q",),
                                ("a1",))
        pts = {"q": np.linspace(-2, 2, 30), "t": np.linspace(0, 1, 30),
               "a1": np.linspace(0.5, 2, 30)}
        rep = check_complete(gf, s, pts)
        assert rep.complete
        assert rep.hj_max_dev < 1e-14
        assert rep.min_abs_det == pytest.approx(1.0)

    def test_degenerate_family_rejected(self):
        s = HamiltonianSystem(parse("0.5*p^2"), ["q"])
        # S does not couple q and the parameter: mixed partial is zero
        gf = GeneratingFunction("typeI", parse("0.5*q^2+a1"), ("q",), ("a1",))
        pts = {"q": np.linspace(-1, 1, 5), "a1": np.zeros(5)}
        rep = check_complete(gf, s, pts)
        assert not rep.complete
        assert rep.min_abs_det == 0.0

    def test_one_batched_det_is_each_matrix_det(self):
        # the bits of every determinant, and the least |det| with NaN
        # skipped, as the per-matrix calls and a running minimum give
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            mats = rng.normal(size=(40, n, n))
            mats[7] = math.nan
            mats[11] = 0.0
            mats[19, 0] = mats[19, -1]
            with np.errstate(invalid="ignore"):
                dets = np.linalg.det(mats)
                each = np.array([np.linalg.det(m) for m in mats])
            assert dets.tobytes() == each.tobytes()
            running = min([math.inf, *(abs(float(d)) for d in each)])
            assert np.fmin.reduce(np.abs(dets), initial=math.inf) == running
            assert np.fmin.reduce(np.abs(dets[7:8]),
                                  initial=math.inf) == math.inf

    def test_min_det_over_two_parameters(self):
        s = HamiltonianSystem(parse("0.5*(p1^2+p2^2)"), ["q1", "q2"])
        gf = GeneratingFunction(
            "typeI", parse("q1*a1+q2*a2+0.3*q1*q2*a1*a2-t*(a1^2+a2^2)/2"),
            ("q1", "q2"), ("a1", "a2"))
        rng = np.random.default_rng(6)
        pts = {k: rng.uniform(-1.0, 1.0, 25) for k in ("q1", "q2", "a1", "a2")}
        rep = check_complete(gf, s, pts)
        names = ("q1", "q2", "a1", "a2")
        rows = np.column_stack([pts[k] for k in names])
        mats = evaluate_rows(gf.s_qc, names, rows).reshape(-1, 2, 2)
        assert rep.min_abs_det == min(abs(float(np.linalg.det(m)))
                                      for m in mats)

    def test_no_points_is_rejected(self):
        s = HamiltonianSystem(parse("0.5*p^2"), ["q"])
        gf = GeneratingFunction("typeI", parse("q*a1-t*a1^2/2"), ("q",),
                                ("a1",))
        for check in (check_complete, time_dependent_residual):
            with pytest.raises(ValueError,
                               match="need at least one sample point"):
                check(gf, s, {"q": [], "a1": []})

    def test_needs_full_parameter_count(self):
        s = HamiltonianSystem(parse("0.5*(p1^2+p2^2)"), ["q1", "q2"])
        gf = GeneratingFunction("typeI", parse("q1*a1+q2*a1"),
                                ("q1", "q2"), ("a1",))
        with pytest.raises(ValueError):
            check_complete(gf, s, {"q1": [0.0], "q2": [0.0], "a1": [1.0]})


@pytest.fixture(scope="module")
def oscillator():
    return HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])


class TestQuadratureCompleteSolution:
    def test_family_is_complete(self, oscillator):
        gf = quadrature_complete_solution(oscillator, (-0.95, 0.95))
        pts = {"q": np.linspace(-0.9, 0.9, 50),
               "t": np.linspace(0, 1, 50),
               "a1": np.full(50, 0.5)}
        rep = check_complete(gf, oscillator, pts, tol=1e-10)
        assert rep.complete
        assert rep.min_abs_det >= 1.0  # 1/p >= 1 on this energy shell

    def test_w_values_vs_scipy(self, oscillator):
        gf = quadrature_complete_solution(oscillator, (-0.95, 0.95))
        # S(t=0, q, a) = W(q, a) = int sqrt(2a - s^2) from the base point
        w = gf.s  # External(W) - t*a1; at t=0 only W contributes
        for q in (-0.7, 0.0, 0.42, 0.9):
            ref = quad(lambda s: math.sqrt(1.0 - s * s), 0.0, q,
                       epsabs=1e-13)[0]
            got = w.evaluate({"q": q, "a1": 0.5, "t": 0.0})
            assert got == pytest.approx(ref, abs=1e-9)

    def test_family_tree(self, oscillator):
        # recorded when the 1-D family had a builder of its own
        gf = quadrature_complete_solution(oscillator, (-0.95, 0.95))
        assert (str(gf.s), gf.kind, gf.q_vars, gf.params) == (
            "W_family(q, a1)-t*a1", "typeI", ("q",), ("a1",))

        def node_types(e):
            if isinstance(e, External):
                return [f"External[{type(e.fn).__name__}]",
                        *(t for a in e.args for t in node_types(a))]
            if isinstance(e, Var):
                return [f"Var:{e.name}"]
            return [type(e).__name__, *node_types(e.left),
                    *node_types(e.right)]

        assert node_types(gf.s) == [
            "Sub", "External[RunningIntegral]", "Var:q", "Var:a1", "Mul",
            "Var:t", "Var:a1"]
        w = gf.s.left.fn
        root = w.integrand
        assert (w.name, w.base) == ("W_family", 0.0)
        assert (type(root).__name__, root.name, root.params, root.branch,
                str(root.g)) == ("ImplicitBranchRoot", "dW_family", ("a1",),
                                 1, "0.5*(p^2.0+q^2.0)-a1")

    def test_param_collision(self, oscillator):
        with pytest.raises(ValueError):
            quadrature_complete_solution(oscillator, (-1, 1), param="q")

    def test_needs_1d(self):
        s = HamiltonianSystem(parse("0.5*(p1^2+p2^2)"), ["q1", "q2"])
        with pytest.raises(ValueError):
            quadrature_complete_solution(s, (-1, 1))


HEAVY_TOP_H = ("0.5*(ptheta^2+(pphi-ppsi*cos(theta))^2/sin(theta)^2"
               "+ppsi^2)+cos(theta)")


@pytest.fixture(scope="module")
def top():
    return HamiltonianSystem(parse(HEAVY_TOP_H), ["theta", "phi", "psi"],
                             ["ptheta", "pphi", "ppsi"])


class TestCyclicAnsatz:
    def test_slots_and_equation(self, top):
        ans = cyclic_ansatz(top, ["phi", "psi"], [0.3, 0.2])
        assert ans.remaining_vars == ("theta",)
        assert ans.slot_vars == ("dV_dtheta",)
        got = ans.equation.evaluate({"theta": math.pi / 2,
                                     "dV_dtheta": 2.0})
        assert got == pytest.approx(0.5 * (4 + 0.09 + 0.04), rel=1e-14)

    def test_integer_indices(self, top):
        ans = cyclic_ansatz(top, [1, 2], [0.3, 0.2])
        assert ans.cyclic_vars == ("phi", "psi")

    def test_non_cyclic_claim_rejected(self, top):
        with pytest.raises(PreconditionError) as ei:
            cyclic_ansatz(top, ["theta"], [0.5])
        assert ei.value.witness is not None

    def test_prefix_momenta(self, top):
        # d(prefix)/d(cyclic coordinate) recovers the frozen momentum
        ans = cyclic_ansatz(top, ["phi", "psi"], [0.3, 0.2])
        from hjreduce.expr import differentiate
        dphi = differentiate(ans.w_prefix, "phi")
        assert dphi.evaluate({}) == 0.3


TOP_BETAS = [(1.0, -0.5), (0.0, 0.7), (-1.3, 0.25)]
FOUR_DOF_H = ("0.5*(p1^2+p3^2+(p2-q1*p4)^2/(1+q3^2)+p4^2)+q1^2*q3"
              "+cos(q1-q3)")


def _cyclic_cases():
    """(system, cyclic names, betas) of the reduction oracle cases."""
    doc = load_scenario("heavytop")
    cases = [(build_system(doc)[0], doc["solve"]["cyclic"],
              doc["solve"]["beta"])]
    for beta in TOP_BETAS:
        cases.append((heavy_top_system(1.0, 1.5, 1.0, 9.81, 0.3),
                      ["phi", "psi"], beta))
    four = HamiltonianSystem(parse(FOUR_DOF_H), ["q1", "q2", "q3", "q4"],
                             ["p1", "p2", "p3", "p4"])
    cases.append((four, ["q4", "q2"], (0.4, -1.1)))
    return cases


class TestCyclicAnsatzIsAReduction:
    """The ansatz against the direct substitution it replaced."""

    @pytest.mark.parametrize("case", range(5),
                             ids=["heavytop", "beta0", "beta1", "beta2",
                                  "four-dof"])
    def test_equation_is_the_substitution(self, case):
        sys_, cyclic, betas = _cyclic_cases()[case]
        ans = cyclic_ansatz(sys_, cyclic, betas)
        want = separate_cyclic(sys_, cyclic, betas)
        assert str(ans.equation) == str(want)
        assert tree_shape(ans.equation) == tree_shape(want)

    @pytest.mark.parametrize("case", range(4),
                             ids=["heavytop", "beta0", "beta1", "beta2"])
    def test_tables_are_bit_identical(self, case):
        sys_, cyclic, betas = _cyclic_cases()[case]
        ans = cyclic_ansatz(sys_, cyclic, betas)
        want = separate_cyclic(sys_, cyclic, betas)
        y, p = ans.remaining_vars[0], ans.slot_vars[0]
        args = (y, p, 12.0, (0.7, 2.4))
        got = solve_reduced_1d(ans.equation, *args, n_nodes=201).table
        ref = solve_reduced_1d(want, *args, n_nodes=201).table
        for a, b in ((got.ys, ref.ys), (got.values, ref.values),
                     (got.derivs, ref.derivs)):
            assert a.tobytes() == b.tobytes()

    def test_family_equation_is_one_substitution(self, top, monkeypatch):
        built = []

        class Recording(ImplicitBranchRoot):
            def __init__(self, g, *a, **kw):
                built.append(g)
                super().__init__(g, *a, **kw)

        monkeypatch.setattr(hj, "ImplicitBranchRoot", Recording)
        ans = cyclic_ansatz(top, ["phi", "psi"], [0.3, 0.2])
        cyclic_complete_solution(top, ans, (0.6, 2.5))
        # the tree the two substitutions through the slot name built
        slot = hj.substitute(top.h, {"pphi": Var("b2"), "ppsi": Var("b3"),
                                     "ptheta": Var("dV_dtheta")})
        want = hj.substitute(slot, {"dV_dtheta": Var("ptheta")}) - Var("b1")
        assert tree_shape(built[0]) == tree_shape(want)

    def test_non_cyclic_variable_names_the_cyclic_list(self, top):
        with pytest.raises(PreconditionError,
                           match=r"not cyclic in \['psi', 'theta'\]") as ei:
            cyclic_ansatz(top, ["psi", "theta"], [0.2, 0.5])
        assert ei.value.witness["values"][0] != ei.value.witness["values"][1]

    def test_unsamplable_domain(self):
        s = HamiltonianSystem(parse("0.5*p1^2+sqrt(q2-100)+p2"),
                              ["q1", "q2"], ["p1", "p2"])
        with pytest.raises(PreconditionError,
                           match="could not draw enough domain-valid"):
            cyclic_ansatz(s, ["q2"], [0.1])

    def test_repeated_cyclic_name(self, top):
        with pytest.raises(ValueError, match=r"more than once: \['phi'\]"):
            cyclic_ansatz(top, ["phi", 1], [0.3, 0.3])


class TestHeavyTop:
    def test_system_energy(self):
        s = heavy_top_system(1.0, 1.0, 1.0, 1.0, 1.0)
        z = PhasePoint([math.pi / 2, 0.0, 0.0], [2.0, 0.3, 0.2])
        expect = 0.5 * (4 + 0.09 + 0.04)
        assert s.energy(z) == pytest.approx(expect, rel=1e-14)

    def test_free_case_frozen_root(self):
        # no gravity and zero cyclic momenta: slope is sqrt(2 E I) = 2
        out = solve_heavy_top(1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 2.0,
                              (math.pi / 6, 5 * math.pi / 6), n_nodes=101)
        assert out.solution.root.solve((1.0,)) == pytest.approx(2.0,
                                                                rel=1e-13)

    def test_criterion_parameters(self):
        out = solve_heavy_top(1.0, 1.0, 1.0, 1.0, 1.0, 0.3, 0.2, 3.0,
                              (math.pi / 6, 5 * math.pi / 6), n_nodes=401)
        # V'(pi/2)^2 = 2E - beta-part = 6 - 0.13 = 5.87
        assert out.solution.root.solve((math.pi / 2,)) == pytest.approx(
            math.sqrt(5.87), rel=1e-12)
        assert out.energy == 3.0

    def test_family_complete(self):
        out = solve_heavy_top(1.0, 1.0, 1.0, 1.0, 1.0, 0.3, 0.2, 3.0,
                              (math.pi / 6, 5 * math.pi / 6), n_nodes=101)
        gf = out.generating_function
        n = 40
        pts = {"theta": np.linspace(math.pi / 6 + 0.05,
                                    5 * math.pi / 6 - 0.05, n),
               "phi": np.linspace(-2, 2, n),
               "psi": np.linspace(-2, 2, n),
               "t": np.linspace(0, 1, n),
               "b1": np.full(n, 3.0),
               "b2": np.full(n, 0.3),
               "b3": np.full(n, 0.2)}
        rep = check_complete(gf, out.system, pts, tol=1e-8)
        assert rep.complete
        assert rep.min_abs_det >= 1e-6


class TestCyclicCompleteSolution:
    def test_name_clash_rejected(self):
        h = parse("0.5*(pb1^2+pq^2)+cos(b1)")
        s = HamiltonianSystem(h, ["b1", "q"], ["pb1", "pq"])
        ans = cyclic_ansatz(s, ["q"], [0.5])
        with pytest.raises(ValueError):
            cyclic_complete_solution(s, ans, (0.5, 1.0))

    def test_needs_single_remaining(self):
        s = HamiltonianSystem(parse("0.5*(p1^2+p2^2+p3^2)+q1^2+q2^2"),
                              ["q1", "q2", "q3"])
        ans = cyclic_ansatz(s, ["q3"], [0.5])
        with pytest.raises(ValueError):
            cyclic_complete_solution(s, ans, (0.5, 1.0))


class TestAdditiveSplit:
    def test_exact_split(self):
        action = TranslationAction([[1, 1]])
        s = (call("sin", Var("q1") - Var("q2"))
             + Const(1.5) * (Const(0.5) * Var("q1") + Const(0.5) * Var("q2")))
        grid = random_grid([(0.5, 2.5), (-2.0, -0.5)], 30, seed=7)
        rep = additive_split_check(s, ("q1", "q2"), action, grid)
        assert rep.residual <= 1e-12
        np.testing.assert_allclose(rep.mu, [1.5], atol=1e-12)
        # reassemble: s == s_reduced + s_group + constant on the grid
        for pt in grid[:5]:
            b = {"q1": pt[0], "q2": pt[1]}
            total = (rep.s_reduced.evaluate(b) + rep.s_group.evaluate(b)
                     + rep.constant)
            assert total == pytest.approx(s.evaluate(b), rel=1e-12)

    def test_perturbed_input_rejected_with_witness(self):
        action = TranslationAction([[1, 1]])
        s = (call("sin", Var("q1") - Var("q2"))
             + Const(0.01) * Var("q1") ** Const(2.0))
        grid = random_grid([(0.5, 2.5), (-2.0, -0.5)], 30, seed=7)
        with pytest.raises(PreconditionError) as ei:
            additive_split_check(s, ("q1", "q2"), action, grid)
        assert ei.value.witness is not None

    def test_grid_of_the_wrong_width(self):
        action = TranslationAction([[1, 1]])
        s = call("cos", Var("q1") - Var("q2"))
        with pytest.raises(ValueError,
                           match="grid points must have one entry per coordinate"):
            additive_split_check(s, ("q1", "q2"), action, [[0.5, 1.0, 2.0]])

    def test_explicit_mu(self):
        action = TranslationAction([[1, 1]])
        s = call("cos", Var("q1") - Var("q2"))
        grid = random_grid([(0.5, 2.5), (-2.0, -0.5)], 20, seed=8)
        rep = additive_split_check(s, ("q1", "q2"), action, grid,
                                   mu=np.zeros(1))
        assert rep.residual <= 1e-12

    def test_skew_action_matches_the_inverse_projection(self):
        # the zero-fiber map L Y against inv([Y; X]) restricted to Y, the
        # projection the split used before it took its chart's lift
        action = TranslationAction([[0.6, 0.45]])
        chart = build_chart(action)
        t_inv = np.linalg.inv(np.vstack([chart.y_block, chart.x_block]))
        old = t_inv[:, :chart.m] @ chart.y_block
        new = chart.horizontal @ chart.y_block
        assert np.max(np.abs(new - old)) <= 1e-15
        # S = sin(invariant) + 1.5 x, x the group coordinate of (0.6, 0.45)
        s = (call("sin", Const(0.45) * Var("q1") - Const(0.6) * Var("q2"))
             + Const(1.5 / 0.5625) * (Const(0.6) * Var("q1")
                                      + Const(0.45) * Var("q2")))
        grid = random_grid([(-2.0, 2.0), (-2.0, 2.0)], 30, seed=5)
        rep = additive_split_check(s, ("q1", "q2"), action, grid)
        np.testing.assert_allclose(rep.mu, [1.5], rtol=1e-14)
        assert rep.residual <= 1e-14
        ref = hj.substitute(s, {v: hj.linear_combo(row, ("q1", "q2"))
                                for v, row in zip(("q1", "q2"), old)})
        got = evaluate_rows([rep.s_reduced, ref], ("q1", "q2"), grid)
        np.testing.assert_allclose(got[:, 0], got[:, 1], rtol=0, atol=1e-15)
