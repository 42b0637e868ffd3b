import numpy as np
import pytest

from hjreduce.expr import Const, Var, call, evaluate, free_vars, parse
from hjreduce.hj import OneForm, PreconditionError, mesh_grid, random_grid
from hjreduce.phase_space import HamiltonianSystem, PhasePoint
from hjreduce.reduction import (QuotientChart, TwoForm, build_chart,
                                exterior_derivative,
                                magnetic_lagrangian_residual, magnetic_term,
                                momentum_shift, project_lagrangian,
                                reduced_hamiltonian)
from hjreduce.symmetry import TranslationAction
from oracles import fd_gradient

PAIR_H = "0.5*(p1^2+p2^2)+1/(q1-q2)^2"


@pytest.fixture(scope="module")
def pair_system():
    return HamiltonianSystem(parse(PAIR_H), ["q1", "q2"])


@pytest.fixture(scope="module")
def diag_action():
    return TranslationAction([[1, 1]])


class TestBuildChart:
    def test_diagonal_action_blocks(self, diag_action):
        c = build_chart(diag_action)
        np.testing.assert_array_equal(c.y_block, [[1.0, -1.0]])
        np.testing.assert_array_equal(c.x_block, [[0.5, 0.5]])
        np.testing.assert_array_equal(c.horizontal, [[0.5], [-0.5]])
        np.testing.assert_array_equal(c.generators, [[1.0], [1.0]])
        assert c.n == 2 and c.k == 1 and c.m == 1
        assert c.y_names == ("q",) and c.py_names == ("p",)

    def test_axis_action_blocks(self):
        c = build_chart(TranslationAction([[1, 0]]))
        np.testing.assert_array_equal(c.y_block, [[0.0, 1.0]])
        np.testing.assert_array_equal(c.x_block, [[1.0, 0.0]])
        np.testing.assert_array_equal(c.horizontal, [[0.0], [1.0]])

    def test_inverse_relation_random(self):
        # [Y; X] must invert [L | G] for any full-rank action
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n))
            g = rng.integers(-2, 3, size=(k, n)).astype(float)
            if np.linalg.matrix_rank(g) < k:
                continue
            c = build_chart(TranslationAction(g))
            t_fwd = np.vstack([c.y_block, c.x_block])
            t_inv = np.hstack([c.horizontal, c.generators])
            np.testing.assert_allclose(t_fwd @ t_inv, np.eye(n), atol=1e-12)
            np.testing.assert_allclose(t_inv @ t_fwd, np.eye(n), atol=1e-12)

    def test_trivial_action(self):
        c = build_chart(TranslationAction([], n=2))
        assert c.k == 0 and c.m == 2
        np.testing.assert_array_equal(c.y_block, np.eye(2))

    def test_custom_names(self, diag_action):
        c = build_chart(diag_action, y_names=("s",), py_names=("ps",))
        assert c.y_names == ("s",)
        assert c.py_names == ("ps",)


class TestChartSplitAssemble:
    def test_round_trip(self, diag_action):
        c = build_chart(diag_action)
        z = PhasePoint([1.0, -3.0], [0.7, 0.2])
        y, p_y, x, p_x = c.split(z)
        assert y[0] == 4.0           # q1 - q2
        assert x[0] == -1.0          # midpoint
        assert p_x[0] == pytest.approx(0.9)   # total momentum
        back = c.assemble(y, p_y, x=x, p_x=p_x)
        np.testing.assert_allclose(back.q, z.q, atol=1e-14)
        np.testing.assert_allclose(back.p, z.p, atol=1e-14)

    def test_assemble_defaults_fiber_to_zero(self, diag_action):
        c = build_chart(diag_action)
        z = c.assemble([2.0], [0.5])
        np.testing.assert_allclose(z.q, [1.0, -1.0])
        np.testing.assert_allclose(z.p, [0.5, -0.5])


class TestReducedHamiltonian:
    def test_pair_system_exact_form(self, pair_system, diag_action):
        c = build_chart(diag_action)
        h_red = reduced_hamiltonian(pair_system, c, np.zeros(1))
        assert free_vars(h_red) <= {"q", "p"}
        # bit-identical to p^2 + 1/q^2 thanks to constant folding
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = float(rng.uniform(0.5, 4.0))
            p = float(rng.uniform(-2.0, 2.0))
            assert h_red.evaluate({"q": q, "p": p}) == p * p + 1.0 / (q * q)

    def test_descends_along_fiber(self, pair_system, diag_action):
        # h_red(y, p_y) equals h at any assembled point on the mu level
        c = build_chart(diag_action)
        mu = np.array([0.8])
        h_red = reduced_hamiltonian(pair_system, c, mu)
        rng = np.random.default_rng(4)
        for _ in range(30):
            y = rng.uniform(0.5, 3.0, 1)
            p_y = rng.uniform(-2, 2, 1)
            x = rng.uniform(-5, 5, 1)
            z = c.assemble(y, p_y, x=x, p_x=mu)
            assert h_red.evaluate({"q": y[0], "p": p_y[0]}) == pytest.approx(
                pair_system.energy(z), rel=1e-14)

    def test_non_invariant_rejected(self, diag_action):
        s = HamiltonianSystem(parse("0.5*(p1^2+p2^2)+q1"), ["q1", "q2"])
        c = build_chart(diag_action)
        with pytest.raises(PreconditionError) as ei:
            reduced_hamiltonian(s, c, np.zeros(1))
        assert ei.value.witness is not None

class TestTwoForm:
    def test_entry_antisymmetry(self):
        f = TwoForm(("a", "b"), {(0, 1): Const(3.0)})
        assert f.entry(0, 1).evaluate({}) == 3.0
        assert f.entry(1, 0).evaluate({}) == -3.0
        assert f.entry(0, 0).evaluate({}) == 0.0

    def test_matrix_at(self):
        f = TwoForm(("a", "b"), {(0, 1): Var("a")})
        m = f.matrix_at([2.0, 9.0])
        np.testing.assert_array_equal(m, [[0.0, 2.0], [-2.0, 0.0]])

    def test_index_validation(self):
        with pytest.raises(ValueError):
            TwoForm(("a", "b"), {(1, 0): Const(1.0)})


class TestExteriorDerivative:
    def test_exact_form_is_closed(self):
        # d(dF) = 0
        pot = call("sin", Var("a") * Var("b")) + Var("a") ** Const(3.0)
        form = OneForm.exact(pot, ("a", "b"))
        d = exterior_derivative(form)
        assert d.entry(0, 1).evaluate({"a": 0.3, "b": -1.2}) == \
            pytest.approx(0.0, abs=1e-15)

    def test_vs_fd_oracle(self):
        comps = (Var("a") * Var("b") ** Const(2.0),
                 call("cos", Var("a")) + Var("b"))
        form = OneForm(("a", "b"), components=comps)
        d = exterior_derivative(form)
        rng = np.random.default_rng(2)
        for _ in range(10):
            pt = rng.uniform(-1.5, 1.5, 2)

            def c1(x):
                return evaluate(comps[1], {"a": x[0], "b": x[1]})

            def c0(x):
                return evaluate(comps[0], {"a": x[0], "b": x[1]})

            expected = fd_gradient(c1, pt)[0] - fd_gradient(c0, pt)[1]
            got = d.entry(0, 1).evaluate({"a": pt[0], "b": pt[1]})
            assert got == pytest.approx(expected, abs=1e-7)


@pytest.fixture(scope="module")
def fiber_chart():
    # translation along the third axis; base coordinates are the first two
    return build_chart(TranslationAction([[0, 0, 1]]),
                       y_names=("y1", "y2"), py_names=("py1", "py2"))


class TestMagneticTerm:
    def test_synthetic_connection_exactly(self, fiber_chart):
        # alpha = mu dx + y1 dy2 gives beta = d(y1 dy2) = dy1 ^ dy2
        mu = np.array([1.5])
        alpha = OneForm(("y1", "y2", "x"),
                        components=(Const(0.0), Var("y1"), Const(1.5)))
        term = magnetic_term(fiber_chart, alpha, mu)
        entry = term.beta.entry(0, 1)
        assert isinstance(entry, Const)
        assert entry.value == 1.0
        assert term.pullback_residual == 0.0
        assert term.momentum_dev == 0.0
        assert term.invariance_dev == 0.0

    def test_wrong_momentum_level_rejected(self, fiber_chart):
        alpha = OneForm(("y1", "y2", "x"),
                        components=(Const(0.0), Var("y1"), Const(1.5)))
        with pytest.raises(PreconditionError):
            magnetic_term(fiber_chart, alpha, np.array([0.4]))

    def test_non_invariant_alpha_rejected(self, fiber_chart):
        alpha = OneForm(("y1", "y2", "x"),
                        components=(Var("x"), Var("y1"), Const(1.5)))
        with pytest.raises(PreconditionError):
            magnetic_term(fiber_chart, alpha, np.array([1.5]))


class TestMomentumShift:
    def test_subtracts_alpha(self):
        alpha = OneForm(("y1", "y2", "x"),
                        components=(Const(0.0), Var("y1"), Const(1.5)))
        z = PhasePoint([2.0, 0.0, 7.0], [1.0, 1.0, 1.5])
        out = momentum_shift(z, alpha)
        np.testing.assert_allclose(out.q, z.q)
        np.testing.assert_allclose(out.p, [1.0, -1.0, 0.0])


class TestMagneticLagrangianResidual:
    def test_corrected_form_passes(self, fiber_chart):
        mu = np.array([1.5])
        alpha = OneForm(("y1", "y2", "x"),
                        components=(Const(0.0), Var("y1"), Const(1.5)))
        term = magnetic_term(fiber_chart, alpha, mu)
        pot = Var("y1") ** Const(2.0) + call("sin", Var("y2"))
        # gamma = -y1 dy2 + dS satisfies d(gamma) = -beta
        ds = OneForm.exact(pot, ("y1", "y2"))
        gamma = OneForm(("y1", "y2"),
                        components=(ds.components[0],
                                    ds.components[1] - Var("y1")))
        grid = mesh_grid([(-2, 2), (-2, 2)], [12, 12])
        assert magnetic_lagrangian_residual(gamma, term.beta, grid) < 1e-12

    def test_uncorrected_form_fails_by_one(self, fiber_chart):
        mu = np.array([1.5])
        alpha = OneForm(("y1", "y2", "x"),
                        components=(Const(0.0), Var("y1"), Const(1.5)))
        term = magnetic_term(fiber_chart, alpha, mu)
        pot = Var("y1") ** Const(2.0) + call("sin", Var("y2"))
        ds = OneForm.exact(pot, ("y1", "y2"))
        grid = mesh_grid([(-2, 2), (-2, 2)], [12, 12])
        assert magnetic_lagrangian_residual(ds, term.beta, grid) == \
            pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bounds", [[(-2, 2)], [(-2, 2)] * 3])
    def test_grid_of_the_wrong_width(self, bounds):
        beta = TwoForm(("y1", "y2"), {(0, 1): Const(1.0)})
        gamma = OneForm(("y1", "y2"), components=(Const(0.0), Var("y1")))
        with pytest.raises(ValueError,
                           match="grid points must have one entry per coordinate"):
            magnetic_lagrangian_residual(gamma, beta,
                                         mesh_grid(bounds, [3] * len(bounds)))


class TestProjectLagrangian:
    def test_invariant_form_projects(self, pair_system, diag_action):
        chart = build_chart(diag_action)
        # gamma = (f(y), -f(y)): invariant, on the mu=0 level
        y = Var("q1") - Var("q2")
        f = call("sin", y)
        form = OneForm(("q1", "q2"), components=(f, Const(0.0) - f))
        grid = random_grid([(0.5, 2.0), (-2.0, -0.5)], 25, seed=3)
        reduced, report = project_lagrangian(form, chart, np.zeros(1), grid)
        assert report["momentum_dev"] < 1e-12
        # the projected component evaluates to f at y
        assert reduced.values([1.3])[0] == pytest.approx(np.sin(1.3),
                                                         rel=1e-12)

    def test_off_level_rejected(self, diag_action):
        chart = build_chart(diag_action)
        form = OneForm(("q1", "q2"), components=(Const(1.0), Const(0.0)))
        grid = random_grid([(0.5, 2.0), (-2.0, -0.5)], 10, seed=3)
        with pytest.raises(PreconditionError) as ei:
            project_lagrangian(form, chart, np.zeros(1), grid)
        assert ei.value.witness is not None
