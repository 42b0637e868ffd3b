import numpy as np
import pytest

from hjreduce.expr import parse
from hjreduce.hj import (GeneratingFunction, NewtonDivergenceError,
                         PreconditionError, SingularJacobianError,
                         quadrature_complete_solution)
from hjreduce.integrators import (ImplicitMap, apply_type1, apply_type2,
                                  flow_lagrangian_momentum_check,
                                  map_jacobian, momentum_preservation_check,
                                  run_scheme, symplecticity_check,
                                  transform_to_equilibrium)
from hjreduce.phase_space import (HamiltonianSystem, PhasePoint,
                                  symplectic_matrix)
from hjreduce.symmetry import TranslationAction
from oracles import fd_jacobian

PAIR_H = "0.5*(p1^2+p2^2)+1/(q1-q2)^2"
PAIR_S = "q1*b1+q2*b2+t*(0.5*(b1^2+b2^2)+1/(q1-q2)^2)"


@pytest.fixture(scope="module")
def ho_gf():
    return GeneratingFunction("typeII", parse("q*b1+t*(0.5*(b1^2+q^2))"),
                              ("q",), ("b1",))


@pytest.fixture(scope="module")
def pair_gf():
    return GeneratingFunction("typeII", parse(PAIR_S), ("q1", "q2"),
                              ("b1", "b2"))


class TestApplyType2:
    def test_ho_frozen_step(self, ho_gf):
        z1 = apply_type2(ho_gf, PhasePoint([1.0], [0.0]), t=0.1)
        assert z1.q[0] == pytest.approx(0.99, abs=1e-14)
        assert z1.p[0] == pytest.approx(-0.1, abs=1e-14)

    def test_zero_time_is_identity(self, ho_gf):
        z = PhasePoint([0.7], [-0.3])
        z1 = apply_type2(ho_gf, z, t=0.0)
        assert z1.q[0] == pytest.approx(0.7, abs=1e-13)
        assert z1.p[0] == pytest.approx(-0.3, abs=1e-13)

    def test_kind_checked(self, ho_gf):
        with pytest.raises(ValueError):
            apply_type1(ho_gf, PhasePoint([1.0], [0.0]), t=0.1)


class TestApplyType1:
    def test_free_particle_frozen(self):
        gf = GeneratingFunction("typeI", parse("q*a1-t*a1^2/2"), ("q",),
                                ("a1",))
        out = apply_type1(gf, PhasePoint([2.0], [3.0]), t=0.7)
        assert out.q[0] == pytest.approx(3.0, abs=1e-13)
        assert out.p[0] == pytest.approx(0.1, abs=1e-12)


class TestMapJacobian:
    def test_ho_frozen_matrix(self, ho_gf):
        m = map_jacobian(ho_gf, PhasePoint([1.0], [0.0]), t=0.1)
        np.testing.assert_allclose(m, [[0.99, 0.1], [-0.1, 1.0]],
                                   atol=1e-13)

    def test_type1_free_particle_matrix(self):
        gf = GeneratingFunction("typeI", parse("q*a1-t*a1^2/2"), ("q",),
                                ("a1",))
        m = map_jacobian(gf, PhasePoint([2.0], [3.0]), t=0.7)
        np.testing.assert_allclose(m, [[0.0, 1.0], [-1.0, 0.7]], atol=1e-13)

    def test_vs_fd_map(self, pair_gf):
        z0 = np.array([1.0, -1.0, 1.0, 0.0])

        def the_map(z):
            out = apply_type2(pair_gf, PhasePoint(z[:2], z[2:]), t=0.01)
            return np.concatenate([out.q, out.p])

        m = map_jacobian(pair_gf, PhasePoint(z0[:2], z0[2:]), t=0.01)
        num = fd_jacobian(the_map, z0)
        np.testing.assert_allclose(m, num, atol=1e-7)

    def test_singular_family(self):
        gf = GeneratingFunction("typeII", parse("q+b1"), ("q",), ("b1",))
        with pytest.raises(SingularJacobianError):
            map_jacobian(gf, PhasePoint([0.0], [1.0]), t=0.0)


class TestSymplecticity:
    def test_ho_machine_precision(self, ho_gf):
        assert symplecticity_check(ho_gf, PhasePoint([1.0], [0.0]),
                                   t=0.1) < 1e-14

    def test_random_near_identity_generators(self):
        rng = np.random.default_rng(10)
        omega = symplectic_matrix(2)
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, 6)
            s = ("q1*b1+q2*b2+t*({}*q1^2+{}*q1*q2+{}*q2^2"
                 "+{}*b1^2+{}*b1*b2+{}*q1*b2)").format(*np.round(coeffs, 3))
            gf = GeneratingFunction("typeII", parse(s), ("q1", "q2"),
                                    ("b1", "b2"))
            z = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            assert symplecticity_check(gf, z, t=0.05) < 1e-9
            m = map_jacobian(gf, z, t=0.05)
            np.testing.assert_allclose(m.T @ omega @ m, omega, atol=1e-9)


class TestImplicitMap:
    def test_repeated_steps_warm(self, ho_gf):
        step = ImplicitMap(ho_gf, t=0.1)
        z = PhasePoint([1.0], [0.0])
        for _ in range(50):
            z = step(z)
        # rotation-like orbit stays bounded
        assert abs(z.q[0]) < 1.2 and abs(z.p[0]) < 1.2

    def test_divergence_error(self):
        # S_q = exp(b1) can never equal a negative momentum
        gf = GeneratingFunction("typeII", parse("q*exp(b1)+t*b1"), ("q",),
                                ("b1",))
        with pytest.raises((NewtonDivergenceError, SingularJacobianError)):
            apply_type2(gf, PhasePoint([1.0], [-1.0]), t=0.1)


class TestMomentumPreservation:
    def test_invariant_scheme_conserves(self, pair_gf):
        action = TranslationAction([[1, 1]])
        z0 = PhasePoint([1.0, -1.0], [1.0, 0.0])
        drift = momentum_preservation_check(pair_gf, action, z0, 200,
                                            t=0.01)
        assert drift.shape == (201,)
        assert drift[0] == 0.0
        assert np.max(drift) <= 1e-10

    def test_trivial_action_has_no_drift(self, ho_gf):
        action = TranslationAction([], n=1)
        z0 = PhasePoint([0.0], [1.0])
        assert momentum_preservation_check(
            ho_gf, action, z0, 3, t=0.1).tolist() == [0.0] * 4
        rep = run_scheme(ho_gf, HamiltonianSystem("0.5*(p^2+q^2)", ["q"]),
                         z0, 3, 0.1, action=action)
        assert rep.momentum_drift.tolist() == [0.0] * 4

    def test_pinned_drift(self, pair_gf):
        # recorded when the check stepped and measured in a loop of its own
        drift = momentum_preservation_check(
            pair_gf, TranslationAction([[1, 1]]),
            PhasePoint([1.0, -1.0], [1.0, 0.0]), 12, t=0.01)
        eps = 1.1102230246251565e-16
        assert drift.dtype == np.float64
        assert drift.tolist() == [0.0, 0.0, eps, 0.0, eps, eps, eps, eps,
                                  2 * eps, 3 * eps, 3 * eps, 3 * eps, 3 * eps]

    def test_skew_action_accepts_an_invariant_scheme(self):
        # S(q + G g, b) - S(q, b) = g G^T b for G = (0.6, 0.45): the
        # potential reads only the invariant 0.45 q1 - 0.6 q2
        gf = GeneratingFunction(
            "typeII", parse("q1*b1+q2*b2+t*(0.5*(b1^2+b2^2)"
                            "+cos(0.45*q1-0.6*q2))"), ("q1", "q2"),
            ("b1", "b2"))
        action = TranslationAction([[0.6, 0.45]])
        z0 = PhasePoint([1.0, -1.0], [1.0, 0.0])
        drift = momentum_preservation_check(gf, action, z0, 50, t=0.01)
        assert np.max(drift) <= 1e-12
        bent = GeneratingFunction("typeII", gf.s + parse("0.01*q1^2"),
                                  ("q1", "q2"), ("b1", "b2"))
        with pytest.raises(PreconditionError, match="diagonal action"):
            momentum_preservation_check(bent, action, z0, 5, t=0.01)

    def test_non_invariant_precondition(self):
        gf = GeneratingFunction(
            "typeII", parse(PAIR_S + "+0.01*q1^2"), ("q1", "q2"),
            ("b1", "b2"))
        action = TranslationAction([[1, 1]])
        z0 = PhasePoint([1.0, -1.0], [1.0, 0.0])
        with pytest.raises(PreconditionError) as ei:
            momentum_preservation_check(gf, action, z0, 10, t=0.01)
        assert ei.value.witness is not None

    def test_non_invariant_scheme_drifts(self):
        # measured directly, bypassing the precondition gate
        gf = GeneratingFunction(
            "typeII", parse(PAIR_S + "+0.01*q1^2"), ("q1", "q2"),
            ("b1", "b2"))
        action = TranslationAction([[1, 1]])
        step = ImplicitMap(gf, t=0.01)
        z = PhasePoint([1.0, -1.0], [1.0, 0.0])
        g = action.matrix
        j0 = float((g.T @ z.p)[0])
        worst = 0.0
        for _ in range(100):
            z = step(z)
            worst = max(worst, abs(float((g.T @ z.p)[0]) - j0))
        assert worst >= 1e-4


class TestRunScheme:
    def test_ho_energy_bounded(self, ho_gf):
        s = HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])
        rep = run_scheme(ho_gf, s, PhasePoint([1.0], [0.0]), 100, 0.1)
        assert len(rep.trajectory) == 101
        assert rep.trajectory.times[-1] == pytest.approx(10.0)
        assert np.max(rep.energy_drift) < 0.05
        assert rep.symplecticity_defect < 1e-12
        assert rep.momentum_drift is None

    def test_momentum_drift_with_action(self, pair_gf):
        s = HamiltonianSystem(parse(PAIR_H), ["q1", "q2"])
        action = TranslationAction([[1, 1]])
        rep = run_scheme(pair_gf, s, PhasePoint([1.0, -1.0], [1.0, 0.0]),
                         100, 0.01, action=action)
        assert rep.momentum_drift is not None
        assert np.max(rep.momentum_drift) < 1e-12


class TestTransformToEquilibrium:
    def test_free_particle_frozen(self):
        gf = GeneratingFunction("typeI", parse("q*a1-t*a1^2/2"), ("q",),
                                ("a1",))
        s = HamiltonianSystem(parse("0.5*p^2"), ["q"])
        rep = transform_to_equilibrium(gf, s, PhasePoint([2.0], [3.0]),
                                       1.0, 1e-3)
        np.testing.assert_allclose(rep.alphas[0], [3.0], atol=1e-12)
        np.testing.assert_allclose(rep.betas[0], [-2.0], atol=1e-12)
        assert rep.max_var <= 1e-8

    def test_oscillator_quadrature_family(self):
        s = HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])
        gf = quadrature_complete_solution(s, (-0.95, 0.95))
        rep = transform_to_equilibrium(gf, s, PhasePoint([0.0], [1.0]),
                                       1.0, 1e-3, param_guess=[0.5])
        # the family parameter is the conserved energy
        np.testing.assert_allclose(rep.alphas[0], [0.5], atol=1e-10)
        assert rep.max_var <= 1e-6

    def test_needs_type1(self, ho_gf):
        s = HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])
        with pytest.raises(ValueError):
            transform_to_equilibrium(ho_gf, s, PhasePoint([0.0], [1.0]),
                                     1.0, 1e-2)


class TestFlowMomentumCheck:
    def test_invariant_system(self):
        s = HamiltonianSystem(parse(PAIR_H), ["q1", "q2"])
        action = TranslationAction([[1, 1]])
        dev = flow_lagrangian_momentum_check(
            s, action, n_samples=5, t=0.5, dt=1e-3,
            box=[(0.5, 1.0), (-1.0, -0.5), (-1, 1), (-1, 1)])
        assert dev < 1e-10

    def test_non_invariant_rejected(self):
        s = HamiltonianSystem(parse("0.5*(p1^2+p2^2)+q1^2"), ["q1", "q2"])
        action = TranslationAction([[1, 1]])
        with pytest.raises(PreconditionError):
            flow_lagrangian_momentum_check(s, action, n_samples=3, t=0.1)
