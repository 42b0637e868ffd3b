import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hjreduce.expr import DomainError, UnboundVariableError, parse
from hjreduce.phase_space import (HamiltonianSystem, PhasePoint, Trajectory,
                                  flow_reference, hamiltonian_vector_field,
                                  symplectic_matrix, symplectic_pairing)
from oracles import fd_gradient

PAIR_H = "0.5*(p1^2+p2^2)+1/(q1-q2)^2"


@pytest.fixture(scope="module")
def pair_system():
    return HamiltonianSystem(parse(PAIR_H), ["q1", "q2"])


class TestHamiltonianSystem:
    def test_energy_frozen_value(self, pair_system):
        # 0.5*(1+0) + 1/(0-1)^2 = 1.5
        assert pair_system.energy(PhasePoint([0, 1], [1, 0])) == 1.5

    def test_default_momentum_names(self):
        s = HamiltonianSystem(parse("0.5*p^2"), ["q"])
        assert s.momenta == ("p",)
        s2 = HamiltonianSystem(parse("0.5*(p1^2+p2^2)"), ["q1", "q2"])
        assert s2.momenta == ("p1", "p2")

    def test_undeclared_symbol_rejected(self):
        with pytest.raises(ValueError):
            HamiltonianSystem(parse("0.5*p^2+z"), ["q"])

    @pytest.mark.parametrize("coords, momenta", [(["t"], None),
                                                 (["q"], ["t"])])
    def test_time_is_no_coordinate_or_momentum(self, coords, momenta):
        with pytest.raises(ValueError, match="'t' is the time variable"):
            HamiltonianSystem(parse("0.5*q^2"), coords, momenta)

    def test_time_dependence_flag(self):
        s = HamiltonianSystem(parse("0.5*p^2+t*q"), ["q"])
        assert s.time_dependent
        assert not HamiltonianSystem(parse("0.5*p^2"), ["q"]).time_dependent

    def test_singular_energy(self, pair_system):
        with pytest.raises(DomainError):
            pair_system.energy(PhasePoint([1, 1], [0, 0]))


class TestSingularGuards:
    """Energy guards exact zeros; the vector field and flow guard 1e-12."""

    SYSTEM = HamiltonianSystem("0.5*p^2+1/q", ["q"])
    NEAR = PhasePoint([1e-13], [0.0])

    def test_energy_guards_exact_zero_only(self):
        assert self.SYSTEM.energy(self.NEAR) == 1e13

    def test_vector_field_guards_near_singularity(self):
        with pytest.raises(DomainError):
            hamiltonian_vector_field(self.SYSTEM, self.NEAR)

    def test_flow_step_guards_near_singularity(self):
        with pytest.raises(DomainError):
            flow_reference(self.SYSTEM, self.NEAR, 1e-3, 1e-3)


class TestVectorFieldTime:
    """t, else z's time stamp, is the field's time; a field that reads t
    with neither is unbound."""

    SYSTEM = HamiltonianSystem("0.5*p^2+t*q^2", ["q"])

    def test_time_stamp_is_bound_when_t_is_not_given(self):
        field = hamiltonian_vector_field(self.SYSTEM,
                                         PhasePoint([0.7], [-0.3], t=0.4))
        assert field.tolist() == hamiltonian_vector_field(
            self.SYSTEM, PhasePoint([0.7], [-0.3]), t=0.4).tolist()
        assert field.tolist() == hamiltonian_vector_field(
            self.SYSTEM, PhasePoint([0.7], [-0.3], t=9.0), t=0.4).tolist()
        np.testing.assert_allclose(field, [-0.3, -0.56], rtol=1e-15)

    def test_field_reading_t_without_a_time_is_unbound(self):
        with pytest.raises(UnboundVariableError, match="'t'") as ei:
            hamiltonian_vector_field(self.SYSTEM, PhasePoint([0.7], [-0.3]))
        assert ei.value.name == "t"

    def test_field_not_reading_t_needs_no_time(self):
        s = HamiltonianSystem("0.5*p^2+q^2+t", ["q"])
        assert s.time_dependent
        field = hamiltonian_vector_field(s, PhasePoint([0.7], [-0.3]))
        assert field.tolist() == [-0.3, -1.4]


class TestVectorField:
    def test_pair_system_frozen_value(self, pair_system):
        # dp/dt = -dh/dq = (2/(q1-q2)^3, -2/(q1-q2)^3) = (-2, 2) at q=(0,1)
        z = PhasePoint([0, 1], [0, 0])
        field = hamiltonian_vector_field(pair_system, z)
        np.testing.assert_allclose(field[:2], [0, 0], atol=1e-15)
        np.testing.assert_allclose(field[2:], [-2, 2], rtol=1e-14)

    def test_oscillator_frozen_value(self):
        s = HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])
        field = hamiltonian_vector_field(s, PhasePoint([1], [0]))
        assert field[0] == 0.0 and field[1] == -1.0

    def test_against_fd_gradient(self, pair_system):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.uniform(-2, 2, 2)
            if abs(q[0] - q[1]) < 0.3:
                continue
            p = rng.uniform(-2, 2, 2)
            field = hamiltonian_vector_field(pair_system, PhasePoint(q, p))

            def h_of(z):
                return pair_system.energy(PhasePoint(z[:2], z[2:]))

            grad = fd_gradient(h_of, np.concatenate([q, p]))
            np.testing.assert_allclose(field[:2], grad[2:],
                                       rtol=1e-7, atol=1e-8)
            np.testing.assert_allclose(field[2:], -grad[:2],
                                       rtol=1e-7, atol=1e-8)


class TestSymplectic:
    def test_pairing_frozen(self):
        assert symplectic_pairing([1, 0, 2, 0], [0, 1, 0, 3]) == 0.0
        assert symplectic_pairing([1, 0], [0, 1]) == 1.0
        assert symplectic_pairing([0, 1], [1, 0]) == -1.0

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            assert symplectic_pairing(u, v) == pytest.approx(
                -symplectic_pairing(v, u), abs=1e-12)
            # matches u^T Omega v
            omega = symplectic_matrix(3)
            assert symplectic_pairing(u, v) == pytest.approx(
                float(u @ omega @ v), abs=1e-12)

    def test_matrix_shape(self):
        omega = symplectic_matrix(2)
        assert omega.shape == (4, 4)
        np.testing.assert_array_equal(omega.T, -omega)
        np.testing.assert_array_equal(omega @ omega, -np.eye(4))


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.1, 0.3], np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.1], np.zeros((3, 1)), np.zeros((3, 1)))

    def test_accessors(self):
        tr = Trajectory([0.0, 0.5, 1.0], [[0], [1], [2]], [[5], [5], [5]])
        assert len(tr) == 3
        assert tr.n == 1
        assert tr.dt == 0.5
        z = tr.point(1)
        assert z.q[0] == 1 and z.p[0] == 5 and z.t == 0.5
        assert [pt.t for pt in tr.points()] == [0.0, 0.5, 1.0]

    def test_energies(self):
        s = HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])
        tr = Trajectory([0.0, 1.0], [[1], [0]], [[0], [1]])
        np.testing.assert_allclose(tr.energies(s), [0.5, 0.5])


class TestFlowReference:
    def test_oscillator_vs_scipy(self):
        s = HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])
        z0 = PhasePoint([1.0], [0.0])
        tr = flow_reference(s, z0, 2.0, 1e-3)

        def rhs(t, z):
            return [z[1], -z[0]]

        ref = solve_ivp(rhs, (0, 2), [1.0, 0.0], rtol=1e-12, atol=1e-12)
        assert tr.times[-1] == 2.0
        assert tr.qs[-1, 0] == pytest.approx(ref.y[0, -1], abs=1e-9)
        assert tr.ps[-1, 0] == pytest.approx(ref.y[1, -1], abs=1e-9)
        # energy is conserved to RK4 accuracy
        e = tr.energies(s)
        assert np.max(np.abs(e - 0.5)) < 1e-12

    def test_pair_system_vs_scipy(self, pair_system):
        z0 = PhasePoint([1.0, -1.0], [0.3, -0.1])
        tr = flow_reference(pair_system, z0, 1.0, 1e-3)

        def rhs(t, z):
            sep = z[0] - z[1]
            f = 2.0 / sep ** 3
            return [z[2], z[3], f, -f]

        ref = solve_ivp(rhs, (0, 1), [1.0, -1.0, 0.3, -0.1],
                        rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tr.qs[-1], ref.y[:2, -1], atol=1e-8)
        np.testing.assert_allclose(tr.ps[-1], ref.y[2:, -1], atol=1e-8)

    def test_time_dependent_field(self):
        # h = 0.5 p^2 + t q: dp/dt = -t, dq/dt = p
        s = HamiltonianSystem(parse("0.5*p^2+t*q"), ["q"])
        tr = flow_reference(s, PhasePoint([0.0], [0.0]), 1.0, 1e-3)
        assert tr.ps[-1, 0] == pytest.approx(-0.5, abs=1e-10)
        assert tr.qs[-1, 0] == pytest.approx(-1.0 / 6.0, abs=1e-10)

    def test_start_time_offset(self):
        s = HamiltonianSystem(parse("0.5*p^2"), ["q"])
        tr = flow_reference(s, PhasePoint([0.0], [2.0], t=1.0), 0.5, 0.1)
        assert tr.times[0] == 1.0
        assert tr.times[-1] == pytest.approx(1.5)
        assert tr.qs[-1, 0] == pytest.approx(1.0, abs=1e-12)
