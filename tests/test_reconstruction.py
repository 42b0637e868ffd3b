import numpy as np
import pytest

from hjreduce.cli import build_system, load_scenario
from hjreduce.expr import parse
from hjreduce.hj import ImplicitBranchRoot, mesh_grid, solve_reduced_1d
from hjreduce.phase_space import HamiltonianSystem, PhasePoint, flow_reference
from hjreduce.reconstruction import (integrate_projected, lift_report,
                                     lift_solution, reconstruct_trajectory)
from hjreduce.reduction import build_chart, reduced_hamiltonian
from hjreduce.symmetry import TranslationAction, momentum_map

PAIR_H = "0.5*(p1^2+p2^2)+1/(q1-q2)^2"


def fresh_solution(sys_, chart, mu):
    """A new table root on the reduced problem: its memo is empty."""
    return solve_reduced_1d(reduced_hamiltonian(sys_, chart, mu),
                            chart.y_names[0], chart.py_names[0], 2.0,
                            (0.8, 5.0), n_nodes=201)


def count_newton_runs(root):
    """The arguments of each Newton run on ``root`` from now on."""
    runs, newton = [], root._newton
    root._newton = lambda *a: (runs.append(a[:-2]), newton(*a))[1]
    return runs


@pytest.fixture(scope="module")
def pair_setup():
    sys_ = HamiltonianSystem(parse(PAIR_H), ["q1", "q2"])
    action = TranslationAction([[1, 1]])
    chart = build_chart(action)
    mu = np.zeros(1)
    h_red = reduced_hamiltonian(sys_, chart, mu)
    sol = solve_reduced_1d(h_red, "q", "p", 2.0, (0.8, 5.0))
    return sys_, action, chart, mu, sol


class TestLiftSolution:
    def test_components_antisymmetric(self, pair_setup):
        sys_, action, chart, mu, sol = pair_setup
        form = lift_solution(sol, chart, mu, sys_.coords)
        assert form.coords == ("q1", "q2")
        vals = form.values([1.0, -1.0])
        root = sol.root.solve((2.0,))
        np.testing.assert_allclose(vals, [root, -root], rtol=1e-14)

    def test_momentum_level(self, pair_setup):
        sys_, action, chart, mu, sol = pair_setup
        form = lift_solution(sol, chart, mu, sys_.coords)
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = float(rng.uniform(1.0, 4.5))
            x = float(rng.uniform(-3, 3))
            q = np.array([x + 0.5 * y, x - 0.5 * y])
            j = momentum_map(action, PhasePoint(q, form.values(q)))
            np.testing.assert_allclose(j, mu, atol=1e-13)

    def test_nonzero_mu_shift(self, pair_setup):
        sys_, action, chart, _, sol = pair_setup
        mu = np.array([0.8])
        form = lift_solution(sol, chart, mu, sys_.coords)
        q = np.array([1.0, -1.0])
        j = momentum_map(action, PhasePoint(q, form.values(q)))
        np.testing.assert_allclose(j, mu, atol=1e-13)


class TestLiftReport:
    def test_full_space_residual(self, pair_setup):
        sys_, action, chart, mu, sol = pair_setup
        pts = mesh_grid([(1.0, 5.0), (-2.0, 2.0)], [30, 30])
        grid = (pts[:, :1] @ chart.horizontal.T
                + pts[:, 1:] @ chart.generators.T)
        rep = lift_report(sys_, sol, chart, mu, grid)
        assert rep.hj_max_dev <= 1e-8
        assert rep.momentum_dev <= 1e-12
        assert rep.invariance_dev <= 1e-12
        assert rep.energy == pytest.approx(2.0, abs=1e-12)


    def test_one_newton_run_per_distinct_argument(self):
        # the sweeps and the residuals read each quotient point many times
        sys_, action, mu = build_system(load_scenario("calogero"))
        chart = build_chart(action)
        sol = fresh_solution(sys_, chart, mu)
        runs = count_newton_runs(sol.root)
        pts = mesh_grid([(1.0, 4.5), (-2.0, 2.0)], [50, 50])
        grid = (pts[:, :1] @ chart.horizontal.T
                + pts[:, 1:] @ chart.generators.T)
        lift_report(sys_, sol, chart, mu, grid)
        assert len(runs) == len(set(runs)) == 135


class TestIntegrateProjected:
    def test_matches_full_flow_from_graph(self, pair_setup):
        sys_, action, chart, mu, sol = pair_setup
        form = lift_solution(sol, chart, mu, sys_.coords)
        q0 = np.array([1.0, -1.0])
        traj = integrate_projected(sys_, form, q0, 1.0, 1e-3)
        z0 = PhasePoint(q0, form.values(q0))
        ref = flow_reference(sys_, z0, 1.0, 1e-3)
        # the graph of the solution is invariant under the flow
        assert np.max(np.abs(traj.qs - ref.qs)) < 1e-9
        assert np.max(np.abs(traj.ps - ref.ps)) < 1e-9

    def test_graph_relatedness(self, pair_setup):
        sys_, action, chart, mu, sol = pair_setup
        form = lift_solution(sol, chart, mu, sys_.coords)
        q0 = np.array([1.0, -1.0])
        z0 = PhasePoint(q0, form.values(q0))
        ref = flow_reference(sys_, z0, 1.0, 1e-3)
        worst = max(float(np.max(np.abs(form.values(ref.qs[i]) - ref.ps[i])))
                    for i in range(0, len(ref), 50))
        assert worst < 1e-9


class TestReconstructTrajectory:
    def test_pair_system_start_and_momentum(self, pair_setup):
        sys_, action, chart, mu, sol = pair_setup
        traj = reconstruct_trajectory(sys_, sol, chart, mu,
                                      np.array([2.0]), 1.0, 1e-3)
        np.testing.assert_allclose(traj.qs[0], [1.0, -1.0], atol=1e-14)
        root = sol.root.solve((2.0,))
        np.testing.assert_allclose(traj.ps[0], [root, -root], rtol=1e-13)
        # momentum map stays on the mu level all along
        for i in range(0, len(traj), 100):
            j = momentum_map(action, PhasePoint(traj.qs[i], traj.ps[i]))
            np.testing.assert_allclose(j, mu, atol=1e-12)

    def test_matches_projected_integration(self, pair_setup):
        sys_, action, chart, mu, sol = pair_setup
        traj = reconstruct_trajectory(sys_, sol, chart, mu,
                                      np.array([2.0]), 1.0, 1e-3)
        form = lift_solution(sol, chart, mu, sys_.coords)
        ref = integrate_projected(sys_, form, traj.qs[0], 1.0, 1e-3)
        assert np.max(np.abs(traj.qs - ref.qs)) < 1e-8
        assert np.max(np.abs(traj.ps - ref.ps)) < 1e-8

    def test_six_root_solves_per_step(self, pair_setup, monkeypatch):
        # four RK4 stages, then one state per sample and per midpoint
        sys_, action, chart, mu, sol = pair_setup
        calls = []
        solve = ImplicitBranchRoot.solve

        def counting(self, args):
            calls.append(self)
            return solve(self, args)

        monkeypatch.setattr(ImplicitBranchRoot, "solve", counting)
        traj = reconstruct_trajectory(sys_, sol, chart, mu, np.array([2.0]),
                                      0.2, 1e-2)
        n_steps = len(traj.times) - 1
        assert n_steps == 20
        assert calls == [sol.root] * (6 * n_steps + 1)

    def test_one_newton_run_per_distinct_sample(self, pair_setup):
        # each sample y_i is solved as an RK4 stage and again as a state:
        # 6N + 1 solve calls over 5N + 1 distinct points
        sys_, action, chart, mu, _ = pair_setup
        sol = fresh_solution(sys_, chart, mu)
        runs = count_newton_runs(sol.root)
        reconstruct_trajectory(sys_, sol, chart, mu, np.array([2.0]), 0.2,
                               1e-2)
        assert len(runs) == len(set(runs)) == 5 * 20 + 1

    def test_g0_offset_translates(self, pair_setup):
        sys_, action, chart, mu, sol = pair_setup
        t0 = reconstruct_trajectory(sys_, sol, chart, mu, np.array([2.0]),
                                    0.2, 1e-2)
        t1 = reconstruct_trajectory(sys_, sol, chart, mu, np.array([2.0]),
                                    0.2, 1e-2, g0=np.array([3.0]))
        np.testing.assert_allclose(t1.qs, t0.qs + 3.0, atol=1e-12)
        np.testing.assert_allclose(t1.ps, t0.ps, atol=1e-14)

    def test_group_quadrature_linear_oracle(self):
        # translation along x with nonzero momentum level: the fiber
        # coordinate must advance exactly linearly, x(t) = x0 + mu t
        sys_ = HamiltonianSystem(parse("0.5*(px^2+py^2)"), ["x", "y"],
                                 ["px", "py"])
        action = TranslationAction([[1, 0]])
        chart = build_chart(action)
        mu = np.array([3.0])
        h_red = reduced_hamiltonian(sys_, chart, mu)
        # h_red = 0.5 (p^2 + 9); solve at E = 5 -> p = 1 on [0, 4]
        sol = solve_reduced_1d(h_red, chart.y_names[0], chart.py_names[0],
                               5.0, (0.0, 4.0), n_nodes=201)
        traj = reconstruct_trajectory(sys_, sol, chart, mu,
                                      np.array([1.0]), 1.0, 1e-2)
        # x = 0 + 3 t, y = 1 + t (unit reduced velocity)
        np.testing.assert_allclose(traj.qs[:, 0], 3.0 * traj.times,
                                   atol=1e-10)
        np.testing.assert_allclose(traj.qs[:, 1], 1.0 + traj.times,
                                   atol=1e-10)
        np.testing.assert_allclose(traj.ps[:, 0], 3.0, atol=1e-12)
        np.testing.assert_allclose(traj.ps[:, 1], 1.0, atol=1e-12)
