"""Pinned numbers of the sweeps over points.

The values were recorded before the sweeps moved onto
``expr.evaluate_rows``: the same inputs must give bit-identical results,
including through root-backed forms, whose solves depend on their order.
"""

import numpy as np
import pytest

from hjreduce.cli import build_system, load_scenario
from hjreduce.expr import Const, Var, linear_combo, parse, substitute
from hjreduce.hj import (OneForm, TwoForm, additive_split_check, check_complete,
                         closedness_residual, cyclic_complete_solution,
                         hj_residual, magnetic_lagrangian_residual,
                         mesh_grid, solve_reduced_1d, time_dependent_residual)
from hjreduce.phase_space import PhasePoint, flow_reference
from hjreduce.reconstruction import lift_solution
from hjreduce.reduction import build_chart, reduced_hamiltonian
from hjreduce.symmetry import check_invariance_lemma


@pytest.fixture(scope="module")
def calogero():
    """The bundled calogero pipeline: system, chart, solution, lifted form."""
    sys_, action, mu = build_system(load_scenario("calogero"))
    chart = build_chart(action)
    h_red = reduced_hamiltonian(sys_, chart, mu)
    sol = solve_reduced_1d(h_red, chart.y_names[0], chart.py_names[0], 2.0,
                           (0.8, 5.0), n_nodes=201)
    form = lift_solution(sol, chart, mu, sys_.coords)
    pts = mesh_grid([(1.0, 4.5), (-2.0, 2.0)], [7, 5])
    grid = pts[:, :1] @ chart.horizontal.T + pts[:, 1:] @ chart.generators.T
    return sys_, action, chart, sol, form, grid


def bent(form):
    """The lifted form with its first component times 1 + q1/10.

    The result is neither closed, nor invariant, nor on one momentum level.
    """
    first, *rest = form.components
    return OneForm(form.coords, components=[
        first * (Const(1.0) + Const(0.1) * Var("q1")), *rest])


class TestPinnedSweepValues:
    def test_hj_residual_and_closedness(self, calogero):
        sys_, _, _, _, form, grid = calogero
        rep = hj_residual(sys_, form, grid)
        assert (repr(rep.e_est), repr(rep.max_dev), repr(rep.closedness)) == (
            "2.0", "2.220446049250313e-16", "0.0")
        assert repr(closedness_residual(bent(form), grid)) == "0.25"

    def test_magnetic_residual(self, calogero):
        sys_, _, _, _, form, grid = calogero
        beta = TwoForm(sys_.coords, {(0, 1): parse("0.3*sin(q1+q2)")})
        assert (repr(magnetic_lagrangian_residual(form, beta, grid))
                == "0.2727892280477045")

    def test_invariance_lemma(self, calogero):
        _, action, _, _, form, grid = calogero
        rep = check_invariance_lemma(action, bent(form), grid)
        assert (repr(rep["j_spread"]), repr(rep["invariance_dev"])) == (
            "0.7464704639528255", "0.13058902698589137")

    def test_additive_split(self, calogero):
        sys_, action, chart, sol, _, grid = calogero
        y = linear_combo(chart.y_block[0], sys_.coords)
        s = (substitute(sol.potential, {chart.y_names[0]: y})
             + Const(0.25) * (Var("q1") + Var("q2")))
        rep = additive_split_check(s, sys_.coords, action, grid)
        assert (repr(rep.mu.tolist()), repr(rep.constant),
                repr(rep.residual)) == ("[0.5]", "0.0", "4.440892098500626e-16")

    def test_time_dependent_residual_and_completeness(self):
        sys_, _, _ = build_system(load_scenario("heavytop"))
        gf = cyclic_complete_solution(sys_, ("phi", "psi"), (0.6, 2.5),
                                      n_quad=40)
        n = 9
        points = {"theta": np.linspace(0.7, 2.4, n),
                  "phi": np.linspace(-2.0, 2.0, n),
                  "psi": np.linspace(2.0, -2.0, n),
                  "t": np.linspace(0.0, 1.0, n),
                  "b1": np.full(n, 3.0), "b2": np.full(n, 0.3),
                  "b3": np.full(n, 0.2)}
        assert (repr(time_dependent_residual(gf, sys_, points))
                == "4.440892098500626e-16")
        rep = check_complete(gf, sys_, points)
        assert (repr(rep.hj_max_dev), repr(rep.min_abs_det)) == (
            "4.440892098500626e-16", "0.37807489215335816")

    def test_trajectory_energies(self, calogero):
        sys_ = calogero[0]
        traj = flow_reference(sys_, PhasePoint([1.0, -1.0], [1.0, 0.0]),
                              0.5, 0.01)
        e = traj.energies(sys_)
        assert [repr(float(v)) for v in e[::10]] == [
            "0.75", "0.7499999999955465", "0.7499999999924047",
            "0.7499999999902723", "0.7499999999888695", "0.7499999999879723"]
