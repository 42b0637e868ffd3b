"""Lifting quotient solutions and reconstructing full trajectories.

A solution form on the quotient lifts to an invariant form on the full
configuration space sitting on the chosen momentum level; trajectories
of the full system project to trajectories of the reduced one, and the
group offset lost in projection is recovered by a quadrature along the
reduced path.  Both directions are provided, plus the projected
first-order dynamics q' = dh/dp(q, form(q)) used to cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import evaluate_rows
from .hj import PRECONDITION_TOL, OneForm, hj_residual, pullback
from .phase_space import (FLOW_SINGULAR_TOL, HamiltonianSystem, PhasePoint,
                          Trajectory, _rk4)
from .reduction import reduced_hamiltonian
from .symmetry import TranslationAction

__all__ = [
    "lift_solution", "lift_report", "ReconstructionReport",
    "projected_vector_field", "integrate_projected",
    "reconstruct_trajectory",
]


def lift_solution(reduced_form, chart, mu, coords):
    """Lift a quotient 1-form to an invariant momentum-level form.

    The lifted components are c_i(q) = sum_j Y[j, i] tilde_c_j(Y q)
    plus the constant momentum-level offset (X^T mu)_i, written
    symbolically in the full coordinate names ``coords``.  The lift
    inverts projection: pulling the result back to the horizontal slice
    returns the reduced form.
    """
    coords = tuple(coords)
    if len(coords) != chart.n:
        raise ValueError(f"need {chart.n} coordinate names")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.size != chart.k:
        raise ValueError(f"mu must have {chart.k} entries")
    components = pullback(reduced_form.components, chart.y_names,
                          chart.y_block, coords, shift=chart.x_block.T @ mu)
    return OneForm(coords, components=components)


@dataclass
class ReconstructionReport:
    """Lifted form with its membership residuals on a grid."""
    form: OneForm
    invariance_dev: float
    momentum_dev: float
    closedness: float
    hj_max_dev: float
    energy: float


def lift_report(sys, reduced_form, chart, mu, grid,
                closed_tol=PRECONDITION_TOL, seed=42):
    """Lift and verify: invariance, momentum level, closedness, residual.

    The grid is a set of full-space configuration points.  Invariance is
    sampled with random group shifts of the grid points; the momentum
    deviation is max |G^T form(q) - mu|; the Hamilton-Jacobi residual is
    the spread of h along the form's graph (with the closedness
    precondition enforced inside).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    form = lift_solution(reduced_form, chart, mu, sys.coords)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    rng = np.random.default_rng(seed)
    action = TranslationAction(chart.generators.T) if chart.k else None
    inv_dev = 0.0
    mom_dev = 0.0
    for q in grid:
        v = form.values(q)
        if mu.size:
            mdev = float(np.max(np.abs(chart.generators.T @ v - mu)))
            if mdev > mom_dev:
                mom_dev = mdev
        if action is not None:
            g = rng.uniform(-1.0, 1.0, size=chart.k)
            v2 = form.values(action.translate(q, g))
            dev = float(np.max(np.abs(v2 - v)))
            if dev > inv_dev:
                inv_dev = dev
    rep = hj_residual(sys, form, grid, closed_tol=closed_tol)
    return ReconstructionReport(form=form, invariance_dev=inv_dev,
                                momentum_dev=mom_dev,
                                closedness=rep.closedness,
                                hj_max_dev=rep.max_dev, energy=rep.e_est)


def projected_vector_field(sys, form, q, t=None):
    """q' = dh/dp evaluated on the graph of the form (first-order flow).

    Raises DomainError within ``FLOW_SINGULAR_TOL`` of a singularity.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return sys._values(sys._dh_dp, q, form.values(q, FLOW_SINGULAR_TOL),
                       0.0 if t is None else float(t), FLOW_SINGULAR_TOL)


def integrate_projected(sys, form, q0, t_end, dt):
    """Integrate the projected flow; momenta are read off the form.

    Any solution of this first-order system is automatically a solution
    of the full canonical equations when the form solves the
    Hamilton-Jacobi equation, which makes it a cheap cross-check for
    reconstruction.
    """
    def field(t, q):
        return projected_vector_field(sys, form, q, t=t)

    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    times, qs = _rk4(field, q0, 0.0, float(t_end), dt)
    ps = evaluate_rows(form.components, form.coords, qs, FLOW_SINGULAR_TOL)
    return Trajectory(times, qs, ps)


def reconstruct_trajectory(sys, reduced_form, chart, mu, y0, t_end, dt,
                           g0=None):
    """Full trajectory from the reduced flow plus a group quadrature.

    The reduced first-order flow y' = dh_red/dp_y(y, form(y)) is
    integrated with RK4; its horizontal image d(s) = L y(s) differs
    from the true configuration path by a group offset g(s) recovered
    from

        g'(s) = X ( dh/dp(d(s), p(s)) - d'(s) ),   p(s) the lifted
        momenta on the level mu,

    accumulated per step by Simpson's rule with the midpoint state
    taken from the cubic Hermite interpolant of the reduced path.
    Momenta along the result come from the lifted form, so the output
    sits exactly on the momentum level.

    ``g0`` sets the initial group coordinates (default zero: the path
    starts on the horizontal slice).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.size != chart.m:
        raise ValueError(f"y0 must have {chart.m} entries")
    g0 = np.zeros(chart.k) if g0 is None else np.atleast_1d(np.asarray(g0, float))
    h_red = reduced_hamiltonian(sys, chart, mu, check=False)
    red_sys = HamiltonianSystem(h_red, chart.y_names, chart.py_names)
    l_mat = chart.horizontal
    x_blk = chart.x_block
    g_mat = chart.generators
    shift = x_blk.T @ mu

    def red_field(t, y):
        return projected_vector_field(red_sys, reduced_form, y, t=t)

    def lifted_p(reduced_p):
        return chart.y_block.T @ reduced_p + shift

    def state(y, t):
        """Reduced momenta, reduced velocity and group rate at (y, t)."""
        reduced_p = reduced_form.values(y, FLOW_SINGULAR_TOL)
        qdot = sys._values(sys._dh_dp, l_mat @ y, lifted_p(reduced_p), t,
                           FLOW_SINGULAR_TOL)
        ydot = red_sys._values(red_sys._dh_dp, y, reduced_p, float(t),
                               FLOW_SINGULAR_TOL)
        return reduced_p, ydot, x_blk @ (qdot - l_mat @ ydot)

    times, ys = _rk4(red_field, y0, 0.0, float(t_end), dt)
    n_samples = times.size
    samples = [state(ys[i], times[i]) for i in range(n_samples)]
    reduced_ps, fields, rates = (np.array(col) for col in zip(*samples))
    gs = np.empty((n_samples, chart.k))
    gs[0] = g0
    for i in range(n_samples - 1):
        h = times[i + 1] - times[i]
        y_mid = (0.5 * (ys[i] + ys[i + 1])
                 + (h / 8.0) * (fields[i] - fields[i + 1]))
        r_mid = state(y_mid, times[i] + 0.5 * h)[2]
        gs[i + 1] = gs[i] + (h / 6.0) * (rates[i] + 4.0 * r_mid + rates[i + 1])
    qs = ys @ l_mat.T + gs @ g_mat.T
    ps = np.array([lifted_p(p) for p in reduced_ps])
    return Trajectory(times, qs, ps)
