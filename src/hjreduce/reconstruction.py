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
from .hj import OneForm, hj_residual, pullback
from .phase_space import (FLOW_SINGULAR_TOL, HamiltonianSystem, PhasePoint,
                          Trajectory, _rk4)
from .reduction import reduced_hamiltonian
from .symmetry import TranslationAction, form_translates

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


def lift_report(sys, reduced_form, chart, mu, grid, seed=42):
    """Lift and verify: invariance, momentum level, closedness, residual.

    The grid is a set of full-space configuration points.  The momentum
    deviation is max |G^T form(q) - mu| over the grid.  Invariance is
    sampled by translating each grid point by its own random group
    element (drawn in grid order from ``seed``) and comparing the form's
    values (``symmetry.form_translates``).  A point whose values are NaN
    adds nothing to either maximum, and neither does a translate that
    leaves the form's domain.  The Hamilton-Jacobi residual is the
    spread of h along the form's graph (with the closedness
    precondition, to ``PRECONDITION_TOL``, enforced inside).  A
    DomainError of the form on the grid itself propagates, the first
    failing point's.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    form = lift_solution(reduced_form, chart, mu, sys.coords)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    momenta, devs = form_translates(
        TranslationAction(chart.generators.T, chart.n), form, grid,
        np.random.default_rng(seed))
    # fmax skips a NaN row, as a running > maximum does; lift_solution
    # holds mu to k entries
    mom_dev = float(np.fmax.reduce(
        np.max(np.abs(momenta - mu), axis=1, initial=0.0), initial=0.0))
    inv_dev = float(np.fmax.reduce(devs, initial=0.0))
    rep = hj_residual(sys, form, grid)
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

    The samples and then the Hermite midpoints are each evaluated in
    three sweeps over the points (the reduced form, the full dh/dp at
    the lifted points, the reduced dh/dp), so N steps make 6N + 1 root
    solves: the RK4 stages', then the samples', then the midpoints', in
    path order.  When several points fail, the first failure of the
    first failing sweep is the one raised.

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
    shift = x_blk.T @ mu

    def red_field(t, y):
        return projected_vector_field(red_sys, reduced_form, y, t=t)

    def states(ys, ts):
        """Lifted momenta, reduced velocities and group rates at (ys, ts).

        Three sweeps: the reduced form, the full dh/dp at the lifted
        points, the reduced dh/dp.  Each (M @ a[:, :, None])[..., 0] is
        one product M @ a[i] per point, rounded as that point's own.
        """
        reduced_ps = evaluate_rows(reduced_form.components,
                                   reduced_form.coords, ys, FLOW_SINGULAR_TOL)
        ps = (chart.y_block.T @ reduced_ps[:, :, None])[..., 0] + shift
        qdots = evaluate_rows(sys._dh_dp, sys._names, np.hstack(
            [(l_mat @ ys[:, :, None])[..., 0], ps, ts[:, None]]),
            FLOW_SINGULAR_TOL)
        ydots = evaluate_rows(red_sys._dh_dp, red_sys._names,
                              np.hstack([ys, reduced_ps, ts[:, None]]),
                              FLOW_SINGULAR_TOL)
        drift = qdots - (l_mat @ ydots[:, :, None])[..., 0]
        return ps, ydots, (x_blk @ drift[:, :, None])[..., 0]

    times, ys = _rk4(red_field, y0, 0.0, float(t_end), dt)
    ps, fields, rates = states(ys, times)
    h = np.diff(times)[:, None]
    y_mids = 0.5 * (ys[:-1] + ys[1:]) + (h / 8.0) * (fields[:-1] - fields[1:])
    r_mids = states(y_mids, times[:-1] + 0.5 * h[:, 0])[2]
    # the Simpson increments, summed from g0 in step order
    gs = np.cumsum(np.vstack(
        [g0, (h / 6.0) * (rates[:-1] + 4.0 * r_mids + rates[1:])]), axis=0)
    qs = ys @ l_mat.T + gs @ chart.generators.T
    return Trajectory(times, qs, ps)
