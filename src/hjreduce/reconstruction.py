"""Lifting quotient solutions and reconstructing full trajectories.

A solution form on the quotient lifts to an invariant form on the full
configuration space sitting on the chosen momentum level; trajectories
of the full system project to trajectories of the reduced one, and the
group offset lost in projection is integrated beside the reduced path
by the reconstruction equation.  Both directions are provided, plus the
projected first-order dynamics q' = dh/dp(q, form(q)) used to
cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import compile, evaluate_rows, linear_combo, substitute
from .hj import OneForm, hj_residual, pullback
from .phase_space import (FLOW_SINGULAR_TOL, HamiltonianSystem, Trajectory,
                          _rk4, _time)
from .symmetry import form_translates

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
    components = pullback(reduced_form.components, chart.y_names,
                          chart.y_block, coords,
                          shift=chart.x_block.T @ chart.level(mu))
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
    form = lift_solution(reduced_form, chart, mu, sys.coords)
    mu = chart.level(mu)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    momenta, devs = form_translates(chart.action, form, grid,
                                    np.random.default_rng(seed))
    # fmax skips a NaN row, as a running > maximum does
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

    A dh/dp that reads t needs a time: with ``t`` None it raises
    UnboundVariableError, as ``hamiltonian_vector_field`` does, and one
    that does not read t ignores the missing time.  Raises DomainError
    within ``FLOW_SINGULAR_TOL`` of a singularity.
    """
    t = _time(sys._dh_dp, t)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = form.values(q, FLOW_SINGULAR_TOL)
    return np.array(sys._dh_dp_kernel(*q.tolist(), *p.tolist(), t))


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
    """Full trajectory from the reduced flow and the reconstruction equation.

    The configuration is q = L y + G g: y on the quotient, g the group
    offset lost in projection.  Since X G = I and X L = 0, the offset
    obeys the reconstruction equation

        g' = X dh/dp(L y, Y^T p_y + X^T mu, t),   p_y = form(y),

    beside the reduced first-order flow y' = dh_red/dp_y(y, p_y, t).
    Both right-hand sides are expressions in (y, p_y, t), made by the
    chart substitution that gives the reduced hamiltonian, and one
    generated function evaluates them; the state (y, g) is integrated
    with the one RK4 of the flows.  Momenta along the result come from
    the lifted form, so the output sits exactly on the momentum level.

    Every RK4 stage solves the reduced form once, and the sample momenta
    are one sweep of it, so N steps make 5N + 1 root solve calls: the
    RK4 stages', then the samples', in path order.  Each sample but the
    last is also its step's first RK4 stage, so they cover 4N + 1
    distinct points.  The first failing RK4 stage raises its error;
    after a whole RK4, the first failing sample does.

    ``g0`` sets the initial group coordinates (default zero: the path
    starts on the horizontal slice).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.size != chart.m:
        raise ValueError(f"y0 must have {chart.m} entries")
    g0 = np.zeros(chart.k) if g0 is None else np.atleast_1d(np.asarray(g0, float))
    if g0.size != chart.k:
        raise ValueError(f"g0 must have {chart.k} entries")
    on_level = chart.on_level(sys, mu)
    red_sys = HamiltonianSystem(substitute(sys.h, on_level), chart.y_names,
                                chart.py_names)
    dh_dp = [substitute(e, on_level) for e in sys._dh_dp]
    kernel = compile(
        (*red_sys._dh_dp, *(linear_combo(row, dh_dp) for row in chart.x_block)),
        red_sys._names, "reconstruct", FLOW_SINGULAR_TOL)
    m = chart.m

    def field(t, state):
        y = state[:m]
        p_y = reduced_form.values(y, FLOW_SINGULAR_TOL)
        return np.array(kernel(*y.tolist(), *p_y.tolist(), t))

    times, states = _rk4(field, np.concatenate([y0, g0]), 0.0, float(t_end),
                         dt)
    ys, gs = states[:, :m], states[:, m:]
    reduced_ps = evaluate_rows(reduced_form.components, reduced_form.coords,
                               ys, FLOW_SINGULAR_TOL)
    # one product Y^T a[i] per sample, rounded as that sample's own
    ps = (chart.y_block.T @ reduced_ps[:, :, None])[..., 0] \
        + chart.x_block.T @ chart.level(mu)
    qs = ys @ chart.horizontal.T + gs @ chart.generators.T
    return Trajectory(times, qs, ps)
