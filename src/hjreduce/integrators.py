"""Canonical transformations and integrators from generating functions.

A generating function induces an implicit canonical map: the old
momenta pin down the new variables through a Newton solve, and the
remaining partials read off the rest.  Iterating the map of a
near-identity generating function gives a symplectic one-step scheme;
applying the map of a complete Hamilton-Jacobi solution sends the flow
to rest (the transformed variables are constants of motion).  Both
uses share the same solver and exact implicit-function Jacobians.  The
scheme checks step one shared ``ImplicitMap`` loop, and every momentum
drift |J(z) - J(z0)| is measured with ``symmetry.momentum_map``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .expr import DomainError, linear_combo, mul, sub
from .hj import (SAMPLE_BOX, NewtonDivergenceError, SingularJacobianError,
                 SolveError, domain_samples)
from .phase_space import (FLOW_SINGULAR_TOL, PhasePoint, Trajectory,
                          flow_reference, symplectic_matrix)
from .symmetry import _require_invariant, momentum_map

__all__ = [
    "apply_type1", "apply_type2", "ImplicitMap", "map_jacobian",
    "symplecticity_check", "momentum_preservation_check",
    "run_scheme", "SchemeReport",
    "transform_to_equilibrium", "EquilibriumReport",
    "flow_lagrangian_momentum_check",
]

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50


def _solve_newton(residual, jacobian, x0):
    """Damped Newton iterated to a floating-point fixed point.

    Keeps the best iterate seen; a domain error on a trial step halves
    it.  Iteration stops when the point stops moving or the residual
    stops improving, which in the convergent case polishes well past
    ``_NEWTON_TOL`` — callers that accumulate many steps rely on that.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx = residual(x)
    best_x, best_norm = x.copy(), float(np.max(np.abs(fx)))
    stall = 0
    for _ in range(_NEWTON_MAX_ITER):
        if best_norm == 0.0:
            break
        try:
            step = np.linalg.solve(jacobian(x), -fx)
        except np.linalg.LinAlgError as e:
            raise SingularJacobianError(f"newton jacobian is singular: {e}")
        lam = 1.0
        x_new = f_new = None
        for _ in range(60):
            trial = x + lam * step
            try:
                f_trial = residual(trial)
            except (DomainError, SolveError):
                lam *= 0.5
                continue
            x_new, f_new = trial, f_trial
            break
        if x_new is None or np.array_equal(x_new, x):
            break
        x, fx = x_new, f_new
        n = float(np.max(np.abs(fx)))
        if n < best_norm:
            best_x, best_norm, stall = x.copy(), n, 0
        else:
            stall += 1
            if stall >= 3:
                break
    if best_norm <= _NEWTON_TOL:
        return best_x
    raise NewtonDivergenceError(
        f"newton stalled at residual {best_norm:.3e} (tol {_NEWTON_TOL:.1e})")


def _transform(gf, z, t, guess, singular_tol=0.0):
    """Solve dS/dq = p for the new variables; return (q', p', solved).

    The Newton's residual is ``gf.s_q`` minus p and its Jacobian
    ``gf.s_qc`` read row-major as the n x n matrix d2S/dq dc; the
    type-II image is (``gf.s_c``, c) at the solved c.
    """
    n = gf.n
    if z.n != n:
        raise ValueError("point dimension does not match the generating function")
    if len(gf.params) != n:
        raise ValueError("the generating function must have one parameter "
                         "per coordinate")
    s_q, s_c, s_qc = gf.s_q, gf.s_c, gf.s_qc

    def residual(c):
        return gf._at(s_q, z.q, c, t, singular_tol) - z.p

    def jacobian(c):
        return gf._at(s_qc, z.q, c, t, singular_tol).reshape(n, n)

    c0 = z.p if guess is None else np.atleast_1d(np.asarray(guess, dtype=float))
    c = _solve_newton(residual, jacobian, c0)
    return (*_rotated(gf, gf._at(s_c, z.q, c, t, singular_tol), c.copy()), c)


def _rotated(gf, x, y):
    """``gf``'s map read from the type-II frame: (X, Y) or (Y, -X).

    X and Y are the type-II images dS/dc and c, or their Jacobian rows.
    A typeII map is (X, Y); a typeI map is the canonical rotation
    (X, Y) -> (Y, -X), which only swaps and negates, so it is exact.
    """
    return (x, y) if gf.kind == "typeII" else (y, -x)


def _apply(gf, z, t, name, kind):
    """``gf``'s map at z; a ValueError naming ``name`` unless of ``kind``."""
    if gf.kind != kind:
        raise ValueError(f"{name} needs a {kind} generating function")
    q_new, p_new, _ = _transform(gf, z, t, None)
    return PhasePoint(q_new, p_new, t=z.t)


def apply_type2(gf, z, t=0.0):
    """Map of a new-momentum generating function S(t, q, P).

    Solves dS/dq(t, q, P) = p for P and returns (Q, P) with Q = dS/dP.
    The identity map corresponds to S = sum q^i P_i, so for
    near-identity S the old momenta are a good starting guess.
    """
    return _apply(gf, z, t, "apply_type2", "typeII")


def apply_type1(gf, z, t=0.0):
    """Map of a new-position generating function S(t, q, Q).

    Solves dS/dq(t, q, Q) = p for Q and returns (Q, -dS/dQ).  For a
    complete Hamilton-Jacobi solution this is the transformation that
    freezes the dynamics.
    """
    return _apply(gf, z, t, "apply_type1", "typeI")


class ImplicitMap:
    """One-step map of a generating function at a fixed time argument.

    Stateful on purpose: each application warm-starts the Newton solve
    from the previously solved variables, which is what makes long
    trajectories cheap.  Use one instance per trajectory.
    """

    def __init__(self, gf, t=0.0):
        self.gf = gf
        self.t = float(t)
        self._warm = None

    def __call__(self, z):
        q_new, p_new, solved = _transform(self.gf, z, self.t, self._warm)
        self._warm = solved
        return PhasePoint(q_new, p_new, t=z.t)


def map_jacobian(gf, z, t=0.0):
    """Exact 2n x 2n derivative of the induced map at a phase point.

    Implicit differentiation of dS/dq(t, q, c) = p around the solved c:
    with A = d2S/dq dc,  dc/dq = -A^{-1} S_qq  and  dc/dp = A^{-1}, the
    type-II map (dS/dc, c) has the rows [A^T + S_cc dc/dq, S_cc A^{-1}]
    and [dc/dq, A^{-1}].  A typeI map is that map followed by the
    rotation (X, Y) -> (Y, -X): the row blocks swap and the new lower
    one is negated.
    """
    return _jacobian_at(gf, z, t, _transform(gf, z, t, None)[2])


def _jacobian_at(gf, z, t, params):
    """``map_jacobian`` at z around the solved new variables ``params``.

    A, S_qq and S_cc are ``(*gf.s_qc, *gf.s_qq, *gf.s_cc)`` at one point,
    each row-major n x n.
    """
    n = gf.n
    a, s_qq, s_cc = gf._at((*gf.s_qc, *gf.s_qq, *gf.s_cc), z.q, params, t,
                           0.0).reshape(3, n, n)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as e:
        raise SingularJacobianError(
            f"mixed-partial matrix is singular at this point: {e}")
    dc_dq = -a_inv @ s_qq
    x_rows = np.hstack([a.T + s_cc @ dc_dq, s_cc @ a_inv])
    return np.vstack(_rotated(gf, x_rows, np.hstack([dc_dq, a_inv])))


def symplecticity_check(gf, z, t=0.0):
    """Worst entry of M^T Omega M - Omega for the map's Jacobian at z."""
    return _defect(map_jacobian(gf, z, t=t))


def _defect(m):
    """Worst entry of M^T Omega M - Omega."""
    omega = symplectic_matrix(len(m) // 2)
    return float(np.max(np.abs(m.T @ omega @ m - omega)))


def _check_diagonal_invariance(gf, action, seed=42):
    """S(q + G g, c) - S(q, c) = g . G^T c, sampled, witness on failure.

    This is invariance of S under the group acting simultaneously on
    the old and the new variables; it is the condition under which the
    induced map conserves the momentum G^T p.  With x = X q the group
    coordinates of the action's chart (X G = I), it is invariance of
    S - x . G^T c under q -> q + G g alone: one ``invariance_report``
    call, whose witness a failure carries.
    """
    x_block = action.chart_blocks[1]
    pairing = linear_combo(np.ones(action.k), [
        mul(linear_combo(x_row, gf.q_vars), linear_combo(g_col, gf.params))
        for x_row, g_col in zip(x_block, action.matrix.T)])
    _require_invariant(
        action, sub(gf.s, pairing), gf.q_vars, seed,
        "generating function is not invariant under the diagonal action, "
        "so momentum conservation is not guaranteed")


def momentum_preservation_check(gf, action, z0, n_steps, t=0.0, seed=42):
    """Drift of G^T p along n_steps of the induced map.

    Precondition (sampled, witness on failure): S is invariant under
    the diagonal action, the structural property that forces exact
    conservation.  Returns the array of |J(z_k) - J(z_0)| maxima
    (``symmetry.momentum_map``), one entry per visited point, z_0
    included; residual floats come only from the Newton fixed point, so
    the entries stay near machine precision.  The points are those of
    ``run_scheme`` with the same map.
    """
    if gf.kind != "typeII":
        raise ValueError("momentum stepping uses a typeII generating function")
    _check_diagonal_invariance(gf, action, seed=seed)
    return _momentum_drift(action, _steps(gf, z0, n_steps, t)[0])


def _steps(gf, z0, n_steps, t):
    """z0 and the n_steps points after it under one ``ImplicitMap``, and
    the new variables each step solved (``solved[k]`` maps point k)."""
    step = ImplicitMap(gf, t=t)
    points, solved = [z0], []
    for _ in range(n_steps):
        points.append(step(points[-1]))
        solved.append(step._warm)
    return points, solved


def _momentum_drift(action, points):
    """max |J(z) - J(points[0])| at each point, J = ``momentum_map``.

    0.0 everywhere for a trivial action (k = 0).
    """
    j0 = momentum_map(action, points[0])
    return np.array([np.max(np.abs(momentum_map(action, z) - j0), initial=0.0)
                     for z in points])


@dataclass
class SchemeReport:
    """Trajectory of an implicit scheme with its conservation metrics."""
    trajectory: Trajectory
    energy_drift: np.ndarray
    symplecticity_defect: float
    momentum_drift: np.ndarray | None = None


def run_scheme(gf, sys, z0, n_steps, t, action=None):
    """Iterate a generating-function scheme and collect diagnostics.

    ``t`` is the step size (the time argument fed to the generating
    function each step).  Energy drift is |h(z_k) - h(z_0)|; the
    symplecticity defect is the worst Jacobian defect over eight evenly
    spaced states, a NaN defect skipped.  A sampled state that starts a
    step takes its Jacobian around that step's own solve; the final
    state is solved again, as ``symplecticity_check`` does.  With
    ``action`` given, the momentum drift array of
    ``momentum_preservation_check`` is included.
    """
    points, solved = _steps(gf, z0, n_steps, t)
    times = t * np.arange(n_steps + 1)
    qs = np.array([p.q for p in points])
    ps = np.array([p.p for p in points])
    traj = Trajectory(times, qs, ps)
    energies = traj.energies(sys)
    energy_drift = np.abs(energies - energies[0])
    idx = np.unique(np.linspace(0, n_steps, min(8, n_steps + 1),
                                dtype=int))
    # the built-in max from 0.0 skips a NaN defect, as a running > maximum does
    defect = max([0.0, *(
        _defect(_jacobian_at(gf, points[i], t, solved[i])) if i < n_steps
        else symplecticity_check(gf, points[i], t=t) for i in idx)])
    return SchemeReport(trajectory=traj, energy_drift=energy_drift,
                        symplecticity_defect=defect,
                        momentum_drift=None if action is None
                        else _momentum_drift(action, points))


@dataclass
class EquilibriumReport:
    """New variables along a flow under a complete-solution transform."""
    times: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    max_var: float


def transform_to_equilibrium(gf, sys, z0, t_end, dt, param_guess=None):
    """Push a trajectory through the map of a complete solution.

    The system is integrated with the reference scheme; at every sample
    the time-dependent map of ``gf`` (a typeI family) is applied.  If
    the family genuinely solves the evolutionary Hamilton-Jacobi
    equation, the images (alpha, beta) are constants of motion; the
    report's ``max_var`` is the worst total variation observed, the
    operational test of that claim.  Flow and map both raise
    DomainError within ``FLOW_SINGULAR_TOL`` of a division singularity.
    """
    if gf.kind != "typeI":
        raise ValueError("equilibrium transforms use a typeI family")
    if len(gf.params) != gf.n:
        raise ValueError("the family must have one parameter per coordinate")
    traj = flow_reference(sys, z0, t_end, dt)
    n = traj.n
    alphas = np.empty((len(traj), n))
    betas = np.empty((len(traj), n))
    guess = param_guess
    for i in range(len(traj)):
        z = traj.point(i)
        q_new, p_new, solved = _transform(gf, z, traj.times[i], guess,
                                          FLOW_SINGULAR_TOL)
        alphas[i] = q_new
        betas[i] = p_new
        guess = solved
    var = (np.max(np.abs(alphas - alphas[0]), axis=1)
           + np.max(np.abs(betas - betas[0]), axis=1))
    return EquilibriumReport(times=traj.times, alphas=alphas, betas=betas,
                             max_var=float(np.max(var)))


def flow_lagrangian_momentum_check(sys, action, n_samples=20, t=1.0, dt=1e-3,
                                   box=None, seed=42):
    """Momentum conservation along the reference flow, sampled.

    Precondition (sampled by ``invariance_report``): the hamiltonian is
    invariant under the action.  Random initial points are drawn from
    ``box`` (a list of (lo, hi) pairs over the flat (q, p) layout,
    default +-SAMPLE_BOX each), integrated to time ``t``, and the worst
    |J(z(t)) - J(z(0))| (``symmetry.momentum_map``) is returned.  A draw
    whose flow raises DomainError or SolveError is drawn again
    (``hj.domain_samples``); fewer than ``n_samples`` flows in
    50 * ``n_samples`` draws is a PreconditionError.  The reference
    scheme preserves linear momenta to rounding, so the result should
    sit near machine precision.
    """
    _require_invariant(action, sys.h, sys.coords, seed,
                       "hamiltonian is not invariant under the action")
    n = sys.n
    if box is None:
        box = [(-SAMPLE_BOX, SAMPLE_BOX)] * (2 * n)

    def drift(rng):
        flat = np.array([rng.uniform(lo, hi) for lo, hi in box])
        z0 = PhasePoint(flat[:n], flat[n:])
        traj = flow_reference(sys, z0, t, dt)
        return float(_momentum_drift(action, [z0, traj.point(-1)])[1])

    return max([0.0, *domain_samples(
        itertools.repeat(np.random.default_rng(seed)), drift, n_samples,
        shortfall="could not sample the flow's domain")])
