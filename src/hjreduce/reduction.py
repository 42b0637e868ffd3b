"""Reduction of translation-invariant systems to the quotient.

Given a rank-k translation action on R^n, a linear chart splits the
configuration into quotient coordinates y (a basis of invariants) and
group coordinates x, with a preferred horizontal slice x = 0.  An
invariant hamiltonian restricted to a momentum level mu descends to a
function of (y, p_y) alone; the descent is symbolic, so the reduced
hamiltonian is an expression in the reduced names with the x-block
eliminated exactly.

When the momentum level is realized by a non-flat connection-like
1-form, its exterior derivative descends to a closed 2-form on the
quotient (the magnetic term); reduced solutions then satisfy
d(gamma) = -beta instead of closedness.  Projection lives here too; the
2-form vocabulary and the magnetic residual check live in ``hj`` and
are re-exported from here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .expr import Const, DomainError, add, linear_combo, substitute
from .hj import (PRECONDITION_TOL, SAMPLE_BOX, OneForm, PreconditionError,
                 TwoForm, domain_samples, exterior_derivative,
                 magnetic_lagrangian_residual, pullback)
from .phase_space import TIME, PhasePoint
from .symmetry import TranslationAction, form_translates, invariance_report

__all__ = [
    "QuotientChart", "build_chart", "reduced_hamiltonian",
    "TwoForm", "exterior_derivative", "magnetic_term", "MagneticTerm",
    "momentum_shift", "magnetic_lagrangian_residual", "project_lagrangian",
]


def _default_names(m):
    if m == 1:
        return ("q",), ("p",)
    return (tuple(f"y{i+1}" for i in range(m)),
            tuple(f"py{i+1}" for i in range(m)))


class QuotientChart:
    """Linear splitting of R^n into quotient and group directions.

    y = Y q are invariants (Y G = 0), x = X q are group coordinates
    (X G = I), and L is the horizontal lift: q = L y + G x with
    Y L = I and X L = 0.  Momenta split as p_y = L^T p, p_x = G^T p,
    so p_x is exactly the conserved momentum map.
    """

    def __init__(self, y_block, x_block, horizontal, generators,
                 y_names=None, py_names=None):
        self.y_block = np.asarray(y_block, dtype=float)
        self.x_block = np.asarray(x_block, dtype=float)
        self.horizontal = np.asarray(horizontal, dtype=float)
        self.generators = np.asarray(generators, dtype=float)
        n = self.generators.shape[0]
        k = self.generators.shape[1]
        m = n - k
        if self.y_block.shape != (m, n) or self.x_block.shape != (k, n):
            raise ValueError("block shapes are inconsistent")
        if self.horizontal.shape != (n, m):
            raise ValueError("horizontal lift must be n x (n-k)")
        defaults = _default_names(m)
        self.y_names = tuple(y_names) if y_names is not None else defaults[0]
        self.py_names = tuple(py_names) if py_names is not None else defaults[1]
        if len(self.y_names) != m or len(self.py_names) != m:
            raise ValueError(f"need {m} reduced coordinate/momentum names")

    @property
    def n(self):
        return self.generators.shape[0]

    @property
    def k(self):
        return self.generators.shape[1]

    @property
    def m(self):
        return self.n - self.k

    def split(self, z):
        """PhasePoint -> (y, p_y, x, p_x); p_x is the momentum map."""
        y = self.y_block @ z.q
        x = self.x_block @ z.q
        p_y = self.horizontal.T @ z.p
        p_x = self.generators.T @ z.p
        return y, p_y, x, p_x

    def assemble(self, y, p_y, x=None, p_x=None):
        """Inverse of split: q = L y + G x, p = Y^T p_y + X^T p_x."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        p_y = np.atleast_1d(np.asarray(p_y, dtype=float))
        x = np.zeros(self.k) if x is None else np.atleast_1d(x)
        p_x = np.zeros(self.k) if p_x is None else np.atleast_1d(p_x)
        q = self.horizontal @ y + self.generators @ x
        p = self.y_block.T @ p_y + self.x_block.T @ p_x
        return PhasePoint(q, p)

    def __repr__(self):
        return f"QuotientChart(n={self.n}, k={self.k})"


def build_chart(action, y_names=None, py_names=None):
    """Chart for the quotient by a translation action.

    The invariant block Y is the reduced-echelon left-null basis of the
    generator matrix (first nonzero entry of each row positive), the
    group block is X = (G^T G)^{-1} G^T, and the horizontal lift is the
    corresponding block of the inverse of the stacked map.  The trivial
    action (k = 0) gives Y = L = I and the full-rank one (k = n) empty
    Y and L, with no case of their own.
    """
    g = np.asarray(action.matrix, dtype=float)
    n, k = g.shape
    y_block = _linalg.left_null_basis(g)
    x_block = _linalg.group_projection(g)
    horizontal = np.linalg.solve(
        np.vstack([y_block, x_block]),
        np.vstack([np.eye(n - k), np.zeros((k, n - k))]))
    return QuotientChart(y_block, x_block, horizontal, g,
                         y_names=y_names, py_names=py_names)


def reduced_hamiltonian(sys, chart, mu, check=True, seed=42):
    """Descend an invariant hamiltonian to the quotient at level mu.

    Substitutes q = L y (the horizontal slice) and p = Y^T p_y + X^T mu
    symbolically; the result is an expression in the reduced names only.
    With ``check`` on, invariance of h under the chart's translations is
    sampled first (``invariance_report``) and a violation raises
    PreconditionError with the witness point.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.size != chart.k:
        raise ValueError(f"mu must have {chart.k} entries")
    if sys.n != chart.n:
        raise ValueError("system and chart dimensions differ")
    if check and chart.k:
        action = TranslationAction(chart.generators.T)
        rep = invariance_report(action, sys.h, sys.coords, seed=seed)
        if not rep["ok"]:
            raise PreconditionError(
                "hamiltonian is not invariant under the action",
                witness=rep["witness"])
    mapping = {v: linear_combo(row, chart.y_names)
               for v, row in zip(sys.coords, chart.horizontal)}
    shift = chart.x_block.T @ mu
    mapping.update({v: add(linear_combo(col, chart.py_names), Const(s))
                    for v, col, s in zip(sys.momenta, chart.y_block.T, shift)})
    h_red = substitute(sys.h, mapping)
    allowed = set(chart.y_names) | set(chart.py_names) | {TIME}
    stray = h_red.free_vars() - allowed
    if stray:
        raise PreconditionError(
            f"reduced hamiltonian still depends on {sorted(stray)}")
    return h_red


# ---------------------------------------------------------------------------
# Magnetic (curvature) terms.

@dataclass
class MagneticTerm:
    """Closed 2-form on the quotient induced by a momentum-level 1-form."""
    beta: TwoForm
    pullback_residual: float
    momentum_dev: float
    invariance_dev: float


def magnetic_term(chart, alpha_mu, mu, seed=42):
    """Quotient 2-form whose pullback is d(alpha_mu).

    ``alpha_mu`` is a 1-form on the full configuration space realizing
    the momentum level: it must be invariant under the chart's
    translations and satisfy G^T alpha_mu = mu pointwise.  Both are
    preconditions, sampled at 50 points, each a one-row
    ``symmetry.form_translates`` call; a point where the form or its
    translate cannot be evaluated, or whose deviation is NaN, is
    redrawn.  The returned entries are the
    exterior derivative of the pullback of alpha_mu to the horizontal
    slice; the pullback identity (full-space d alpha against the quotient
    form) is spot-checked at 20 more points and its worst deviation
    reported.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if len(alpha_mu.coords) != chart.n:
        raise ValueError("form and chart dimensions differ")
    if mu.size != chart.k:
        raise ValueError(f"mu must have {chart.k} entries")
    rng = np.random.default_rng(seed)
    action = TranslationAction(chart.generators.T, chart.n)

    def translates(rng):
        q = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(1, chart.n))
        momenta, devs = form_translates(action, alpha_mu, q, rng)
        if np.isnan(devs[0]):
            raise DomainError("the form's translate could not be compared")
        return q[0], momenta[0], float(devs[0])

    inv_dev = 0.0
    mom_dev = 0.0
    for q, jv, dev in domain_samples(
            itertools.repeat(rng), translates, 50,
            shortfall="could not sample the form's domain"):
        inv_dev = max(inv_dev, dev)
        if mu.size:
            mom_dev = max(mom_dev, float(np.max(np.abs(jv - mu))))
        if inv_dev > PRECONDITION_TOL:
            raise PreconditionError(
                "momentum-level form is not invariant", witness=q.tolist())
        if mom_dev > PRECONDITION_TOL:
            raise PreconditionError(
                "form does not realize the momentum level mu",
                witness={"point": q.tolist(), "momentum": jv.tolist()})
    reduced = pullback(alpha_mu.components, alpha_mu.coords, chart.horizontal,
                       chart.y_names)
    tilde = OneForm(chart.y_names, components=reduced)
    beta = exterior_derivative(tilde)
    d_full = exterior_derivative(alpha_mu)
    y_blk = chart.y_block

    def pullback_dev(rng):
        q = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=chart.n)
        d_mat = d_full.matrix_at(q)
        b_mat = beta.matrix_at(y_blk @ q)
        return float(np.max(np.abs(d_mat - y_blk.T @ b_mat @ y_blk)))

    worst = max([0.0, *domain_samples(itertools.repeat(rng, 20),
                                      pullback_dev)])
    return MagneticTerm(beta=beta, pullback_residual=worst,
                        momentum_dev=mom_dev, invariance_dev=inv_dev)


def momentum_shift(z, alpha_mu):
    """Shift momenta down by the 1-form's value: (q, p - alpha(q))."""
    return PhasePoint(z.q, z.p - alpha_mu.values(z.q), t=z.t)


def project_lagrangian(form, chart, mu, grid, seed=42):
    """Project an invariant momentum-level 1-form to the quotient.

    Preconditions on the grid, within ``PRECONDITION_TOL``: the form's
    momenta G^T form(q) equal mu everywhere, and it is invariant under
    the chart's translations (``symmetry.form_translates``, one random
    group shift per point; a translate that leaves the domain is not
    compared).  The first grid point that breaks either raises
    PreconditionError with that point as witness, the momentum level
    checked first.  The form is swept over the whole grid before any
    check, so a DomainError anywhere in it wins over a precondition
    failure at an earlier point.  ``mu`` must have one entry per
    generator (ValueError otherwise).  Returns the reduced form and a
    report with the measured deviations.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.size != chart.k:
        raise ValueError(f"mu must have {chart.k} entries")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != chart.n:
        raise ValueError("grid points must have the chart's dimension")
    momenta, devs = form_translates(
        TranslationAction(chart.generators.T, chart.n), form, grid,
        np.random.default_rng(seed))
    mom_devs = np.max(np.abs(momenta - mu), axis=1, initial=0.0)
    off_level = mom_devs > PRECONDITION_TOL
    bad = np.flatnonzero(off_level | (devs > PRECONDITION_TOL))
    if bad.size and off_level[bad[0]]:
        raise PreconditionError(
            "form does not sit on the momentum level mu",
            witness={"point": grid[bad[0]].tolist(),
                     "momentum": momenta[bad[0]].tolist()})
    if bad.size:
        raise PreconditionError("form is not invariant under the action",
                                witness=grid[bad[0]].tolist())
    # fmax skips a NaN deviation, as a running > maximum does
    mom_dev = float(np.fmax.reduce(mom_devs, initial=0.0))
    inv_dev = float(np.fmax.reduce(devs, initial=0.0))
    reduced = pullback(form.components, form.coords, chart.horizontal,
                       chart.y_names)
    tilde = OneForm(chart.y_names, components=reduced)
    return tilde, {"momentum_dev": mom_dev, "invariance_dev": inv_dev}
