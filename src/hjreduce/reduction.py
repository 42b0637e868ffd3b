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

from .expr import Const, DomainError, add, linear_combo, substitute
from .hj import (PRECONDITION_TOL, SAMPLE_BOX, OneForm, PreconditionError,
                 TwoForm, domain_samples, exterior_derivative,
                 magnetic_lagrangian_residual, pullback)
from .phase_space import PhasePoint
from .symmetry import _require_invariant, form_translates

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
    so p_x is exactly the conserved momentum map.  The blocks are the
    ones ``action`` built when it was made (``_linalg.chart_blocks``),
    and the chart keeps ``action``: every precondition sampled under
    the chart's translations reads it.

    The chart also owns the momentum level: :meth:`level` checks and
    normalizes mu, :meth:`on_level` is the substitution onto the level
    over the horizontal slice, and :meth:`slice_form` pulls a 1-form
    back to that slice.  Reduction, lifts and reconstruction all go
    through these three.
    """

    def __init__(self, action, y_names=None, py_names=None):
        self.action = action
        self.y_block, self.x_block, self.horizontal = action.chart_blocks
        self.generators = action.matrix
        m = self.m
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

    def level(self, mu):
        """mu as a float array; ValueError unless it has k entries."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if mu.size != self.k:
            raise ValueError(f"mu must have {self.k} entries")
        return mu

    def on_level(self, sys, mu):
        """The substitution at level mu, as an ``expr.substitute``
        mapping: q -> L y (the horizontal slice) and p -> Y^T p_y +
        X^T mu, in the chart's reduced names.  ValueError when mu or the
        system does not fit the chart."""
        shifted = zip(self.y_block.T, self.x_block.T @ self.level(mu))
        if sys.n != self.n:
            raise ValueError("system and chart dimensions differ")
        mapping = {v: linear_combo(row, self.y_names)
                   for v, row in zip(sys.coords, self.horizontal)}
        mapping.update({v: add(linear_combo(col, self.py_names), Const(s))
                        for v, (col, s) in zip(sys.momenta, shifted)})
        return mapping

    def slice_form(self, form):
        """The pullback of a full-space 1-form to the horizontal slice
        q = L y, a 1-form in the reduced coordinate names."""
        return OneForm(self.y_names, components=pullback(
            form.components, form.coords, self.horizontal, self.y_names))

    def __repr__(self):
        return f"QuotientChart(n={self.n}, k={self.k})"


def build_chart(action, y_names=None, py_names=None):
    """The quotient chart of a translation action, with reduced names.

    The blocks are the action's own, built once when it was made
    (``TranslationAction``); this names the reduced coordinates and
    momenta (default ``q``/``p`` for one, else ``y1``.. and ``py1``..).
    """
    return QuotientChart(action, y_names=y_names, py_names=py_names)


def reduced_hamiltonian(sys, chart, mu, seed=42):
    """Descend an invariant hamiltonian to the quotient at level mu.

    Substitutes q = L y (the horizontal slice) and p = Y^T p_y + X^T mu
    symbolically; the result is an expression in the reduced names (and
    t) only.  Invariance of h under the chart's translations is sampled
    first (``invariance_report``), and a violation raises
    PreconditionError with the witness point.
    """
    mapping = chart.on_level(sys, mu)
    _require_invariant(chart.action, sys.h, sys.coords, seed,
                       "hamiltonian is not invariant under the action")
    return substitute(sys.h, mapping)


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
    if len(alpha_mu.coords) != chart.n:
        raise ValueError("form and chart dimensions differ")
    mu = chart.level(mu)
    rng = np.random.default_rng(seed)

    def translates(rng):
        q = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(1, chart.n))
        momenta, devs = form_translates(chart.action, alpha_mu, q, rng)
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
    beta = exterior_derivative(chart.slice_form(alpha_mu))
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
    mu = chart.level(mu)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != chart.n:
        raise ValueError("grid points must have the chart's dimension")
    momenta, devs = form_translates(chart.action, form, grid,
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
    return chart.slice_form(form), {"momentum_dev": mom_dev,
                                    "invariance_dev": inv_dev}
