"""Translation symmetries and their conserved momenta.

An action of R^k on configuration space R^n by commuting translations
q -> q + G g (G the n-by-k matrix of generator directions) lifts to
phase space leaving the momenta untouched.  The lift conserves the
linear momentum map J(q, p) = G^T p for any invariant hamiltonian.

Invariance of functions and 1-forms is checked by seeded sampling:
translate the configuration variables by random group elements and
compare.  Every sampled check of a scalar function is a call of
``invariance_report``, and every such precondition raises its
PreconditionError through ``_require_invariant``; every check of a
1-form (its momenta on a level and its values under translation) is a
call of ``form_translates``.
``check_invariance_lemma`` tests, on a concrete closed form, the
equivalence between invariance of the form and constancy of the
momentum map along its graph.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _linalg
from .expr import DomainError, evaluate_rows, parse
from .hj import (PRECONDITION_TOL, SAMPLE_BOX, PreconditionError, SolveError,
                 domain_samples)
from .phase_space import PhasePoint

__all__ = [
    "TranslationAction", "cotangent_lift", "momentum_map",
    "invariance_report", "form_translates", "check_invariance_lemma",
]


class TranslationAction:
    """q -> q + G g for g in R^k.

    ``generators`` lists the k direction vectors (length n each); they
    become the columns of G.  The action builds its quotient chart once,
    here: ``chart_blocks`` holds the blocks (Y, X, L) of
    ``_linalg.chart_blocks``, which every ``reduction.QuotientChart`` of
    the action reads, and an action is made only from generators that
    have them (ValueError otherwise: the Gram matrix G^T G overflows, or
    the generators are linearly dependent as the chart sees them).
    k = 0 is allowed (trivial action) but then ``n`` must be given.
    """

    def __init__(self, generators, n=None):
        arr = np.asarray(generators, dtype=float)
        if arr.size == 0:
            if n is None:
                raise ValueError("an empty action needs an explicit n")
            self.matrix = np.zeros((int(n), 0))
        else:
            if arr.ndim == 1:
                arr = arr[None, :]
            if arr.ndim != 2:
                raise ValueError("generators must be vectors of equal length")
            if n is not None and arr.shape[1] != int(n):
                raise ValueError(
                    f"generators have length {arr.shape[1]}, expected {n}")
            self.matrix = arr.T.copy()
        self.chart_blocks = _linalg.chart_blocks(self.matrix)
        for a in (self.matrix, *self.chart_blocks):
            a.setflags(write=False)

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def k(self):
        return self.matrix.shape[1]

    def translate(self, q, g):
        """Apply the group element g to a configuration point."""
        q = np.asarray(q, dtype=float)
        g = np.atleast_1d(np.asarray(g, dtype=float))
        if g.size != self.k:
            raise ValueError(f"group element must have {self.k} entries")
        return q + self.matrix @ g

    def __repr__(self):
        return f"TranslationAction(n={self.n}, k={self.k})"


def cotangent_lift(action, g, z):
    """Lifted action on phase space: shifts q, leaves p unchanged."""
    return PhasePoint(action.translate(z.q, g), z.p, t=z.t)


def momentum_map(action, z):
    """Conserved momenta J = G^T p of the lifted action at a point."""
    if isinstance(z, PhasePoint):
        p = z.p
    else:
        flat = np.asarray(z, dtype=float)
        p = flat[flat.size // 2:]
    return action.matrix.T @ p


def invariance_report(action, f, coords, seed=42):
    """Sampled invariance of a scalar expression under the action.

    At each of 50 samples every free variable of ``f`` is drawn
    uniformly from +-``SAMPLE_BOX``; the variables listed in ``coords``
    (the configuration block the action moves) are then translated by a
    random group element and the values compared with the relative-scaled
    ``PRECONDITION_TOL``.  Samples where either evaluation hits a domain
    error are redrawn; PreconditionError if too few samples can be drawn.

    When ``f`` reads no coordinate the action moves (a coordinate whose
    row of G is not all zero), both evaluations of every sample would be
    the same, so the report is ``ok`` with deviation 0.0 and no witness,
    drawn without a sample; the shortfall error cannot occur on this
    path.  Every sampled invariance precondition on a scalar function
    is a call of this function; a sample's two points are one two-row
    ``evaluate_rows`` call.
    """
    f = parse(f) if isinstance(f, str) else f
    coords = tuple(coords)
    if len(coords) != action.n:
        raise ValueError("coords must list one name per action dimension")
    moved = {c for c, row in zip(coords, action.matrix) if row.any()}
    if not moved & f.free_vars():
        return {"ok": True, "max_rel_dev": 0.0, "witness": None}
    names = sorted(f.free_vars())
    rng = np.random.default_rng(seed)

    def measure(rng):
        b = dict(zip(names, rng.uniform(-SAMPLE_BOX, SAMPLE_BOX,
                                        len(names)).tolist()))
        g = rng.uniform(-1.0, 1.0, size=action.k)
        moved = dict(zip(coords, action.translate(
            [b.get(c, 0.0) for c in coords], g)))
        v1, v2 = map(float, evaluate_rows(
            [f], names, [list(b.values()),
                         [moved.get(nm, b[nm]) for nm in names]])[:, 0])
        return (abs(v2 - v1) / (1.0 + abs(v1)),
                {"point": b, "shift": g.tolist(), "values": (v1, v2)})

    results = list(domain_samples(
        itertools.repeat(rng), measure, 50,
        shortfall="could not draw enough domain-valid samples"))
    # the first sample of largest deviation, as a strict > scan finds it
    max_dev, witness = max([(0.0, None), *results], key=lambda r: r[0])
    return {"ok": max_dev <= PRECONDITION_TOL, "max_rel_dev": float(max_dev),
            "witness": witness if max_dev > PRECONDITION_TOL else None}


def _require_invariant(action, f, coords, seed, message):
    """``invariance_report`` of f, raising PreconditionError(message)
    with the report's witness when f is not invariant."""
    rep = invariance_report(action, f, coords, seed=seed)
    if not rep["ok"]:
        raise PreconditionError(message, witness=rep["witness"])


def form_translates(action, form, grid, rng):
    """A 1-form's momenta over a grid, and how far each point's values move.

    The form is swept over ``grid`` (a DomainError or SolveError there
    propagates), and ``momenta[i]`` is G^T form(grid[i]), one stacked
    product per row.  Each point is then translated by its own group
    element, drawn in grid order from ``rng`` as ``uniform(-1, 1)``
    entries, and the form is evaluated at the translates one by one:
    ``devs[i]`` is the largest |translated - untranslated| value, NaN
    ("not compared") where that evaluation raises DomainError or
    SolveError or the deviation is itself NaN.  With k = 0 nothing is
    drawn and every dev is 0.0.  Every sampled check of a 1-form's
    momentum level or invariance is a call of this function.
    """
    vals = evaluate_rows(form.components, form.coords, grid)
    # M @ a[:, :, None] stacks one product M @ a[i] per row, each
    # rounded as that point's own product is
    momenta = (action.matrix.T @ vals[:, :, None])[..., 0]
    if not action.k:
        return momenta, np.zeros(len(grid))
    gs = rng.uniform(-1.0, 1.0, (len(grid), action.k))
    moved = np.full_like(vals, np.nan)
    for i, q in enumerate(grid + (action.matrix @ gs[:, :, None])[..., 0]):
        try:
            moved[i] = form.values(q)
        except (DomainError, SolveError):
            pass
    return momenta, np.max(np.abs(moved - vals), axis=1)


def check_invariance_lemma(action, form, grid, seed=42):
    """Both sides of the momentum-level lemma for one closed form.

    Along the graph q -> (q, form(q)) the momenta J = G^T form(q) are
    computed over the grid; their spread (max minus min, per component,
    worst case) is one side.  The other side is sampled invariance of
    every component under random translations of the grid points
    (``form_translates``; PreconditionError if no grid point could be
    compared with its translate).  Each side holds when its number is at
    most ``PRECONDITION_TOL``; the report records both numbers, the two
    booleans, and whether they agree.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != action.n:
        raise ValueError("grid points must match the action dimension")
    j_vals, devs = form_translates(action, form, grid,
                                   np.random.default_rng(seed))
    if j_vals.size:
        j_spread = float(np.max(np.max(j_vals, axis=0) - np.min(j_vals, axis=0)))
    else:
        j_spread = 0.0
    if np.isnan(devs).all():
        raise PreconditionError(
            "no grid point could be compared with its translate")
    # fmax skips a point that was not compared
    inv_dev = float(np.fmax.reduce(devs, initial=0.0))
    j_constant = j_spread <= PRECONDITION_TOL
    invariant = inv_dev <= PRECONDITION_TOL
    return {
        "j_spread": j_spread,
        "invariance_dev": inv_dev,
        "j_constant": j_constant,
        "invariant": invariant,
        "consistent": j_constant == invariant,
    }
