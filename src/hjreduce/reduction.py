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
d(gamma) = -beta instead of closedness.  Projection and the membership
checks live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .expr import Const, DomainError, Expr, Var, add, differentiate, mul, substitute
from .hj import OneForm, PreconditionError
from .phase_space import HamiltonianSystem, PhasePoint
from .symmetry import TranslationAction, invariance_report

__all__ = [
    "QuotientChart", "build_chart", "reduced_hamiltonian",
    "ReducedSystem", "reduce_system",
    "TwoForm", "exterior_derivative", "magnetic_term", "MagneticTerm",
    "momentum_shift", "magnetic_lagrangian_residual", "project_lagrangian",
]


def _default_names(m, k):
    if m == 1:
        y_names, py_names = ("q",), ("p",)
    else:
        y_names = tuple(f"y{i+1}" for i in range(m))
        py_names = tuple(f"py{i+1}" for i in range(m))
    x_names = tuple(f"x{a+1}" for a in range(k))
    return y_names, py_names, x_names


class QuotientChart:
    """Linear splitting of R^n into quotient and group directions.

    y = Y q are invariants (Y G = 0), x = X q are group coordinates
    (X G = I), and L is the horizontal lift: q = L y + G x with
    Y L = I and X L = 0.  Momenta split as p_y = L^T p, p_x = G^T p,
    so p_x is exactly the conserved momentum map.
    """

    def __init__(self, y_block, x_block, horizontal, generators,
                 y_names=None, py_names=None, x_names=None):
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
        defaults = _default_names(m, k)
        self.y_names = tuple(y_names) if y_names is not None else defaults[0]
        self.py_names = tuple(py_names) if py_names is not None else defaults[1]
        self.x_names = tuple(x_names) if x_names is not None else defaults[2]
        if len(self.y_names) != m or len(self.py_names) != m:
            raise ValueError(f"need {m} reduced coordinate/momentum names")
        if len(self.x_names) != k:
            raise ValueError(f"need {k} group coordinate names")

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

    def assemble(self, y, p_y, x=None, p_x=None, t=None):
        """Inverse of split: q = L y + G x, p = Y^T p_y + X^T p_x."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        p_y = np.atleast_1d(np.asarray(p_y, dtype=float))
        x = np.zeros(self.k) if x is None else np.atleast_1d(x)
        p_x = np.zeros(self.k) if p_x is None else np.atleast_1d(p_x)
        q = self.horizontal @ y + self.generators @ x
        p = self.y_block.T @ p_y + self.x_block.T @ p_x
        return PhasePoint(q, p, t=t)

    def __repr__(self):
        return f"QuotientChart(n={self.n}, k={self.k})"


def build_chart(action, y_names=None, py_names=None, x_names=None):
    """Chart for the quotient by a translation action.

    The invariant block Y is the reduced-echelon left-null basis of the
    generator matrix (first nonzero entry of each row positive), the
    group block is X = (G^T G)^{-1} G^T, and the horizontal lift is the
    corresponding block of the inverse of the stacked map.
    """
    g = np.asarray(action.matrix, dtype=float)
    n, k = g.shape
    m = n - k
    if k == 0:
        y_block = np.eye(n)
        x_block = np.zeros((0, n))
        horizontal = np.eye(n)
    elif m == 0:
        y_block = np.zeros((0, n))
        x_block = _linalg.group_projection(g)
        horizontal = np.zeros((n, 0))
    else:
        y_block = _linalg.left_null_basis(g)
        x_block = _linalg.group_projection(g)
        t_mat = np.vstack([y_block, x_block])
        horizontal = np.linalg.solve(
            t_mat, np.vstack([np.eye(m), np.zeros((k, m))]))
    return QuotientChart(y_block, x_block, horizontal, g,
                         y_names=y_names, py_names=py_names, x_names=x_names)


def _linear_combo(coeffs, names):
    """sum_j coeffs[j] * Var(names[j]) with folding (0 terms dropped)."""
    out = Const(0.0)
    for c, nm in zip(coeffs, names):
        out = add(out, mul(Const(c), Var(nm)))
    return out


def _pull_to_base(components, coords, chart):
    """Pull full-space 1-form components back along the horizontal slice.

    Returns the reduced components tilde_c_j(y) = sum_i L[i, j] c_i(L y)
    as expressions in the chart's reduced coordinate names.
    """
    l_mat = chart.horizontal
    mapping = {v: _linear_combo(l_mat[i], chart.y_names)
               for i, v in enumerate(coords)}
    pulled = [substitute(c, mapping) for c in components]
    reduced = []
    for j in range(chart.m):
        acc = Const(0.0)
        for i in range(chart.n):
            acc = add(acc, mul(Const(l_mat[i, j]), pulled[i]))
        reduced.append(acc)
    return reduced


def reduced_hamiltonian(sys, chart, mu, check=True, tol=1e-9, samples=50,
                        seed=42):
    """Descend an invariant hamiltonian to the quotient at level mu.

    Substitutes q = L y (the horizontal slice) and p = Y^T p_y + X^T mu
    symbolically; the result is an expression in the reduced names only.
    With ``check`` on, invariance of h under the chart's translations is
    sampled first and a violation raises PreconditionError with the
    witness point.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.size != chart.k:
        raise ValueError(f"mu must have {chart.k} entries")
    if sys.n != chart.n:
        raise ValueError("system and chart dimensions differ")
    if check and chart.k:
        action = TranslationAction(chart.generators.T)
        rep = invariance_report(action, sys.h, sys.coords, samples=samples,
                                tol=tol, seed=seed)
        if not rep["ok"]:
            raise PreconditionError(
                "hamiltonian is not invariant under the action",
                witness=rep["witness"])
    mapping = {}
    for i, v in enumerate(sys.coords):
        mapping[v] = _linear_combo(chart.horizontal[i], chart.y_names)
    shift = chart.x_block.T @ mu
    for i, v in enumerate(sys.momenta):
        e = _linear_combo(chart.y_block[:, i], chart.py_names)
        mapping[v] = add(e, Const(shift[i]))
    h_red = substitute(sys.h, mapping)
    allowed = set(chart.y_names) | set(chart.py_names) | {sys.t_var}
    stray = h_red.free_vars() - allowed
    if stray:
        raise PreconditionError(
            f"reduced hamiltonian still depends on {sorted(stray)}")
    return h_red


@dataclass
class ReducedSystem:
    """Quotient-side package: chart, momentum level, reduced hamiltonian."""
    chart: QuotientChart
    mu: np.ndarray
    h_reduced: Expr
    t_var: str = "t"
    _system: object = field(default=None, repr=False, compare=False)

    @property
    def system(self):
        if self._system is None:
            object.__setattr__(
                self, "_system",
                HamiltonianSystem(self.h_reduced, self.chart.y_names,
                                  self.chart.py_names, t_var=self.t_var))
        return self._system


def reduce_system(sys, action, mu, check=True, tol=1e-9, samples=50, seed=42):
    """Build the chart and the reduced hamiltonian in one step."""
    chart = build_chart(action)
    h_red = reduced_hamiltonian(sys, chart, mu, check=check, tol=tol,
                                samples=samples, seed=seed)
    return ReducedSystem(chart=chart, mu=np.atleast_1d(np.asarray(mu, float)),
                         h_reduced=h_red, t_var=sys.t_var)


# ---------------------------------------------------------------------------
# Magnetic (curvature) terms.

class TwoForm:
    """Antisymmetric 2-form sum_{i<j} b_ij dy^i ^ dy^j, entries as Exprs."""

    def __init__(self, coords, entries):
        self.coords = tuple(coords)
        self._entries = {}
        for (i, j), e in entries.items():
            if not 0 <= i < j < len(self.coords):
                raise ValueError("entries must be upper-triangle index pairs")
            self._entries[(i, j)] = e

    @property
    def m(self):
        return len(self.coords)

    def entry(self, i, j):
        """b_ij as an Expr; antisymmetric in (i, j)."""
        if i == j:
            return Const(0.0)
        if i < j:
            return self._entries.get((i, j), Const(0.0))
        return -self._entries.get((j, i), Const(0.0))

    def matrix_at(self, point, singular_tol=0.0):
        b = dict(zip(self.coords, np.atleast_1d(point)))
        m = self.m
        out = np.zeros((m, m))
        for (i, j), e in self._entries.items():
            v = e.evaluate(b, singular_tol)
            out[i, j] = v
            out[j, i] = -v
        return out

    def __repr__(self):
        inner = ", ".join(f"({i},{j}): {e}" for (i, j), e in
                          sorted(self._entries.items()))
        return f"TwoForm[{', '.join(self.coords)}]{{{inner}}}"


def exterior_derivative(form):
    """d of a 1-form: entries d_i c_j - d_j c_i for i < j."""
    entries = {}
    for i in range(form.m):
        for j in range(i + 1, form.m):
            e = differentiate(form.components[j], form.coords[i]) \
                - differentiate(form.components[i], form.coords[j])
            if not (isinstance(e, Const) and e.value == 0.0):
                entries[(i, j)] = e
    return TwoForm(form.coords, entries)


@dataclass
class MagneticTerm:
    """Closed 2-form on the quotient induced by a momentum-level 1-form."""
    beta: TwoForm
    pullback_residual: float
    momentum_dev: float
    invariance_dev: float


def magnetic_term(chart, alpha_mu, mu, tol=1e-9, samples=50, seed=42,
                  box=2.0):
    """Quotient 2-form whose pullback is d(alpha_mu).

    ``alpha_mu`` is a 1-form on the full configuration space realizing
    the momentum level: it must be invariant under the chart's
    translations and satisfy G^T alpha_mu = mu pointwise.  Both are
    sampled preconditions.  The returned entries are the exterior
    derivative of the pullback of alpha_mu to the horizontal slice; the
    pullback identity (full-space d alpha against the quotient form) is
    spot-checked and its worst deviation reported.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if len(alpha_mu.coords) != chart.n:
        raise ValueError("form and chart dimensions differ")
    if mu.size != chart.k:
        raise ValueError(f"mu must have {chart.k} entries")
    rng = np.random.default_rng(seed)
    g_mat = chart.generators
    action = TranslationAction(g_mat.T) if chart.k else None
    inv_dev = 0.0
    mom_dev = 0.0
    done = 0
    attempts = 0
    while done < samples and attempts < 50 * samples:
        attempts += 1
        q = rng.uniform(-box, box, size=chart.n)
        try:
            v = alpha_mu.values(q)
            if action is not None:
                g = rng.uniform(-1.0, 1.0, size=chart.k)
                v2 = alpha_mu.values(action.translate(q, g))
            else:
                v2 = v
        except DomainError:
            continue
        dev = float(np.max(np.abs(v2 - v))) if v.size else 0.0
        if dev > inv_dev:
            inv_dev = dev
        jv = g_mat.T @ v
        mdev = float(np.max(np.abs(jv - mu))) if mu.size else 0.0
        if mdev > mom_dev:
            mom_dev = mdev
        if inv_dev > tol:
            raise PreconditionError(
                "momentum-level form is not invariant", witness=q.tolist())
        if mom_dev > tol:
            raise PreconditionError(
                "form does not realize the momentum level mu",
                witness={"point": q.tolist(), "momentum": jv.tolist()})
        done += 1
    if done < samples:
        raise PreconditionError("could not sample the form's domain")
    reduced = _pull_to_base(alpha_mu.components, alpha_mu.coords, chart)
    tilde = OneForm(chart.y_names, components=reduced)
    beta = exterior_derivative(tilde)
    d_full = exterior_derivative(alpha_mu)
    y_blk = chart.y_block
    worst = 0.0
    for _ in range(min(samples, 20)):
        q = rng.uniform(-box, box, size=chart.n)
        try:
            d_mat = d_full.matrix_at(q)
            b_mat = beta.matrix_at(y_blk @ q)
        except DomainError:
            continue
        r = float(np.max(np.abs(d_mat - y_blk.T @ b_mat @ y_blk)))
        if r > worst:
            worst = r
    return MagneticTerm(beta=beta, pullback_residual=worst,
                        momentum_dev=mom_dev, invariance_dev=inv_dev)


def momentum_shift(z, alpha_mu, singular_tol=0.0):
    """Shift momenta down by the 1-form's value: (q, p - alpha(q))."""
    return PhasePoint(z.q, z.p - alpha_mu.values(z.q, singular_tol), t=z.t)


def magnetic_lagrangian_residual(form, beta, grid, singular_tol=0.0):
    """max | d_i c_j - d_j c_i + beta_ij | over the grid.

    Zero (within tolerance) certifies that the form's graph, shifted by
    the momentum-level realization, is lagrangian for the magnetic
    symplectic structure: the defining condition is d(form) = -beta.
    """
    if tuple(form.coords) != tuple(beta.coords):
        raise ValueError("form and 2-form coordinates differ")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    exprs = []
    for i in range(form.m):
        for j in range(i + 1, form.m):
            d = differentiate(form.components[j], form.coords[i]) \
                - differentiate(form.components[i], form.coords[j])
            exprs.append(add(d, beta.entry(i, j)))
    worst = 0.0
    for point in grid:
        b = form.bindings(point)
        for e in exprs:
            r = abs(e.evaluate(b, singular_tol))
            if r > worst:
                worst = r
    return worst


def project_lagrangian(form, chart, mu, grid, tol=1e-9, beta=None, seed=42):
    """Project an invariant momentum-level 1-form to the quotient.

    Preconditions on the grid: the form is invariant under the chart's
    translations (sampled with random group shifts) and its momenta
    G^T form(q) equal mu everywhere.  Returns the reduced form and a
    report with the measured deviations; if ``beta`` is given the
    reduced form's magnetic closedness residual is included.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != chart.n:
        raise ValueError("grid points must have the chart's dimension")
    rng = np.random.default_rng(seed)
    action = TranslationAction(chart.generators.T) if chart.k else None
    mom_dev = 0.0
    inv_dev = 0.0
    for q in grid:
        v = form.values(q)
        jv = chart.generators.T @ v
        mdev = float(np.max(np.abs(jv - mu))) if mu.size else 0.0
        if mdev > mom_dev:
            mom_dev = mdev
        if mdev > tol:
            raise PreconditionError(
                "form does not sit on the momentum level mu",
                witness={"point": q.tolist(), "momentum": jv.tolist()})
        if action is not None:
            g = rng.uniform(-1.0, 1.0, size=chart.k)
            try:
                v2 = form.values(action.translate(q, g))
            except DomainError:
                continue
            dev = float(np.max(np.abs(v2 - v)))
            if dev > inv_dev:
                inv_dev = dev
            if dev > tol:
                raise PreconditionError(
                    "form is not invariant under the action",
                    witness=q.tolist())
    reduced = _pull_to_base(form.components, form.coords, chart)
    tilde = OneForm(chart.y_names, components=reduced)
    report = {"momentum_dev": mom_dev, "invariance_dev": inv_dev}
    if beta is not None:
        y_grid = grid @ chart.y_block.T
        report["magnetic_residual"] = magnetic_lagrangian_residual(
            tilde, beta, y_grid)
    return tilde, report
