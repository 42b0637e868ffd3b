"""Hamilton-Jacobi residuals and solvers.

This module carries the solution-side vocabulary: differential 1-forms
and 2-forms, pullbacks along linear maps, the exterior derivative with
the closedness, magnetic and Hamilton-Jacobi residual checks, the
sampling loop behind every precondition sampled at random points,
one-degree-of-freedom solutions by quadrature, the time extension that
turns a fixed-energy solution into a time-dependent one, the
cyclic-variable ansatz, complete-solution (generating-function)
families with non-degeneracy checks, and the additive splitting of
generating functions over a product of a reduced factor and a
translation-group factor.  The quadrature family of a one-dimensional
system is the cyclic family with no cyclic coordinate: both come from
one builder.

Every structural precondition (invariance under the group, a form on
one momentum level, a cyclic variable, dS on one momentum level, a
closed form under ``hj_residual``) is
held to ``PRECONDITION_TOL`` = 1e-9, and every one sampled at random
draws a fixed number of points from +-``SAMPLE_BOX``: 50 for invariance
of a function and of a momentum-level form (a magnetic term then
spot-checks its pullback at 20 more).  Invariance of a function is one
``symmetry.invariance_report`` call wherever it is checked: a reduced
hamiltonian's, the cyclic ansatz's (the reduction by translations of the
cyclic coordinates), and the diagonal invariance of a scheme's
generating function.  A function that reads no coordinate the action
moves is invariant without a draw.  Invariance and the momentum level
of a 1-form, on a grid or at a magnetic term's random points, are one
``symmetry.form_translates`` call wherever they are checked.  Only the
seed is a parameter.

Quadrature-built solutions have no closed form.  They are represented
by numeric function objects (root solves and running integrals) that
know their own exact partial derivatives via implicit differentiation,
embedded into expression trees through :class:`hjreduce.expr.External`,
so all residual checks run through the same symbolic machinery as
closed-form inputs.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .expr import (Const, DomainError, Expr, External, Var, add, compile,
                   compile_newton, compile_newton_rows, differentiate,
                   evaluate_rows, linear_combo, mul, parse, sub, substitute)
from .phase_space import TIME, HamiltonianSystem

__all__ = [
    "PreconditionError", "SolveError", "TurningPointError",
    "BranchAmbiguityError", "NewtonDivergenceError", "SingularJacobianError",
    "domain_samples", "pullback",
    "OneForm", "TwoForm", "QuadratureSolution", "GeneratingFunction",
    "HJReport", "CompletenessReport", "CyclicAnsatz", "HeavyTopSolution",
    "SplitReport",
    "exterior_derivative", "closedness_residual",
    "magnetic_lagrangian_residual", "hj_residual", "time_dependent_residual",
    "solve_reduced_1d", "time_extension", "quadrature_complete_solution",
    "check_complete", "cyclic_ansatz", "cyclic_complete_solution",
    "heavy_top_system", "solve_heavy_top", "additive_split_check",
    "ImplicitBranchRoot", "TabulatedAntiderivative", "RunningIntegral",
    "mesh_grid", "random_grid",
]


class PreconditionError(ValueError):
    """A stated precondition failed; carries a witness point when known."""

    def __init__(self, message, witness=None):
        if witness is not None:
            message = f"{message} (witness: {witness})"
        super().__init__(message)
        self.witness = witness


class SolveError(Exception):
    """Base class for numerical solver failures."""


class TurningPointError(SolveError):
    """No momentum root on the requested branch (radicand crossed zero)."""

    def __init__(self, location, message=None):
        super().__init__(message or f"turning point: no momentum root at {location}")
        self.location = location


class BranchAmbiguityError(SolveError):
    """The equation is not monotone in the momentum on the branch."""


class NewtonDivergenceError(SolveError):
    """Newton iteration failed to converge."""


class SingularJacobianError(SolveError):
    """Newton hit a singular Jacobian."""


# Half-width of the box [-SAMPLE_BOX, SAMPLE_BOX] from which the sampled
# preconditions draw their random points.
SAMPLE_BOX = 2.0

# Tolerance of every structural precondition (invariance, momentum level,
# cyclicity, one momentum level of dS): a fixed policy, not an option.
PRECONDITION_TOL = 1e-9


def domain_samples(candidates, measure, samples=None, shortfall=None):
    """Yield ``measure(c)`` for candidates until ``samples`` succeed.

    A candidate whose measure raises DomainError or SolveError is
    skipped.  With ``samples`` given, at most 50 * samples candidates are
    tried; without it every candidate is measured.  A candidate is pulled
    only when its measure is wanted next, so random sampling passes
    ``itertools.repeat(rng)`` and draws inside ``measure``: the stream
    stops where the sampling stopped.  With ``shortfall`` given, ending
    with fewer than ``samples`` successes (or none, without ``samples``)
    raises PreconditionError(shortfall).
    """
    if samples is not None:
        candidates = itertools.islice(candidates, 50 * samples)
    done = 0
    for c in candidates:
        try:
            out = measure(c)
        except (DomainError, SolveError):
            continue
        yield out
        done += 1
        if done == samples:
            return
    if shortfall is not None and done < (1 if samples is None else samples):
        raise PreconditionError(shortfall)


# ---------------------------------------------------------------------------
# Grids.

def mesh_grid(bounds, counts):
    """Cartesian product grid.  bounds: [(lo, hi), ...]; returns (N, m).

    ``counts`` is one count for every axis or a list of one per axis.
    """
    if isinstance(counts, int):
        counts = [counts] * len(bounds)
    if len(counts) != len(bounds):
        raise ValueError(f"need one count per axis: {len(bounds)} bounds, "
                         f"{len(counts)} counts")
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def random_grid(bounds, n, seed=42):
    """n uniform samples from a box.  bounds: [(lo, hi), ...]; (n, m)."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    return lo + (hi - lo) * rng.random((n, len(bounds)))


# ---------------------------------------------------------------------------
# Differential 1-forms.

class OneForm:
    """A 1-form sum_i c_i(y) dy^i over named base coordinates.

    ``potential`` optionally records a primitive S with dS equal to the
    form; when only the potential is given the components are derived
    from it symbolically.
    """

    def __init__(self, coords, components=None, potential=None):
        self.coords = tuple(coords)
        if isinstance(potential, str):
            potential = parse(potential)
        self.potential = potential
        if components is None:
            if potential is None:
                raise ValueError("need components or a potential")
            components = tuple(differentiate(potential, v) for v in self.coords)
        comps = []
        for c in components:
            comps.append(parse(c) if isinstance(c, str) else c)
        self.components = tuple(comps)
        if len(self.components) != len(self.coords):
            raise ValueError("need one component per coordinate")

    @classmethod
    def exact(cls, potential, coords):
        """The exact form dS of a potential S."""
        return cls(coords, potential=potential)

    @classmethod
    def zero(cls, coords):
        return cls(coords, components=[Const(0.0)] * len(coords))

    @property
    def m(self):
        return len(self.coords)

    def values(self, point, singular_tol=0.0):
        """Component values at a base point (array in coordinate order)."""
        return evaluate_rows(self.components, self.coords,
                             [np.atleast_1d(point)], singular_tol)[0]

    def __repr__(self):
        inner = ", ".join(f"{c}" for c in self.components)
        return f"OneForm[{', '.join(self.coords)}]({inner})"


class QuadratureSolution(OneForm):
    """A 1-D solution form built by quadrature; keeps its table and root."""

    def __init__(self, coords, components, potential, table, root, energy, y_range):
        super().__init__(coords, components, potential)
        self.table = table
        self.root = root
        self.energy = float(energy)
        self.y_range = (float(y_range[0]), float(y_range[1]))

    def residual(self, ys, ps):
        """max |h(y, p) - E| over paired y and p values.

        Each |g| comes from the root's compiled residual g = h - E, so it
        equals the tree walker's |h(y, p) - E| bit for bit.  A NaN row is
        skipped, and the first failing row raises its DomainError.
        """
        g = self.root._g
        # fmax skips NaN, as the built-in max after 0.0 does
        return float(np.fmax.reduce([abs(g(y, p)) for y, p in zip(ys, ps)],
                                    initial=0.0))


def pullback(components, names, mat, new_names, shift=None):
    """Pull 1-form components back along the linear map names = mat new_names.

    Each variable names[i] becomes sum_j mat[i, j] new_names[j], and the
    pulled-back components are c'_j = shift_j + sum_i mat[i, j] c_i, as
    expressions in ``new_names``.
    """
    mapping = {v: linear_combo(row, new_names) for v, row in zip(names, mat)}
    pulled = [substitute(c, mapping) for c in components]
    return [linear_combo(mat[:, j], pulled,
                         0.0 if shift is None else float(shift[j]))
            for j in range(mat.shape[1])]


# ---------------------------------------------------------------------------
# Differential 2-forms and the exterior derivative.

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

    def matrix_at(self, point):
        vals = evaluate_rows(list(self._entries.values()), self.coords,
                             [np.atleast_1d(point)])[0]
        out = np.zeros((self.m, self.m))
        for (i, j), v in zip(self._entries, vals):
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


def magnetic_lagrangian_residual(form, beta, grid):
    """max | d_i c_j - d_j c_i + beta_ij | over the grid.

    Zero (within tolerance) certifies that the form's graph, shifted by
    the momentum-level realization, is lagrangian for the magnetic
    symplectic structure: the defining condition is d(form) = -beta.
    """
    if tuple(form.coords) != tuple(beta.coords):
        raise ValueError("form and 2-form coordinates differ")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != form.m:
        raise ValueError("grid points must have one entry per coordinate")
    if not grid.shape[0]:
        raise ValueError("the grid has no points")
    d = exterior_derivative(form)
    exprs = [add(d.entry(i, j), beta.entry(i, j))
             for i in range(form.m) for j in range(i + 1, form.m)]
    vals = np.abs(evaluate_rows(exprs, form.coords, grid))
    # fmax skips NaN, as a running "if r > worst" maximum does
    return float(np.fmax.reduce(vals, axis=None, initial=0.0))


def closedness_residual(form, grid):
    """max over the grid of |d_i c_j - d_j c_i| for all coordinate pairs."""
    return magnetic_lagrangian_residual(form, TwoForm(form.coords, {}), grid)


@dataclass
class HJReport:
    """Energy estimate and residual of h restricted to the graph of a form."""
    e_est: float
    max_dev: float
    closedness: float


def hj_residual(sys, form, grid):
    """How far h is from constant along the graph of the form.

    The form must be closed, within ``PRECONDITION_TOL``: a non-closed
    graph is not a lagrangian submanifold and the statistic would be
    meaningless, so that precondition is enforced first.
    """
    if tuple(form.coords) != tuple(sys.coords):
        raise ValueError("form coordinates must match the system's")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    closedness = closedness_residual(form, grid)
    if closedness > PRECONDITION_TOL:
        raise PreconditionError(f"form is not closed (residual "
                                f"{closedness:.3e} > {PRECONDITION_TOL:.1e})")
    pvals = evaluate_rows(form.components, form.coords, grid)
    vals = evaluate_rows([sys.h], form.coords + sys.momenta,
                         np.hstack([grid, pvals]))[:, 0]
    e_est = float(np.mean(vals))
    max_dev = float(np.max(np.abs(vals - e_est))) if vals.size else 0.0
    return HJReport(e_est=e_est, max_dev=max_dev, closedness=closedness)


# ---------------------------------------------------------------------------
# Implicit momentum roots and running integrals.
#
# These numeric function objects satisfy the `External` protocol: they
# are callable on floats and expose partial(i).  Derivatives of a root
# come from implicit differentiation of the defining equation and are
# exact up to the root tolerance; one class, _RootPartial, gives the
# first and second partials.  Derivatives of a running integral are
# the integrand (in the path variable) or another running integral (in
# a parameter).  Every solve is one _chain call (Newton from one start,
# then the bracket: bisection to the root tolerance, whose point the same
# generated Newton polishes, so a root has one Newton iteration).  After
# a table build a root is a pure function of its arguments: each argument
# tuple is solved once, from the nearest node root of its anchor table,
# and kept in a memo.  A root without a table starts from its previous
# root.  Use one object per thread.
#
# Nothing here walks a tree but to raise a walker's error.  A quadrature
# job makes hundreds of thousands of solves on a few roots, so each root
# generates, at construction and in one source (expr.compile_newton),
# the kernels of g and g_p and its Newton iteration as one function.
# All three come from the operations expr._merge makes of (g, g_p):
# merged by structure, with the constants as data, so the roots of one
# Hamiltonian at different energies share one compiled source.  The Newton
# function computes what does not read the momentum (the arguments'
# conversions and every operation on them alone: for the heavy top sin,
# cos, the powers and the division) once per solve, before its loop;
# each iteration runs only the operations that read p.  Each
# _RootPartial compiles the derivatives it reads, g_p first, into one
# kernel with expr.compile, the front end that also gives the flows
# their vector fields and whose kernel sources compile_newton embeds.
# Kernels and loop do the tree walker's IEEE operations, and a kernel
# whose checks fail hands its point to the walker, so the results and
# the errors are the walker's.
#
# A quadrature table solves all its node and midpoint roots at once: the
# same Newton generated on arrays of rows (expr.compile_newton_rows, the
# same operations and segments in numpy), compiled by a root's first
# table build (family roots never build one).  The per-node cost of the
# scalar chain is Newton arithmetic in the interpreter, which numpy does
# for every row in a few dozen array operations.  The one generated
# function also returns g_p at each row's root, from the iteration that
# recorded it, and the node checks read that.  Node starts interpolate a
# scalar chain over every 32nd node; a row the batch does not accept
# falls back, in node order, to the chain (_chain: Newton from the
# previous root, then the bracket).  When g and g_p use only + - * /,
# negation and sqrt a row's root is the scalar loop's bit for bit (g_p
# of a quotient that reads p holds a power); through numpy's power, sin
# and cos the node roots of the bundled and benchmark tables are within
# 2 ulp of the scalar chain's, and 4 ulp is the documented bound.
#
# A running integral is one Gauss-Legendre rule on [base, y]: each call
# solves its root at the rule's nodes in path order from the base, so a
# family root (which has no anchor table) starts each new node's solve
# from the previous node's root.  Its nodes move with y, so a memo there
# would only fill; verify and reconstruct read a table root at the same
# quotient points again and again, and there it saves every repeat.

_MEMO_CAP = 20000
_ROOT_TOL = 1e-12
_ROOT_MAX_ITER = 60
_BRANCH_SLACK = 1e-12


class ImplicitBranchRoot:
    """The momentum branch p(y, c_1, .., c_m) solving g(y, p, c) = 0.

    ``branch`` (+1/-1) selects the sign of p searched when no better
    starting guess is available.  Every solve ends in one Newton
    iteration, the one generated by expr.compile_newton: from a warm
    start, or else from the point where bisection inside a sign-change
    bracket first meets the root tolerance.  It iterates to a fixed
    point, so the result is at machine precision whenever the equation
    allows it.  g may read only the arguments and the momentum; any
    other variable, the time ``t`` included, is a PreconditionError
    naming it, raised at construction.
    """

    def __init__(self, g, y_var, p_var, params=(), branch=1, name="pbranch"):
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        self.g = g
        self.y_var = y_var
        self.p_var = p_var
        self.params = tuple(params)
        self.arg_vars = (y_var,) + self.params
        self.arity = len(self.arg_vars)
        self.branch = branch
        self.name = name
        names = self.arg_vars + (p_var,)
        stray = ", ".join(map(repr, sorted(g.free_vars() - set(names))))
        if stray:
            raise PreconditionError(
                f"{name}: the equation reads {stray}, which is neither an "
                f"argument {list(self.arg_vars)} nor the momentum '{p_var}'")
        self.g_p = differentiate(g, p_var)
        self._g, self._gp, self._newton = compile_newton(
            g, self.g_p, names, name, _ROOT_TOL, _ROOT_MAX_ITER, _BRANCH_SLACK)
        self._sign = float(branch)
        self._memo = {}
        self._last = None
        self._anchors = None
        self._partials = {}

    def __call__(self, *args):
        return self.solve(args)

    def partial(self, i):
        if i not in self._partials:
            self._partials[i] = _RootPartial(self, (self.arg_vars[i],))
        return self._partials[i]

    def set_anchors(self, ys, ps):
        """Install a solved table: a later solve at arguments not seen
        since starts Newton from the nearest node root, once."""
        order = np.argsort(ys)
        self._anchors = tuple(array("d", np.asarray(a, float)[order].tobytes())
                              for a in (ys, ps))
        self._memo.clear()

    def solve(self, args):
        """The root at ``args``, by one ``_chain`` call from one start.

        A root with an anchor table is a pure function of its arguments:
        each argument tuple is solved once, from its nearest node root,
        and kept.  A root without one starts from its previous root.
        """
        if len(args) != self.arity:
            raise ValueError(f"{self.name} expects {self.arity} arguments")
        if self._anchors is None:
            p = self._last = self._chain(args, self._last)
            return p
        key = tuple(map(float, args))
        p = self._memo.get(key)
        if p is None:
            ys, ps = self._anchors
            p = self._chain(
                args, ps[min(bisect.bisect_left(ys, key[0]), len(ps) - 1)])
            if len(self._memo) >= _MEMO_CAP:
                self._memo.clear()
            self._memo[key] = p
        return p

    def _chain(self, args, guess):
        """Newton from ``guess`` (None: none), else the bracket solve.

        The one solve primitive: Newton must converge on the branch's
        side of the axis (the branch contract, search from 0 toward
        branch * inf, does not depend on the start).  The bracket solve
        bisects to the root tolerance and hands its point to the same
        Newton.  It reads and writes no cache.
        """
        p = None if guess is None else self._newton(*args, guess, self._sign)
        return self._bracket_solve(args) if p is None else p

    @functools.cached_property
    def _rows(self):
        """The array Newton of expr.compile_newton_rows.

        Compiled on first use, by a table build.  An equation with no
        array Newton gets a stand-in that accepts no row and marks every
        g_p bad, which leaves every row to the scalar fallback.
        """
        made = compile_newton_rows(self.g, self.g_p,
                                   self.arg_vars + (self.p_var,), self.name,
                                   _ROOT_TOL, _ROOT_MAX_ITER, _BRANCH_SLACK)
        if made is None:
            def made(y, p, s):
                none = np.zeros(p.shape, dtype=bool)
                return p, none, p, ~none
        return made

    def _bracket_solve(self, args):
        args = tuple(map(float, args))
        s = float(self.branch)
        lo = 0.0
        try:
            g_lo = self._g(*args, lo)
        except DomainError:
            lo = s * 1e-12
            g_lo = self._g(*args, lo)
        if g_lo == 0.0:
            return lo
        hi = s
        g_hi = None
        for _ in range(70):
            try:
                g_hi = self._g(*args, hi)
            except DomainError:
                g_hi = None
                break
            if g_lo * g_hi <= 0.0:
                break
            lo, g_lo = hi, g_hi
            hi *= 2.0
        else:
            g_hi = None
        if g_hi is None or g_lo * g_hi > 0.0:
            raise TurningPointError(args)
        # bisect to the root tolerance, then hand off to the generated
        # Newton; g keeps its sign at lo, so g_lo is read for it alone.
        # A domain error at x is a pole inside the bracket, whose sign
        # change has no root: the same failure as a collapsed interval
        x = 0.5 * (lo + hi)
        while x not in (lo, hi):
            try:
                gv = self._g(*args, x)
            except DomainError:
                break
            if abs(gv) <= _ROOT_TOL:
                polished = None if gv == 0.0 else self._newton(*args, x, 0.0)
                return x if polished is None else polished
            lo, hi = (x, hi) if (gv < 0.0) == (g_lo < 0.0) else (lo, x)
            x = 0.5 * (lo + hi)
        raise NewtonDivergenceError(
            f"{self.name}: no convergence to tol {_ROOT_TOL:.1e}")


_TURNING = "implicit derivative at a turning point"


class _RootPartial:
    """First or second partial of an implicit root, by implicit differentiation.

    With g(y, p(u, w), ...) = 0 and g_p = dg/dp, the partials are
      p_u = -g_u / g_p
      p_uw = -(g_uw + g_up p_w + g_pw p_u + g_pp p_u p_w) / g_p
    ``wrt`` names the one or two variables differentiated by, in order.
    """

    def __init__(self, root, wrt):
        self.root = root
        self.wrt = wrt
        self.arity = root.arity
        self.name = root.name + "".join(f"_d{v}" for v in wrt)
        g, p = root.g, root.p_var
        g_u = differentiate(g, wrt[0])
        exprs = [g_u]
        if len(wrt) == 2:
            # g_w, g_uw, g_up, g_pw, g_pp: what a second partial reads
            w = wrt[1]
            exprs += [differentiate(g, w), differentiate(g_u, w),
                      differentiate(g_u, p), differentiate(root.g_p, w),
                      differentiate(root.g_p, p)]
        self._second = len(wrt) == 2
        # g_p first: its checks come before the other derivatives'
        self._kernel = compile([root.g_p, *exprs], root.arg_vars + (p,),
                               self.name)
        self._partials = {}

    def __call__(self, *args):
        root = self.root
        p = root.solve(args)
        try:
            vals = self._kernel(*args, p)
        except DomainError:
            # a turning point outranks a failure past g_p; a failure in
            # g_p itself raises again here
            if root._gp(*args, p) == 0.0:
                raise TurningPointError(args, _TURNING) from None
            raise
        g_p = vals[0]
        if g_p == 0.0:
            raise TurningPointError(args, _TURNING)
        p_u = -vals[1] / g_p
        if not self._second:
            return p_u
        g_w, g_uw, g_up, g_pw, g_pp = vals[2:]
        p_w = -g_w / g_p
        num = g_uw + g_up * p_w + g_pw * p_u + g_pp * p_u * p_w
        return -num / g_p

    def partial(self, i):
        if self._second:
            raise NotImplementedError(
                "third-order implicit derivatives are not supported")
        if i not in self._partials:
            self._partials[i] = _RootPartial(
                self.root, (self.wrt[0], self.root.arg_vars[i]))
        return self._partials[i]


class TabulatedAntiderivative:
    """Antiderivative on a fixed node grid, cubic Hermite in between.

    Node values come from composite Simpson accumulation of the root;
    node derivatives are the root values themselves, so the Hermite
    interpolant is accurate to O(step^4) and its derivative object (the
    root) is exact everywhere.
    """

    arity = 1

    def __init__(self, ys, values, derivs, root, name="W"):
        # the Hermite step reads Python floats from array("d") stores; ys,
        # values and derivs are ndarray views of the same memory
        self._ys, self._values, self._derivs = (
            array("d", np.asarray(a, dtype=float).tobytes())
            for a in (ys, values, derivs))
        self.ys, self.values, self.derivs = (
            np.frombuffer(a) for a in (self._ys, self._values, self._derivs))
        self.root = root
        self.name = name

    def __call__(self, y):
        ys, vs, ds = self._ys, self._values, self._derivs
        y = float(y)
        if not (ys[0] - 1e-12 <= y <= ys[-1] + 1e-12):
            raise DomainError(
                f"{self.name}: {y} outside tabulated range [{ys[0]}, {ys[-1]}]")
        i = min(max(bisect.bisect_left(ys, y) - 1, 0), len(ys) - 2)
        h = ys[i + 1] - ys[i]
        s = (y - ys[i]) / h if h else 0.0
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * vs[i] + h * h10 * ds[i]
                + h01 * vs[i + 1] + h * h11 * ds[i + 1])

    def partial(self, i):
        if i != 0:
            raise IndexError("univariate antiderivative")
        return self.root


def _gauss_legendre(m):
    """Nodes (ascending) and weights of the m-point Gauss-Legendre rule.

    Each positive node is Newton's method on the three-term recurrence
    of the Legendre polynomial P_m from the Chebyshev-like guess
    cos(pi (i + 3/4) / (m + 1/2)), and its weight 2 / ((1 - x^2) P_m'(x)^2)
    is taken at the converged node; the negative half mirrors it.
    """
    def legendre(x):
        p0, p1 = 1.0, x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, m * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    half = []
    for i in range(m // 2):
        x = math.cos(math.pi * (i + 0.75) / (m + 0.5))
        for _ in range(8):
            p, dp = legendre(x)
            x -= p / dp
        dp = legendre(x)[1]
        half.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    pairs = [(-x, w) for x, w in half] + half[::-1]
    return tuple(x for x, _ in pairs), tuple(w for _, w in pairs)


# The running integral's rule: exact for polynomials of degree 47, and
# geometrically convergent for integrands analytic around the path.
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)


class RunningIntegral:
    """Signed integral of a root-backed integrand from a fixed base point.

    The integration path runs along the first argument from the middle
    of [lo, hi] (the remaining arguments are parameters passed through),
    and each call is one 24-point Gauss-Legendre rule on [base, y]: 24
    integrand calls, made in path order from the base.  partial(0)
    recovers the integrand; a parameter partial is the running integral
    of the integrand's parameter partial.
    """

    def __init__(self, integrand, lo, hi, name="Wint"):
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValueError(f"{name}: empty range [{lo}, {hi}]")
        self.integrand = integrand
        self.arity = integrand.arity
        self.lo, self.hi = lo, hi
        self.base = 0.5 * (lo + hi)
        self.name = name
        self._partials = {}

    def __call__(self, y, *params):
        y = float(y)
        if not (self.lo - 1e-12 <= y <= self.hi + 1e-12):
            raise DomainError(
                f"{self.name}: {y} outside quadrature range [{self.lo}, {self.hi}]")
        f = self.integrand
        h = 0.5 * (y - self.base)
        mid = self.base + h
        total = 0.0
        for x, w in zip(_GL_NODES, _GL_WEIGHTS):
            total += w * f(mid + h * x, *params)
        return h * total

    def partial(self, i):
        if i == 0:
            return self.integrand
        if i not in self._partials:
            self._partials[i] = RunningIntegral(
                self.integrand.partial(i), self.lo, self.hi,
                name=f"{self.name}_d{i}")
        return self._partials[i]


# ---------------------------------------------------------------------------
# One-degree-of-freedom solution by quadrature.

# Table builds: the scalar chain solves every _TABLE_STRIDE-th node (and
# the last) for the array Newton's starts, which runs _TABLE_BLOCK rows
# per call so that its memory does not grow with the node count.
_TABLE_STRIDE = 32
_TABLE_BLOCK = 4096


def _in_blocks(fn, *arrays):
    """``fn`` over blocks of rows of ``arrays``, its outputs joined."""
    with np.errstate(all="ignore"):
        parts = [fn(*(a[i:i + _TABLE_BLOCK] for a in arrays))
                 for i in range(0, arrays[0].size, _TABLE_BLOCK)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _node_starts(root, ys):
    """The array Newton's node starts: the scalar chain, interpolated.

    The chain (each solve from the previous chain root) runs on every
    ``_TABLE_STRIDE``-th node and the last, and stops at its first
    failure, which the node pass meets again in node order.
    """
    coarse = ys[::_TABLE_STRIDE].tolist()
    if len(ys) % _TABLE_STRIDE != 1:
        coarse.append(float(ys[-1]))
    roots, guess = [], None
    for y in coarse:
        try:
            guess = root._chain((y,), guess)
        except (SolveError, DomainError):
            break
        roots.append(guess)
    if not roots:
        return np.full(ys.size, math.nan)
    return np.interp(ys, coarse[:len(roots)], roots)


def _check_nodes(root, ys, ps, ok, gp, gp_bad, p_var):
    """The node chain's checks in node order, solving fallback rows.

    ``ps, ok, gp, gp_bad`` are the array Newton's outputs at the nodes.
    At each node in turn: a row the array Newton did not accept is
    solved by the scalar chain from the previous node's root, then the
    g_p margin and the g_p sign are checked, on the g_p the array Newton
    recorded with its root where it has one, else on the scalar kernel.
    The first failure raises the chain's error; ``ps`` is updated in
    place.
    """

    def resolve(i):
        """g_p at node i, through the scalar kernels where the rows left it."""
        y = float(ys[i])
        if ok[i] and not gp_bad[i]:
            gpv = gp[i]
        else:
            if not ok[i]:
                ps[i] = root._chain((y,), float(ps[i - 1]) if i else None)
            gpv = root._gp(y, ps[i])
        if abs(gpv) < 1e-6 * (1.0 + abs(ps[i])):
            raise TurningPointError(
                y, f"momentum derivative vanishes near y={y}: turning point margin hit")
        return math.copysign(1.0, gpv)

    sign_ref = resolve(0)
    suspect = (~ok | gp_bad | (np.abs(gp) < 1e-6 * (1.0 + np.abs(ps)))
               | (np.copysign(1.0, gp) != sign_ref))
    for i in np.flatnonzero(suspect[1:]).tolist():
        if resolve(i + 1) != sign_ref:
            raise BranchAmbiguityError(
                f"equation is not monotone in {p_var} on the branch "
                f"(y={float(ys[i + 1])})")
    return sign_ref


def solve_reduced_1d(h_reduced, y_var, p_var, energy, y_range, branch=1,
                     n_nodes=2001):
    """Solve h(y, W'(y)) = E for W on an interval, by quadrature.

    W'(y) is the momentum root on the chosen branch at each of the
    ``n_nodes`` uniformly spaced nodes, and W accumulates by composite
    Simpson with midpoint roots.  Both sets of roots come from one array
    Newton over all rows (expr.compile_newton_rows), which starts each
    node from the scalar chain's roots on every 32nd node, interpolated,
    and each midpoint from its left node's root.  A row it does not
    accept falls back, in node order, to the scalar chain: Newton from
    the previous root, then the bracket.  Returns a
    :class:`QuadratureSolution` whose component evaluates the root at
    any y (not just at the nodes), from the nearest node root, and whose
    potential interpolates the table.

    Raises TurningPointError if the branch root disappears or its
    momentum derivative falls below a safety margin anywhere on the
    range, and BranchAmbiguityError if h is not monotone in p there,
    each at the first node where the scalar chain would.
    """
    if n_nodes < 3:
        raise ValueError("need at least 3 nodes")
    lo, hi = float(y_range[0]), float(y_range[1])
    if not lo < hi:
        raise ValueError("empty range")
    g = sub(h_reduced, Const(float(energy)))
    root = ImplicitBranchRoot(g, y_var, p_var, branch=branch,
                              name="dW" if y_var != "dW" else "dW_")
    newton = functools.partial(root._rows, s=root._sign)
    ys = np.linspace(lo, hi, int(n_nodes))
    ps, ok, gp, gp_bad = _in_blocks(newton, ys, _node_starts(root, ys))
    sign_ref = _check_nodes(root, ys, ps, ok, gp, gp_bad, p_var)
    root.set_anchors(ys, ps)
    # sampled monotonicity between the current root and the axis
    for y in np.linspace(lo, hi, 17).tolist():
        p_root = root.solve((y,))
        for frac in (0.25, 0.5, 0.75):
            try:
                gp = root._gp(y, frac * p_root)
            except DomainError:
                continue
            if gp * sign_ref < 0.0:
                raise BranchAmbiguityError(
                    f"equation is not monotone in {p_var} between 0 and the root (y={y})")
    mids = 0.5 * (ys[:-1] + ys[1:])
    pm, ok, _, _ = _in_blocks(newton, mids, ps[:-1])
    for i in np.flatnonzero(~ok).tolist():
        pm[i] = root._chain((float(mids[i]),), float(ps[i]))
    panels = (ys[1:] - ys[:-1]) / 6.0 * (ps[:-1] + 4.0 * pm + ps[1:])
    # a sequential sum from 0.0, as the panels' running total
    values = np.cumsum(np.concatenate(([0.0], panels)))
    table = TabulatedAntiderivative(ys, values, ps, root)
    potential = External(table, (Var(y_var),))
    component = External(root, (Var(y_var),))
    return QuadratureSolution((y_var,), (component,), potential, table, root,
                              energy, (lo, hi))


# ---------------------------------------------------------------------------
# Generating functions.

class GeneratingFunction:
    """S(t, q, c) with c the new coordinates: parameters of the family.

    kind "typeII": c are the new momenta and p = dS/dq, new position =
    dS/dc; the identity map has S = sum_i q^i c_i.  kind "typeI": c are
    the new positions and p = dS/dq, new momentum = -dS/dc, which is the
    typeII map followed by the canonical rotation (X, Y) -> (Y, -X).

    S's partials are built symbolically on first use and kept as fixed
    tuples, so Jacobians of the induced implicit maps are exact: ``s_t``
    (one expression), ``s_q`` and ``s_c`` (one per coordinate, one per
    parameter), and the second partials ``s_qc``, ``s_qq`` and ``s_cc``
    row-major: entry i*n + j is d s_q[i]/dc_j, d s_q[i]/dq_j and
    d s_c[i]/dc_j.
    """

    KINDS = ("typeI", "typeII")

    def __init__(self, kind, s, q_vars, params, absent_ok=()):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        self.kind = kind
        self.s = parse(s) if isinstance(s, str) else s
        self.q_vars = tuple(q_vars)
        self.params = tuple(params)
        declared = set(self.q_vars) | set(self.params) | {TIME}
        if len(self.q_vars) + len(self.params) + 1 != len(declared):
            raise ValueError("variable names must be distinct")
        free = self.s.free_vars()
        extra = free - declared
        if extra:
            raise ValueError(f"S uses undeclared variables: {sorted(extra)}")
        missing = (set(self.q_vars) | set(self.params)) - free - set(absent_ok)
        if missing:
            raise ValueError(
                f"declared variables absent from S: {sorted(missing)} "
                "(list them in absent_ok if intended)")
        self._names = (*self.q_vars, *self.params, TIME)

    @property
    def n(self):
        return len(self.q_vars)

    @functools.cached_property
    def s_t(self):
        return differentiate(self.s, TIME)

    @functools.cached_property
    def s_q(self):
        return tuple(differentiate(self.s, v) for v in self.q_vars)

    @functools.cached_property
    def s_c(self):
        return tuple(differentiate(self.s, v) for v in self.params)

    @functools.cached_property
    def s_qc(self):
        return tuple(differentiate(d, v) for d in self.s_q for v in self.params)

    @functools.cached_property
    def s_qq(self):
        return tuple(differentiate(d, v) for d in self.s_q for v in self.q_vars)

    @functools.cached_property
    def s_cc(self):
        return tuple(differentiate(d, v) for d in self.s_c for v in self.params)

    @functools.cached_property
    def _kernels(self):
        """The compiled tuples by tuple and tolerance when S calls an
        External, else None: pure tuples are walked, since the largest
        (a many-body Jacobian's) cost more to build than to walk."""
        return {} if _calls_external(self.s) else None

    def _at(self, exprs, q, c, t, singular_tol):
        """The expressions at the point (q, c, t), q and c arrays: one
        kernel per tuple and tolerance when S calls an External."""
        row = [*q.tolist(), *c.tolist(), t]
        kernels = self._kernels
        if kernels is None:
            return evaluate_rows(exprs, self._names, [row], singular_tol)[0]
        if (exprs, singular_tol) not in kernels:
            kernels[exprs, singular_tol] = compile(exprs, self._names, "S",
                                                   singular_tol)
        return np.array(kernels[exprs, singular_tol](*row), dtype=float)

    def __repr__(self):
        return f"GeneratingFunction({self.kind}, {self.s})"


def time_extension(form, energy):
    """Promote a fixed-energy solution W to a time-dependent one.

    Returns the generating function S = W - E t, which satisfies
    dS/dt + h(q, dS/dq) = 0 whenever h(q, dW/dq) = E.  (The additive
    constant freedom of W absorbs any other convention.)
    """
    if form.potential is None:
        raise ValueError("the form must carry a potential to extend")
    s = sub(form.potential, mul(Const(float(energy)), Var(TIME)))
    return GeneratingFunction("typeI", s, q_vars=form.coords, params=())


def _point_rows(gf, sys, points):
    """Sample points as (column names, rows of floats); time defaults to 0."""
    if tuple(gf.q_vars) != tuple(sys.coords):
        raise ValueError("generating function and system coordinates differ")
    cols = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in points.items()}
    sizes = {v.size for v in cols.values()}
    if len(sizes) != 1:
        raise ValueError("all point columns must have equal length")
    n_pts = sizes.pop()
    if not n_pts:
        raise ValueError("need at least one sample point")
    if TIME not in cols:
        cols[TIME] = np.zeros(n_pts)
    return tuple(cols), np.column_stack(list(cols.values()))


def _calls_external(e):
    """Whether the tree ``e`` holds an External node (recursing as the
    walker does)."""
    return isinstance(e, External) or any(
        map(_calls_external, getattr(e, "_children", tuple)()))


def _kernel_rows(exprs, names, rows, name):
    """``evaluate_rows(exprs, names, rows)``, as one kernel row by row."""
    kernel = compile(exprs, names, name)
    return np.array([kernel(*row) for row in rows.tolist()], dtype=float)


def _deviation_arrays(gf, sys, names, rows):
    """|dS/dt + h(q, dS/dq)| sample by sample over ``_point_rows``."""
    grad_t = _kernel_rows([*gf.s_q, gf.s_t], names, rows, "S_q,S_t")
    h_vals = _kernel_rows([sys.h], names + sys.momenta,
                          np.hstack([rows, grad_t[:, :-1]]), "h")[:, 0]
    return np.abs(grad_t[:, -1] + h_vals)


def time_dependent_residual(gf, sys, points):
    """max |dS/dt + h(q, dS/dq)| over sample points (a dict of columns)."""
    names, rows = _point_rows(gf, sys, points)
    return float(np.max(_deviation_arrays(gf, sys, names, rows)))


@dataclass
class CompletenessReport:
    hj_max_dev: float
    min_abs_det: float
    complete: bool


def check_complete(gf, sys, points, tol=1e-8):
    """Is S(t, q, c) a complete solution over the sampled points?

    Complete means the extended residual dS/dt + h(q, dS/dq) vanishes
    (within tol) and the family is non-degenerate: the mixed-partial
    determinant det(d2 S / dq dc) stays away from zero (at least 1e-6)
    at every sample, parameters included.
    """
    if not gf.params:
        raise ValueError("a complete solution needs at least one parameter")
    if len(gf.params) != gf.n:
        raise ValueError("need as many parameters as coordinates")
    names, rows = _point_rows(gf, sys, points)
    devs = _deviation_arrays(gf, sys, names, rows)
    n = gf.n
    mats = _kernel_rows(gf.s_qc, names, rows, "S_qc").reshape(-1, n, n)
    # one batched det, each matrix's bits as its own det call; fmin skips
    # NaN determinants, as a running "if d < min_det" does
    min_det = np.fmin.reduce(np.abs(np.linalg.det(mats)), initial=math.inf)
    hj_max = float(np.max(devs))
    return CompletenessReport(hj_max_dev=hj_max, min_abs_det=float(min_det),
                              complete=(hj_max <= tol and min_det >= 1e-6))


def quadrature_complete_solution(sys, q_range, branch=1, param="a1"):
    """Complete solution family for a one-degree-of-freedom system.

    For each value of the parameter (the energy of the family member)
    the momentum solves h(q, p) = param on the chosen branch, and
    S(t, q, param) = W(q, param) - t param with W the running integral
    of that root from the middle of ``q_range``.  All partials needed
    by the transforms are exact implicit derivatives.  This is the
    cyclic family of :func:`cyclic_complete_solution` with no cyclic
    coordinate, as a new-position (typeI) generating function.
    """
    if sys.n != 1:
        raise ValueError("quadrature families are built for 1-d systems")
    if param in (sys.coords[0], sys.momenta[0], TIME):
        raise ValueError("parameter name collides with a coordinate")
    return _family(sys, (), (param,), q_range, branch, "typeI")


def _family(sys, cyclic_vars, params, q_range, branch, kind):
    """S = W(rest, params) + sum_l q^l params[l+1] - t params[0].

    ``cyclic_vars`` are all coordinates but one, ``rest``.  h with each
    cyclic momentum replaced by its parameter, minus params[0], is the
    equation of the momentum root of ``rest``, and W is the running
    integral of that root from the middle of ``q_range``.
    """
    rest = next(v for v in sys.coords if v not in cyclic_vars)
    momentum = dict(zip(sys.coords, sys.momenta))
    g = sub(substitute(sys.h, {momentum[v]: Var(b)
                               for v, b in zip(cyclic_vars, params[1:])}),
            Var(params[0]))
    root = ImplicitBranchRoot(g, rest, momentum[rest], params=params,
                              branch=branch, name="dW_family")
    w = RunningIntegral(root, q_range[0], q_range[1], name="W_family")
    s = External(w, tuple(Var(v) for v in (rest,) + params))
    for v, b in zip(cyclic_vars, params[1:]):
        s = s + Var(v) * Var(b)
    return GeneratingFunction(kind, s - Var(TIME) * Var(params[0]),
                              q_vars=sys.coords, params=params)


# ---------------------------------------------------------------------------
# Cyclic-variable ansatz and the symmetric heavy top.

@dataclass
class CyclicAnsatz:
    """W = sum_l q^l beta_l + V(rest) and the induced equation for V.

    ``equation`` is h with each cyclic momentum replaced by its beta,
    each remaining momentum replaced by the named slot standing for the
    corresponding partial dV/dq, and each cyclic coordinate by 0 (h does
    not depend on it); a solution V must make it equal to the separation
    constant.  ``chart`` is the reduction chart of the cyclic
    translations that gives ``equation``, so a solution V lifts through
    it at the level mu = betas.
    """
    cyclic_vars: tuple
    remaining_vars: tuple
    slot_vars: tuple
    betas: tuple
    equation: Expr
    w_prefix: Expr
    chart: object


def cyclic_ansatz(sys, cyclic_vars, betas, seed=42):
    """Separate cyclic variables with linear terms in W.

    This is the reduction by the translations of the cyclic coordinates:
    their action has the unit vectors along them as generators, its
    chart (``reduction.build_chart``) keeps the remaining coordinates as
    the quotient coordinates with the ``dV_d<name>`` slots as their
    momenta, and ``equation`` is h under the chart's substitution at the
    level mu = ``betas``, the expression ``reduction.reduced_hamiltonian``
    gives.  Its precondition, that h is invariant under these
    translations, is sampled by ``symmetry.invariance_report`` once, as
    the reduced hamiltonian's own check would (PreconditionError naming
    the cyclic variables, with the report's witness).  ``cyclic_vars``
    are names or coordinate indices, each listed once; ``betas`` are
    numbers, one per cyclic variable.
    """
    from .reduction import _on_level, build_chart
    from .symmetry import TranslationAction, _require_invariant
    cyclic_vars = tuple(sys.coords[v] if isinstance(v, int) else v
                        for v in cyclic_vars)
    for v in cyclic_vars:
        if v not in sys.coords:
            raise ValueError(f"'{v}' is not a coordinate of the system")
    repeated = sorted({v for v in cyclic_vars if cyclic_vars.count(v) > 1})
    if repeated:
        raise ValueError(f"cyclic variables listed more than once: {repeated}")
    if len(betas) != len(cyclic_vars):
        raise ValueError("need one beta per cyclic variable")
    betas = tuple(float(b) for b in betas)
    remaining = tuple(v for v in sys.coords if v not in cyclic_vars)
    slots = tuple(f"dV_d{v}" for v in remaining)
    action = TranslationAction([[float(c == v) for c in sys.coords]
                                for v in cyclic_vars], n=sys.n)
    _require_invariant(action, sys.h, sys.coords, seed,
                       f"the hamiltonian is not cyclic in {list(cyclic_vars)}")
    chart = build_chart(action, y_names=remaining, py_names=slots)
    return CyclicAnsatz(cyclic_vars, remaining, slots,
                        tuple(Const(b) for b in betas),
                        substitute(sys.h, _on_level(sys, chart, betas)),
                        linear_combo(betas, cyclic_vars), chart)


def cyclic_complete_solution(sys, ansatz, remaining_range, branch=1):
    """Complete-solution family from a checked cyclic separation.

    ``ansatz`` is the :func:`cyclic_ansatz` of ``sys``; its cyclic
    variables are taken as checked and not sampled again.  With all but
    one coordinate cyclic, W separates as sum_l q^l b_{l+1} + V(q_rest)
    and V's derivative solves the induced 1-D equation with separation
    constant b1.  The returned family

        S = -t b1 + sum_l q^l b_{l+1} + V(q_rest, b1, b2, ...)

    is a new-momenta (typeII) generating function; its mixed-partial
    determinant reduces to dV'/db1, so non-degeneracy is exactly the
    implicit-root condition.  V is a running integral of the root over
    ``remaining_range`` with every b kept symbolic, so the ansatz's own
    betas do not enter the family.  With no cyclic coordinate the same
    builder gives :func:`quadrature_complete_solution`.
    """
    if len(ansatz.remaining_vars) != 1:
        raise ValueError("the family needs exactly one non-cyclic coordinate")
    params = tuple(f"b{i+1}" for i in range(len(ansatz.cyclic_vars) + 1))
    clash = (set(sys.coords) | set(sys.momenta)) & set(params)
    if clash:
        raise ValueError(f"parameter names collide with the system: {sorted(clash)}")
    return _family(sys, ansatz.cyclic_vars, params, remaining_range, branch,
                   "typeII")


@dataclass
class HeavyTopSolution:
    """Quadrature solution of the symmetric-top separated equation."""
    system: object
    ansatz: CyclicAnsatz
    solution: QuadratureSolution
    generating_function: GeneratingFunction
    energy: float


def heavy_top_system(i_moment, j_moment, mass, gravity, arm):
    """Symmetric top (two equal inertia moments) about a fixed point.

    Euler angles (theta, phi, psi) with conjugate momenta; the weight
    enters through mass * gravity * arm times cos(theta).
    """
    mgl = float(mass) * float(gravity) * float(arm)
    i_m, j_m = float(i_moment), float(j_moment)
    h = (f"0.5*(ptheta^2/{i_m!r}"
         f" + (pphi-ppsi*cos(theta))^2/({i_m!r}*sin(theta)^2)"
         f" + ppsi^2/{j_m!r})"
         f" + {mgl!r}*cos(theta)")
    return HamiltonianSystem(h, ("theta", "phi", "psi"),
                             ("ptheta", "pphi", "ppsi"))


def solve_heavy_top(i_moment, j_moment, mass, gravity, arm, beta2, beta3,
                    energy, theta_range, n_nodes=2001):
    """Separated solution of the symmetric top by quadrature.

    phi and psi are cyclic; W = phi beta2 + psi beta3 + V(theta) where
    dV/dtheta solves
      (1/2)((dV/dtheta)^2/I + (beta2 - beta3 cos theta)^2/(I sin^2 theta)
            + beta3^2/J) + m g l cos theta = F
    on the positive branch.  Also builds the three-parameter family
    S = -t b1 + phi b2 + psi b3 + V(theta, b1, b2, b3) whose mixed
    partials witness non-degeneracy (b1 is the separation constant).

    A range containing sin(theta) = 0 surfaces the gimbal singularity
    as a domain error; energies too low for the effective potential
    raise TurningPointError.
    """
    sys = heavy_top_system(i_moment, j_moment, mass, gravity, arm)
    ans = cyclic_ansatz(sys, ("phi", "psi"), (float(beta2), float(beta3)))
    slot = ans.slot_vars[0]
    sol = solve_reduced_1d(ans.equation, "theta", slot, float(energy),
                           theta_range, branch=1, n_nodes=n_nodes)
    gf = cyclic_complete_solution(sys, ans, theta_range)
    return HeavyTopSolution(system=sys, ansatz=ans, solution=sol,
                            generating_function=gf, energy=float(energy))


# ---------------------------------------------------------------------------
# Additive splitting over a product with a translation-group factor.

@dataclass
class SplitReport:
    """S = S_reduced + S_group + constant, with the sup residual."""
    s_reduced: Expr
    s_group: Expr
    mu: np.ndarray
    constant: float
    residual: float


def additive_split_check(s, coords, action, grid, mu=None):
    """Split a generating function over base x group coordinates.

    Precondition: the graph of dS sits inside one momentum level, i.e.
    G^T grad S is constant over the grid (within PRECONDITION_TOL,
    witness reported otherwise).  With the blocks (Y, X, L) of the
    action's chart (``action.chart_blocks``), S_group = sum_a mu_a x^a in
    the group coordinates x = X q, S_reduced is S restricted to the zero
    fiber q -> L Y q, and the residual of S = S_reduced + S_group + c is
    returned.
    """
    coords = tuple(coords)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != len(coords):
        raise ValueError("grid points must have one entry per coordinate")
    g_mat = np.asarray(action.matrix, dtype=float)
    if g_mat.shape[0] != len(coords):
        raise ValueError("action dimension does not match the coordinates")
    grads = [differentiate(s, v) for v in coords]
    # one product G^T grad S per grid point, each rounded as that point's own
    j_vals = (g_mat.T @ evaluate_rows(grads, coords, grid)[:, :, None])[..., 0]
    ref = np.asarray(mu, dtype=float) if mu is not None else j_vals[0]
    scale = 1.0 + float(np.max(np.abs(j_vals))) if j_vals.size else 1.0
    dev = np.abs(j_vals - ref)
    if j_vals.size and float(np.max(dev)) > PRECONDITION_TOL * scale:
        worst = int(np.argmax(np.max(dev, axis=1)))
        raise PreconditionError(
            "dS does not stay on one momentum level",
            witness={"point": grid[worst].tolist(),
                     "momentum": j_vals[worst].tolist(),
                     "expected": ref.tolist()})
    mu = ref
    y_block, x_block, horizontal = action.chart_blocks
    fiber_zero = horizontal @ y_block
    s_group = linear_combo(mu, [linear_combo(row, coords) for row in x_block])
    s_reduced = substitute(s, {v: linear_combo(row, coords)
                               for v, row in zip(coords, fiber_zero)})
    parts = evaluate_rows([s, s_reduced, s_group], coords, grid)
    totals = parts[:, 0] - parts[:, 1] - parts[:, 2]
    constant = totals[0]
    # the built-in max skips NaN after the first row, as it did per point
    residual = max(np.abs(totals - constant))
    return SplitReport(s_reduced=s_reduced, s_group=s_group, mu=np.array(mu),
                       constant=float(constant), residual=float(residual))
