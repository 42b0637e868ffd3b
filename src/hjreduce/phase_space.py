"""Canonical phase spaces over R^n: systems, points, trajectories, flows.

A Hamiltonian system is a scalar expression h over declared position and
momentum coordinates (plus optionally the time variable ``TIME`` = "t",
a reserved name that no coordinate or momentum may take).  The canonical
vector field is (dh/dp, -dh/dq); the reference flow is fixed-step
classical Runge-Kutta 4, which is deliberately not symplectic so it can
serve as an independent check against the structure-preserving maps.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from .expr import (DomainError, UnboundVariableError, compile, differentiate,
                   evaluate_rows, parse)

__all__ = [
    "HamiltonianSystem", "PhasePoint", "Trajectory",
    "hamiltonian_vector_field", "symplectic_pairing", "symplectic_matrix",
    "flow_reference", "default_momentum_names", "TIME",
]

# The time variable of every layout that binds one: systems (q, p, t),
# generating functions (q, c, t) and the reduced systems of reconstruction.
TIME = "t"

# Division guard of the RK4 flows and of the transforms along them; residual
# checks and schemes guard exact zeros only.
FLOW_SINGULAR_TOL = 1e-12


def default_momentum_names(coords):
    """Momentum names paired to position names: q3 -> p3, q -> p, x -> p_x."""
    out = []
    for name in coords:
        m = re.fullmatch(r"q([0-9]+)", name)
        if m:
            out.append("p" + m.group(1))
        elif name == "q":
            out.append("p")
        else:
            out.append("p_" + name)
    return tuple(out)


class PhasePoint:
    """A point (q, p) of T*R^n, with an optional time stamp."""

    def __init__(self, q, p, t=None):
        self.q = np.atleast_1d(np.asarray(q, dtype=float))
        self.p = np.atleast_1d(np.asarray(p, dtype=float))
        if self.q.shape != self.p.shape or self.q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        self.t = None if t is None else float(t)

    @property
    def n(self):
        return self.q.size

    def flat(self):
        return np.concatenate([self.q, self.p])

    def __repr__(self):
        ts = "" if self.t is None else f", t={self.t}"
        return f"PhasePoint(q={self.q.tolist()}, p={self.p.tolist()}{ts})"


class HamiltonianSystem:
    """Hamiltonian h over coordinates q^1..q^n and momenta p_1..p_n."""

    def __init__(self, h, coords, momenta=None):
        self.h = parse(h) if isinstance(h, str) else h
        self.coords = tuple(coords)
        self.momenta = tuple(momenta) if momenta is not None else default_momentum_names(self.coords)
        if len(self.momenta) != len(self.coords):
            raise ValueError("need one momentum name per coordinate")
        names = set(self.coords) | set(self.momenta)
        if len(names) != 2 * len(self.coords):
            raise ValueError("coordinate and momentum names must be distinct")
        if TIME in names:
            raise ValueError(f"'{TIME}' is the time variable, not a "
                             "coordinate or momentum name")
        extra = self.h.free_vars() - names - {TIME}
        if extra:
            raise ValueError(f"hamiltonian uses undeclared variables: {sorted(extra)}")
        self.time_dependent = TIME in self.h.free_vars()
        self._names = (*self.coords, *self.momenta, TIME)

    # The 2n derivative trees, built on first use: reduce and integrate
    # never read them.
    @functools.cached_property
    def _dh_dq(self):
        return tuple(differentiate(self.h, v) for v in self.coords)

    @functools.cached_property
    def _dh_dp(self):
        return tuple(differentiate(self.h, v) for v in self.momenta)

    # The generated functions of (q, p, t) that the RK4 flows and the
    # reconstruction sweeps call, built on first use: the vector field's
    # (dh/dp, dh/dq) and dh/dp alone, guarded as the RK4 flows are.
    @functools.cached_property
    def _field_kernel(self):
        return compile((*self._dh_dp, *self._dh_dq), self._names, "field",
                       FLOW_SINGULAR_TOL)

    @functools.cached_property
    def _dh_dp_kernel(self):
        return compile(self._dh_dp, self._names, "dh_dp", FLOW_SINGULAR_TOL)

    @property
    def n(self):
        return len(self.coords)

    def energy(self, z, t=None):
        """h at z; t, or else the time stamp of z, is bound when set."""
        t = z.t if t is None else t
        row = [*z.q.tolist(), *z.p.tolist(), *(() if t is None else (t,))]
        names = self._names[:len(row)]
        return float(evaluate_rows([self.h], names, [row])[0, 0])

    def __repr__(self):
        return f"HamiltonianSystem({self.h}, coords={list(self.coords)})"


class Trajectory:
    """Uniformly sampled trajectory: times (N,), qs (N,n), ps (N,n)."""

    def __init__(self, times, qs, ps):
        self.times = np.asarray(times, dtype=float)
        self.qs = np.asarray(qs, dtype=float)
        self.ps = np.asarray(ps, dtype=float)
        if self.times.ndim != 1 or self.qs.shape != self.ps.shape \
                or self.qs.shape[0] != self.times.size:
            raise ValueError("inconsistent trajectory arrays")
        if self.times.size > 1:
            steps = np.diff(self.times)
            if not np.all(steps > 0):
                raise ValueError("sample times must be strictly increasing")
            self.dt = float(steps[0])
            if not np.allclose(steps, self.dt, rtol=1e-9, atol=1e-12):
                raise ValueError("sample times must be uniform")
        else:
            self.dt = 0.0

    def __len__(self):
        return self.times.size

    @property
    def n(self):
        return self.qs.shape[1]

    def point(self, i):
        return PhasePoint(self.qs[i], self.ps[i], t=self.times[i])

    def points(self):
        for i in range(len(self)):
            yield self.point(i)

    def energies(self, sys):
        """h at every sample, its time bound to the sample time."""
        rows = np.column_stack([self.qs, self.ps, self.times])
        return evaluate_rows([sys.h], sys._names, rows)[:, 0]


def hamiltonian_vector_field(sys, z, t=None):
    """Canonical vector field (dh/dp, -dh/dq) at z, as a flat 2n array.

    t, or else the time stamp of z, is the time; a field that reads t
    with neither raises UnboundVariableError.  Raises DomainError within
    ``FLOW_SINGULAR_TOL`` of a singularity.
    """
    t = z.t if t is None else t
    if t is None:
        if any(TIME in e.free_vars() for e in (*sys._dh_dp, *sys._dh_dq)):
            raise UnboundVariableError(TIME)
        t = 0.0
    return _canonical_field(sys)(t, z.flat())


def _canonical_field(sys):
    """The function (t, y) -> (dh/dp, -dh/dq) at time t and the flat
    state y = (q, p), through the system's generated field."""
    n, kernel = sys.n, sys._field_kernel

    def field(t, y):
        v = np.array(kernel(*y.tolist(), t))
        np.negative(v[n:], out=v[n:])
        return v

    return field


def symplectic_pairing(u, v):
    """Canonical pairing omega(u, v) of two flat tangent vectors (dq, dp)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size % 2:
        raise ValueError("tangent vectors must be flat arrays of equal even length")
    n = u.size // 2
    return float(u[:n] @ v[n:] - u[n:] @ v[:n])


def symplectic_matrix(n):
    """Matrix of the canonical pairing in the (dq, dp) basis."""
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def _rk4(f, y0, t0, t_end, dt):
    """Fixed-step RK4.  The step is adjusted so that t_end is hit exactly.

    A step whose array arithmetic overflows or gives NaN raises a
    DomainError naming the time it started from.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    span = t_end - t0
    if span == 0.0:
        return np.array([t0]), np.asarray(y0, dtype=float)[None, :]
    if span < 0:
        raise ValueError("t_end must not precede t0")
    steps = span / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_end and dt give {steps} steps, not a finite "
                         "count")
    n_steps = max(1, int(round(steps)))
    h = span / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    times[-1] = t_end
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((n_steps + 1, y.size))
    out[0] = y
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(n_steps):
                t = times[i]
                k1 = f(t, y)
                k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
                k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
                k4 = f(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                out[i + 1] = y
    except FloatingPointError as e:
        raise DomainError(f"RK4 step from t={float(t)}: {e}") from None
    return times, out


def flow_reference(sys, z0, t_end, dt):
    """Integrate the canonical equations with RK4 from t=0 to t_end.

    Steps that land within ``FLOW_SINGULAR_TOL`` of a division
    singularity raise a DomainError rather than continuing with garbage.
    """
    n = sys.n
    t0 = 0.0 if z0.t is None else z0.t
    times, ys = _rk4(_canonical_field(sys), z0.flat(), t0, t0 + t_end, dt)
    return Trajectory(times, ys[:, :n], ys[:, n:])
