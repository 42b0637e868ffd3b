"""Small dense linear-algebra helpers shared by the chart builders."""

from __future__ import annotations

import numpy as np

# A pivot candidate or basis entry at most this large counts as zero.
_ZERO_TOL = 1e-12


def rref(a):
    """Reduced row echelon form with partial pivoting.

    Returns (R, pivot_columns).
    """
    r = np.array(a, dtype=float)
    rows, cols = r.shape
    pivots = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        piv = lead + int(np.argmax(np.abs(r[lead:, col])))
        if abs(r[piv, col]) <= _ZERO_TOL:
            continue
        r[[lead, piv]] = r[[piv, lead]]
        r[lead] = r[lead] / r[lead, col]
        for i in range(rows):
            if i != lead and r[i, col] != 0.0:
                r[i] = r[i] - r[i, col] * r[lead]
        pivots.append(col)
        lead += 1
    return r, pivots


def left_null_basis(g):
    """Rows spanning the left null space of g (n x k), via RREF of g^T.

    The basis is the textbook free-variable one, each row normalized so
    its first nonzero entry is positive.  Returns an (n-rank) x n array.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    r, pivots = rref(g.T)
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for f in free:
        v = np.zeros(n)
        v[f] = 1.0
        for i, c in enumerate(pivots):
            v[c] = -r[i, f]
        nz = np.nonzero(np.abs(v) > _ZERO_TOL)[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
        rows.append(v)
    return np.array(rows).reshape(len(rows), n)


def group_projection(g):
    """The pseudo-inverse rows (g^T g)^{-1} g^T, a k x n array."""
    g = np.asarray(g, dtype=float)
    k = g.shape[1]
    if k == 0:
        return np.zeros((0, g.shape[0]))
    gram = g.T @ g
    return np.linalg.solve(gram, g.T)
