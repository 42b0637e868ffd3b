"""The echelon form and the quotient-chart blocks of a generator matrix."""

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


def chart_blocks(g):
    """The quotient chart (Y, X, L) of the columns of g (n x k).

    Y, (n-k) x n, is the left null basis read off the reduced echelon
    form of g^T: the textbook free-variable one, each row normalized so
    its first nonzero entry is positive.  X = (g^T g)^{-1} g^T, k x n, is
    the group projection, and L, n x (n-k), the horizontal lift: the
    first n-k columns of the inverse of the stacked map [Y; X].  These
    are the only rules by which generators are accepted: ValueError
    when the Gram matrix g^T g overflows, and "linearly dependent" when
    the echelon form has fewer than k pivots or either solve is
    singular.  k = 0 gives Y = L = I and k = n empty Y and L, with no
    case of their own.
    """
    n, k = g.shape
    try:
        # the Gram product first: an entry that squares past the double
        # range would also overflow inside the echelon form
        with np.errstate(over="raise"):
            gram = g.T @ g
    except FloatingPointError:
        raise ValueError("generators too large: their Gram matrix G^T G "
                         "overflows") from None
    r, pivots = rref(g.T)
    if len(pivots) == k:
        y_block = np.zeros((n - k, n))
        for row, f in zip(y_block, (c for c in range(n) if c not in pivots)):
            row[f] = 1.0
            for i, c in enumerate(pivots):
                row[c] = -r[i, f]
            nz = np.nonzero(np.abs(row) > _ZERO_TOL)[0]
            if nz.size and row[nz[0]] < 0:
                row *= -1.0
        try:
            x_block = np.linalg.solve(gram, g.T)
            return y_block, x_block, np.linalg.solve(
                np.vstack([y_block, x_block]),
                np.vstack([np.eye(n - k), np.zeros((k, n - k))]))
        except np.linalg.LinAlgError:
            pass
    raise ValueError("generators are linearly dependent")
