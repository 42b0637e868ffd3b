"""Shared numeric oracles: finite differences and random expressions.

Everything here is an independent check — no code path under test is
used to produce an expected value.
"""

import numpy as np

from hjreduce.expr import Call, Const, Neg, Var, call, substitute


def fd_derivative(f, x, h=1e-5):
    """Central difference of a scalar callable."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of f: R^n -> R."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian of f: R^n -> R^m."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.column_stack(cols)


def random_expr(rng, names, depth):
    """Random expression over the named variables.

    The grammar keeps every sample point well inside function domains
    (denominators and log/sqrt arguments are 1.2 + (.)^2, exponentials
    are damped through sin) so central differences stay conditioned.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.65:
            return Var(names[rng.integers(len(names))])
        return Const(float(round(rng.uniform(-2, 2), 3)))
    op = rng.integers(9)
    a = random_expr(rng, names, depth - 1)
    if op == 0:
        return a + random_expr(rng, names, depth - 1)
    if op == 1:
        return a - random_expr(rng, names, depth - 1)
    if op == 2:
        return a * random_expr(rng, names, depth - 1)
    if op == 3:
        b = random_expr(rng, names, depth - 1)
        return a / (Const(1.2) + b * b)
    if op == 4:
        return a ** Const(float(rng.integers(2, 4)))
    if op == 5:
        return call("sin", a)
    if op == 6:
        return call("cos", a)
    if op == 7:
        return call("exp", Const(0.5) * call("sin", a))
    b = random_expr(rng, names, depth - 1)
    fn = "log" if rng.random() < 0.5 else "sqrt"
    return call(fn, Const(1.2) + b * b)


def separate_cyclic(sys, cyclic_vars, betas):
    """The cyclic separation of h by direct substitution.

    Each cyclic momentum becomes its beta and each remaining momentum
    the slot ``dV_d<name>``; the coordinates are left alone.
    """
    mapping = {}
    for q, p in zip(sys.coords, sys.momenta):
        if q in cyclic_vars:
            mapping[p] = Const(float(betas[list(cyclic_vars).index(q)]))
        else:
            mapping[p] = Var(f"dV_d{q}")
    return substitute(sys.h, mapping)


def tree_shape(e):
    """An expression's nodes as nested tuples, constants by their repr."""
    if isinstance(e, Const):
        return ("Const", repr(e.value))
    if isinstance(e, Var):
        return ("Var", e.name)
    if isinstance(e, Neg):
        return ("Neg", tree_shape(e.arg))
    if isinstance(e, Call):
        return ("Call", e.func, tree_shape(e.arg))
    return (type(e).__name__, tree_shape(e.left), tree_shape(e.right))
