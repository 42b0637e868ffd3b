"""Scalar expression trees: parsing, evaluation, exact differentiation.

Expressions are immutable trees over float constants, named variables,
the binary operations ``+ - * / ^`` (``^`` is right-associative power),
unary negation, and the functions sin, cos, tan, arctan, sqrt, exp, log.
Identifiers match ``[a-zA-Z][a-zA-Z0-9_]*``.

Evaluation is plain IEEE double arithmetic.  Singular operations
(division by zero, sqrt of a negative, log of a non-positive number)
and powers or functions whose result is not finite raise
:class:`DomainError` carrying the offending subexpression.  ``+ - * /``
are not checked for overflow: a sum, product or quotient beyond the
double range is inf, and arithmetic on inf can give NaN
(``1e200*1e200*q`` folds to ``inf*q``, which is NaN at q = 0).  An
unbound variable is always an error, never a default value.

Every sweep over points in the package evaluates through
:func:`evaluate_rows`, point by point: each expression of a list at the
first point, then at the next, exactly as a loop over the points would.
Single points do too, as one-row calls: each object that owns a
variable layout binds it in one place (a form's coordinates; a
system's (q, p, t), whose t is bound whenever a time is given or the
point carries one; a generating function's (q, c, t)).  The time is
the one reserved name ``t`` (``phase_space.TIME``); no coordinate or
momentum takes it, and an implicit root of ``hj`` refuses an equation
that reads it, or any name beyond the root's own layout.
The checks that evaluate h on the graph of a form (``hj.hj_residual``,
and ``hj.time_dependent_residual``, which ``hj.check_complete`` shares)
do so in two stages, the form's components over all points and then h,
so when both stages would fail at different points the first stage's
error is the one raised.

The exceptions run generated code, all of it from one generator:
:func:`_merge` turns a tuple of trees into operations merged by
structure, with constants as data, and :class:`_Lowering` writes them
out as straight-line Python whose batched checks send any point that
might fail back to the walker, so the code gives the walker's bits and
raises its errors.  External calls are operations too, in the
walker's order, and a fallback replays the results they gave instead
of calling them again.  Code is kept by shape, so functions that differ
only in their constants are lowered and compiled once per process.
:func:`compile` is the one front end that makes a scalar function of
an expression tuple, at any ``singular_tol``: a Hamiltonian system's
vector field and dh/dp and a reconstruction's field along the RK4
flows, the derivatives an implicit root's partials read, the
completeness check's tuples over its rows (``hj.check_complete``), and
a generating function's tuples when its S calls an External.  Each
root of ``hj`` generates its kernels and its Newton loop once
(:func:`compile_newton`, from the same kernel sources, all of one
merge of g and g_p), and a table build runs the same Newton on arrays of
rows (:func:`compile_newton_rows`, compiled by the first table build of
a root), one function that also returns g_p at each row's root, which
is bit-identical when g and g_p use only ``+ - * /``, negation and
sqrt and may differ in the last bits through numpy's power and
transcendental functions.  The residual of a
quadrature solution's own equation (``hj.QuadratureSolution.residual``,
which ``solve-hj`` and a cyclic ``verify`` report) is the root's kernel
g = h - E at each point, not an :func:`evaluate_rows` sweep.

Construction through the smart constructors (and through the overloaded
Python operators) performs constant folding and nothing more; no deeper
simplification is attempted, so structural equality of two expressions
is not meaningful and equality should be tested by evaluation on
sampled bindings.
"""

from __future__ import annotations

import builtins
import collections
import functools
import itertools
import marshal
import math
import re
import struct
import types

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg",
    "Call", "External",
    "ExprError", "ParseError", "UnknownFunctionError",
    "UnboundVariableError", "DomainError",
    "parse", "evaluate", "evaluate_rows", "compile", "compile_newton",
    "compile_newton_rows", "differentiate",
    "substitute",
    "free_vars", "add", "sub", "mul", "div", "power", "neg", "call", "as_expr",
    "linear_combo", "FUNCTION_NAMES",
]

_NO_VARS = frozenset()
# The bindings key of the results a failed generated function received
# from its External calls, last first; the walker replays them in place
# of the calls (:func:`compile`).  No variable name equals it.
_REPLAY = object()


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax error; ``offset`` is the byte offset into the source text."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    """An identifier was applied as a function but is not one."""

    def __init__(self, name, offset):
        super().__init__(f"unknown function '{name}'", offset)
        self.name = name


class UnboundVariableError(ExprError):
    def __init__(self, name):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(ExprError):
    """A singular operation was evaluated.  Carries the subexpression."""

    def __init__(self, message, subexpr=None):
        if subexpr is not None:
            message = f"{message} in '{subexpr}'"
        super().__init__(message)
        self.subexpr = subexpr


class Expr:
    """Abstract expression node.  Instances are immutable and shareable."""

    # The frozenset of free variable names.  Leaves set it at
    # construction, inner nodes start at None and _free_vars fills it on
    # first demand; it is then kept for the node's lifetime.
    __slots__ = ("_vars",)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def evaluate(self, bindings, singular_tol=0.0):
        """Evaluate with the given variable bindings.

        ``singular_tol`` widens the division guard: a denominator with
        absolute value below it is treated as an exact singularity.
        """
        return self._ev(bindings, singular_tol)

    def free_vars(self):
        return set(_free_vars(self))

    def __str__(self):
        return self._fmt(0)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    # Arithmetic operators build folded nodes, so formulas can be
    # assembled in Python code the same way they are parsed.
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, other):
        return power(self, as_expr(other))

    def __neg__(self):
        return neg(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "_vars", _NO_VARS)

    def _ev(self, b, tol):
        return self.value

    def _sub(self, mapping):
        return self

    def _fmt(self, ctx):
        s = repr(self.value)
        prec = 5 if self.value >= 0.0 else 3
        return f"({s})" if prec < ctx else s


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_vars", frozenset((name,)))

    def _ev(self, b, tol):
        try:
            return float(b[self.name])
        except KeyError:
            raise UnboundVariableError(self.name) from None

    def _diff(self, var):
        return Const(1.0)  # differentiate sends only var == self.name

    def _sub(self, mapping):
        repl = mapping.get(self.name)
        return self if repl is None else as_expr(repl)

    def _fmt(self, ctx):
        return self.name


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_vars", None)

    def _children(self):
        return (self.left, self.right)


class Add(_Binary):
    __slots__ = ()

    def _ev(self, b, tol):
        return self.left._ev(b, tol) + self.right._ev(b, tol)

    def _diff(self, var):
        return add(differentiate(self.left, var), differentiate(self.right, var))

    def _sub(self, mapping):
        return add(self.left._sub(mapping), self.right._sub(mapping))

    def _fmt(self, ctx):
        s = f"{self.left._fmt(1)}+{self.right._fmt(2)}"
        return f"({s})" if ctx > 1 else s


class Sub(_Binary):
    __slots__ = ()

    def _ev(self, b, tol):
        return self.left._ev(b, tol) - self.right._ev(b, tol)

    def _diff(self, var):
        return sub(differentiate(self.left, var), differentiate(self.right, var))

    def _sub(self, mapping):
        return sub(self.left._sub(mapping), self.right._sub(mapping))

    def _fmt(self, ctx):
        s = f"{self.left._fmt(1)}-{self.right._fmt(2)}"
        return f"({s})" if ctx > 1 else s


class Mul(_Binary):
    __slots__ = ()

    def _ev(self, b, tol):
        return self.left._ev(b, tol) * self.right._ev(b, tol)

    def _diff(self, var):
        u, v = self.left, self.right
        return add(mul(differentiate(u, var), v), mul(u, differentiate(v, var)))

    def _sub(self, mapping):
        return mul(self.left._sub(mapping), self.right._sub(mapping))

    def _fmt(self, ctx):
        s = f"{self.left._fmt(2)}*{self.right._fmt(3)}"
        return f"({s})" if ctx > 2 else s


class Div(_Binary):
    __slots__ = ()

    def _ev(self, b, tol):
        den = self.right._ev(b, tol)
        if den == 0.0 or abs(den) < tol:
            raise DomainError("division by zero", self)
        return self.left._ev(b, tol) / den

    def _diff(self, var):
        u, v = self.left, self.right
        num = sub(mul(differentiate(u, var), v), mul(u, differentiate(v, var)))
        return div(num, power(v, Const(2.0)))

    def _sub(self, mapping):
        return div(self.left._sub(mapping), self.right._sub(mapping))

    def _fmt(self, ctx):
        s = f"{self.left._fmt(2)}/{self.right._fmt(3)}"
        return f"({s})" if ctx > 2 else s


class Pow(_Binary):
    __slots__ = ()

    def _ev(self, b, tol):
        base = self.left._ev(b, tol)
        expo = self.right._ev(b, tol)
        if expo < 0.0 and (base == 0.0 or abs(base) < tol):
            raise DomainError("zero raised to a negative power", self)
        try:
            out = math.pow(base, expo)
        except ValueError:
            raise DomainError("invalid power (negative base, fractional exponent)", self) from None
        except OverflowError:
            raise DomainError("power overflow", self) from None
        if not math.isfinite(out):
            raise DomainError("power overflow", self)
        return out

    def _diff(self, var):
        u, v = self.left, self.right
        if isinstance(v, Const):
            # c * u^(c-1) * u'
            return mul(mul(v, power(u, Const(v.value - 1.0))), differentiate(u, var))
        # u^v * (v' log u + v u'/u)
        term = add(mul(differentiate(v, var), call("log", u)),
                   mul(v, div(differentiate(u, var), u)))
        return mul(self, term)

    def _sub(self, mapping):
        return power(self.left._sub(mapping), self.right._sub(mapping))

    def _fmt(self, ctx):
        s = f"{self.left._fmt(5)}^{self.right._fmt(4)}"
        return f"({s})" if ctx > 4 else s


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_vars", None)

    def _ev(self, b, tol):
        return -self.arg._ev(b, tol)

    def _children(self):
        return (self.arg,)

    def _diff(self, var):
        return neg(differentiate(self.arg, var))

    def _sub(self, mapping):
        return neg(self.arg._sub(mapping))

    def _fmt(self, ctx):
        s = f"-{self.arg._fmt(3)}"
        return f"({s})" if ctx > 3 else s


# Each function once: its value on floats and its derivative rule, the
# outer factor f'(u) of the Call node c = f(u), which ``Call._diff``
# multiplies by u'.  The parser, ``Call``, the generated code and
# ``FUNCTION_NAMES`` all read this table.
_FUNCTIONS = {
    "sin": (math.sin, lambda c: call("cos", c.arg)),
    "cos": (math.cos, lambda c: neg(call("sin", c.arg))),
    "tan": (math.tan,
            lambda c: div(Const(1.0), power(call("cos", c.arg), Const(2.0)))),
    "arctan": (math.atan, lambda c: div(Const(1.0),
                                        add(Const(1.0),
                                            power(c.arg, Const(2.0))))),
    "sqrt": (math.sqrt, lambda c: div(Const(0.5), call("sqrt", c.arg))),
    "exp": (math.exp, lambda c: c),
    "log": (math.log, lambda c: div(Const(1.0), c.arg)),
}

FUNCTION_NAMES = frozenset(_FUNCTIONS)


class Call(Expr):
    __slots__ = ("func", "arg")

    def __init__(self, func, arg):
        if func not in _FUNCTIONS:
            raise ValueError(f"unknown function '{func}'")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_vars", None)

    def _ev(self, b, tol):
        x = self.arg._ev(b, tol)
        if self.func == "sqrt" and x < 0.0:
            raise DomainError("sqrt of a negative number", self)
        if self.func == "log" and x <= 0.0:
            raise DomainError("log of a non-positive number", self)
        try:
            out = _FUNCTIONS[self.func][0](x)
        except ValueError:
            raise DomainError(f"{self.func} domain error", self) from None
        except OverflowError:
            raise DomainError(f"{self.func} overflow", self) from None
        if not math.isfinite(out):
            raise DomainError(f"{self.func} overflow", self)
        return out

    def _children(self):
        return (self.arg,)

    def _diff(self, var):
        du = differentiate(self.arg, var)
        return mul(_FUNCTIONS[self.func][1](self), du)

    def _sub(self, mapping):
        return call(self.func, self.arg._sub(mapping))

    def _fmt(self, ctx):
        return f"{self.func}({self.arg._fmt(0)})"


class External(Expr):
    """A numeric function object embedded in an expression tree.

    ``fn`` must be callable on floats (one per argument expression) and
    provide ``partial(i)`` returning the function object for its i-th
    partial derivative, so that symbolic differentiation can proceed
    through it.  Used for quadrature-backed solution objects whose
    values have no closed form.  Printable but not re-parseable.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "_vars", None)

    def _ev(self, b, tol):
        args = [a._ev(b, tol) for a in self.args]
        return b[_REPLAY].pop() if b.get(_REPLAY) else self.fn(*args)

    def _children(self):
        return self.args

    def _diff(self, var):
        total = Const(0.0)
        for i, a in enumerate(self.args):
            if var in _free_vars(a):
                term = mul(External(self.fn.partial(i), self.args),
                           differentiate(a, var))
                total = add(total, term)
        return total

    def _sub(self, mapping):
        return External(self.fn, tuple(a._sub(mapping) for a in self.args))

    def _fmt(self, ctx):
        name = getattr(self.fn, "name", None) or type(self.fn).__name__
        inner = ", ".join(a._fmt(0) for a in self.args)
        return f"{name}({inner})"


# ---------------------------------------------------------------------------
# Smart constructors.  They fold constants and the obvious identities
# (x+0, 1*x, x^1, ...) and nothing else.

def as_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Expr")


def add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
        if a.value == -1.0:
            return neg(b)
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
        if b.value == -1.0:
            return neg(a)
    return Mul(a, b)


def div(a, b):
    if isinstance(b, Const) and b.value != 0.0:
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and a.value == 0.0 and not (isinstance(b, Const) and b.value == 0.0):
        return Const(0.0)
    return Div(a, b)


def power(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            out = math.pow(a.value, b.value)
            if math.isfinite(out):
                return Const(out)
        except (ValueError, OverflowError):
            pass  # keep the node; evaluation reports the domain error
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return Const(1.0)
    return Pow(a, b)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def call(func, arg):
    return Call(func, arg)


def linear_combo(coeffs, terms, start=0.0):
    """start + sum_j coeffs[j] * terms[j], folded left to right.

    ``terms`` are expressions or variable names; zero coefficients drop
    out through the smart constructors.
    """
    out = Const(start)
    for c, t in zip(coeffs, terms):
        out = add(out, mul(Const(c), Var(t) if isinstance(t, str) else t))
    return out


# ---------------------------------------------------------------------------
# Module-level operations.

def parse(text):
    """Parse ``text`` into an Expr.  Raises ParseError with a byte offset."""
    return _Parser(text).parse()


def evaluate(e, bindings, singular_tol=0.0):
    return e._ev(bindings, singular_tol)


def evaluate_rows(exprs, names, rows, singular_tol=0.0):
    """Every expression at every row, as a (len(rows), len(exprs)) array.

    Row i binds ``names`` to ``rows[i]``; a name listed twice takes its
    later value.  Rows are evaluated in order, each expression in list
    order within a row, so the first DomainError raised and the order of
    the solves inside External nodes are those of a loop over the rows.
    """
    out = np.empty((len(rows), len(exprs)))
    for i, row in enumerate(rows):
        b = dict(zip(names, row))
        out[i] = [e._ev(b, singular_tol) for e in exprs]
    return out


class _Recheck(Exception):
    """A generated function's check failed: the tree walker decides."""


# What a failed operation raises in generated code: a failed check, a
# float or math error where the walker raises its DomainError, or an
# External's own DomainError.
_FAILS = (_Recheck, DomainError, ArithmeticError, ValueError)

# Names the generated sources use besides their locals, on scalars and
# on arrays of rows.  No builtins: everything a function calls is bound
# here or in its own namespace.
_NS = {
    "__builtins__": {}, "_float": float, "_pow": math.pow, "_abs": abs,
    "_range": range, "_inf": math.inf, "_DE": DomainError,
    "_Recheck": _Recheck, "_FAILS": _FAILS,
    **{f"_f_{name}": fn for name, (fn, _) in _FUNCTIONS.items()},
}
_ROWS_NS = {
    "__builtins__": {},
    "_float": lambda a: np.asarray(a, dtype=float), "_pow": np.power,
    "_abs": np.abs, "_range": range, "_inf": math.inf, "_nan": math.nan,
    "_no_rows": lambda a: np.zeros(np.shape(a), dtype=bool),
    "_full": np.full, "_where": np.where, "_count": np.count_nonzero,
    **{f"_f_{name}": getattr(np, name) for name in _FUNCTIONS},
}
_KERNEL_IDS = itertools.count(1)
# Code by shape (:func:`_generate`): each key maps to the code objects of
# its sources.  Emptied when it holds this many.
_CODE_CACHE_CAP = 256
_CODE_CACHE = {}


def _generate(ns, kind, name, extra, merged, mode, lower):
    """Run the code of :func:`_merge`'s ``merged`` in ``ns``, as files
    ``<KIND NAME #N>``.

    The sources are a function of the operations and outputs alone,
    which hold data as slots (``_k{j}`` reads ``data[j]``), of the
    ``mode`` and of ``extra`` (the rest of what the source depends on),
    and the code is cached under a key of exactly these.  So the key
    holds no datum's value and not which data are equal, and functions
    that differ only in their constants share it, unless two constants
    equal in one of them share an operation, or a constant exponent's
    sign differs (:func:`_merge`'s kind ``^+``).  ``lower()`` gives the
    sources' lines and runs only on a miss: a hit relabels the cached
    code objects and binds each ``_k{j}`` to ``data[j]``, with no
    lowering and no ``builtins.compile``.  The cache holds code alone,
    never a namespace, whose data and walkers hold roots and tables.
    """
    ops, data, outs = merged or ((), (), ())
    # version 2 writes values alone, never references to objects
    key = (kind, extra, mode, merged and marshal.dumps((ops, outs), 2))
    hit = key in _CODE_CACHE
    files = (f"<{kind} {name} #{n}>" for n in _KERNEL_IDS)
    if not hit:
        if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = [builtins.compile("\n".join(lines), next(files),
                                             "exec") for lines in lower()]
    for j, datum in enumerate(data):
        ns[f"_k{j}"] = np.float64(datum) if mode == "rows" else datum
    for code in _CODE_CACHE[key]:
        exec(_relabel(code, next(files)) if hit else code, ns)
    return ns


def _relabel(code, filename):
    """``code`` and the code objects nested in it, in file ``filename``."""
    consts = tuple(_relabel(c, filename) if isinstance(c, types.CodeType)
                   else c for c in code.co_consts)
    return code.replace(co_filename=filename, co_consts=consts)


def _prologue(args):
    """The lines float()-converting the arguments ``a{i}``, i in args."""
    return [f"x{i} = _float(a{i})" for i in sorted(args)]


def _indent(lines, depth):
    return ["    " * depth + text for text in lines or ["pass"]]


def _bind_walker(ns, fname, exprs, argnames, singular_tol):
    """Put ``fname_walk(args, got)`` in ``ns``: the tree walker at
    ``args``, replaying ``got``, the results a failed kernel received
    from its External calls, in order, in place of those calls.

    Returns whether ``exprs`` is a single Expr, and the expressions."""
    single = isinstance(exprs, Expr)
    exprs = (exprs,) if single else tuple(exprs)

    def walker(args, got):
        b = dict(zip(argnames, args))
        b[_REPLAY] = got[::-1]
        out = tuple([e._ev(b, singular_tol) for e in exprs])
        return out[0] if single else out

    ns[f"{fname}_walk"] = walker
    return single, exprs


# Operations per generated function: compiling one long source takes
# memory that grows with its length.
_CHUNK = 200


def compile(exprs, argnames, name, singular_tol=0.0):
    """One generated function evaluating ``exprs``.

    ``f = compile(exprs, argnames, name, singular_tol)`` gives
    ``f(*args)``, which returns ``tuple(evaluate(e, dict(zip(argnames,
    args)), singular_tol) for e in exprs)`` bit for bit and type for
    type, or raises the walker's error; a single Expr gives a single
    value.  A name listed twice in ``argnames`` takes its later argument.

    The function runs the operations of :func:`_merge`, the trees merged
    by structure, on the float()-converted arguments as straight-line
    code (:class:`_Lowering`), then checks that every power and call
    gave a finite value and, when ``singular_tol`` is positive, that no
    denominator and no base of a power with a possibly negative exponent
    lies within it.  A failed check, or a float or math error, evaluates
    the arguments again with the tree walker, which raises its
    DomainError on the same node.  A tuple holding a name outside
    ``argnames`` is always walked, so an unbound variable raises
    UnboundVariableError where the walker reaches it.

    External calls are operations like the others, never merged, in the
    walker's order, and the pending checks run before each of them, so
    the function calls an External only where the walker would.  An
    External's own error is raised as it is.  A fallback after some
    calls does not call them again: the walker replays, in order, the
    results they gave, and calls only the Externals past them.

    Up to ``_CHUNK`` operations are one function.  More run in chunk
    functions of at most ``_CHUNK`` operations, each generated as a
    source of its own: ``f`` converts the arguments, then calls the
    chunks in order, each with the arguments it reads and one list that
    carries the values read by later chunks, all inside ``f``'s one
    fallback to the walker.  Nothing recurses, so no tree is too deep to
    compile.  The sources hold only generated names: constants, like
    every other object, are bound in the function's namespace, so
    functions of one shape share their code (:func:`_generate`), and a
    shape built before in this process is neither lowered nor compiled
    again.  Each code object's file name is ``<kernel NAME #N>``, N
    counting the generated sources built in this process, so profiles
    (which key functions by file, line and name) and tracebacks keep
    every function apart.
    """
    ns = dict(_NS, _tol=singular_tol)
    single, exprs = _bind_walker(ns, "_kernel", exprs, argnames,
                                 singular_tol)
    mode = "guarded" if singular_tol > 0.0 else "scalar"
    merged = _merge(exprs, {v: i for i, v in enumerate(argnames)})
    lower = functools.partial(_kernel_sources, "_kernel", single,
                              len(argnames), merged, mode)
    return _generate(ns, "kernel", name, (single, len(argnames)), merged,
                     mode, lower)["_kernel"]


def _kernel_sources(fname, single, nargs, merged, mode):
    """The sources of its chunks ``fname_0``, .. (none for one chunk),
    then of ``fname(a0, ..)``, the function :func:`compile` describes,
    from ``merged`` (:func:`_merge`; None walks every call): the
    operations its outputs read, in order."""
    args = "".join(f"a{i}, " for i in range(nargs))
    if merged is None:
        return [[f"def {fname}({args}):",
                 f"    return {fname}_walk(({args}), ())"]]
    ops, _, outs = merged
    need = set(outs)  # the operations the outputs read
    for i in range(max(outs, default=-1), -1, -1):
        if i in need and ops[i][0] != "a":
            need.update(ops[i][1:])
    steps = [i for i in _steps(ops) if i in need]
    calls = any(ops[i][0] == "x" for i in steps)
    carry = "r, got" if calls else "r"
    chunks = [steps[j:j + _CHUNK]
              for j in range(0, len(steps), _CHUNK)] or [[]]
    last = len(chunks) - 1
    home = {i: c for c, chunk in enumerate(chunks) for i in chunk}
    # the values a later chunk reads or returns
    crossing = {j for i in steps for j in ops[i][1:]
                if home.get(j, home[i]) < home[i]}
    crossing.update(j for j in outs if home.get(j, last) < last)
    shared = {}  # a crossing value's index in the list r
    read, defs, body = set(), [], ["r = []"]
    for c, chunk in enumerate(chunks):
        low = _Lowering(ops, chunk, crossing.union(outs), mode, calls)
        low.shared = shared
        lines = low.segment(chunk)
        if c < last:
            out = [i for i in chunk if i in crossing]
            shared.update((i, len(shared)) for i in out)
            lines.append("r += [" + ", ".join(low.name[i] for i in out) + "]")
        else:
            rets = [low.operand(j) for j in outs]
            ret = "(" + "".join(f"{r}, " for r in rets) + ")"
            lines += [*low.lines, f"return {rets[0] if single else ret}"]
        read |= low.args
        if not last:
            body = lines
            break
        params = "".join(f"x{i}, " for i in sorted(low.args))
        defs.append([f"def {fname}_{c}({params}{carry}):", *_indent(lines, 1)])
        body.append(("return " if c == last else "")
                    + f"{fname}_{c}({params}{carry})")
    # a None last in got is a call that raised: its error is the walker's
    return [*defs, [f"def {fname}({args}):", *(["    got = []"] * calls),
                    "    try:", *_indent([*_prologue(read), *body], 2),
                    "    except _FAILS:",
                    *(["        if got and got[-1] is None: raise"] * calls),
                    f"        return {fname}_walk(({args}), "
                    f"{'got' if calls else '()'})"]]


def compile_newton(g, g_p, argnames, name, tol, max_iter, slack):
    """The kernels of g and g_p and a Newton loop on g, from one source.

    ``argnames`` lists the arguments, then the momentum p; every
    variable of g must be one of them.  Returns ``(g_fn, gp_fn,
    newton)``: g_fn and gp_fn are kernels of g and g_p as :func:`compile`
    describes them, each running the operations it reads of the one
    merge of (g, g_p) that the loop runs (their sources, chunks
    included, are part of this one), and ``newton(*args, p0, s)`` runs
    Newton on p from p0:
    at most ``max_iter`` iterations, stopping when g is exactly 0, when
    g or g_p fails (as the walker would raise DomainError), when g_p is
    0, or when the step returns to p or to the previous iterate (a
    2-cycle).  It returns the first iterate with the least |g| if that
    |g| is at most ``tol``, else None; a result with ``s * p < -slack``
    is None too (``s = 0.0`` accepts either sign).

    The loop runs the operations :func:`_merge` makes of (g, g_p), so
    each g and g_p it reads is the kernel's bit for bit, split in three
    segments, each ending in its checks (:class:`_Lowering`).  The head,
    every operation that reads neither p nor an External, runs once per
    call.  If it fails, g or g_p would fail at every p, so the loop is
    not entered: the result is None when g itself raises at p0, and p0
    when |g(p0)| is within ``tol``, as the loop's first iteration would
    give.  Each iteration runs the g part (the rest of what g reads),
    then the g_p part; External calls are never merged and run in the
    walker's order, and none runs after a failed operation.  Constants
    are data, so roots whose equations differ only in constants share
    the code (:func:`_generate`).  The file name is ``<newton NAME #N>``.
    """
    _refuse_stray(g, g_p, argnames)
    ns = dict(_NS, _tol=0.0)
    merged = _merge((g, g_p), {v: i for i, v in enumerate(argnames)})
    for fname, e in (("_g", g), ("_gp", g_p)):
        _bind_walker(ns, fname, e, argnames, 0.0)
    args = "".join(f"a{i}, " for i in range(len(argnames) - 1))
    accept = f"<= {tol!r} and not s * {{}} < {-slack!r}".format

    def lower():
        ops, data, outs = merged
        source = [line for fname, out in zip(("_g", "_gp"), outs)
                  for lines in _kernel_sources(fname, True, len(argnames),
                                               (ops, data, [out]), "scalar")
                  for line in lines]
        low, (head_g, head_gp, in_g, in_gp), gv, gpv = _newton_lowering(
            merged, len(argnames) - 1, "scalar")
        return [source + [
            f"def _newton({args}p, s):",
            *_indent(_prologue(low.args), 1),
            "    p = _float(p)",
            "    try:",
            *_indent(head_g + head_gp, 2),
            "    except _FAILS:",
            f"        try: gv = _g({args}p)",
            "        except _DE: return None",
            f"        return p if _abs(gv) {accept('p')} else None",
            "    best_p = None",
            "    best_g = _inf",
            "    prev = None",
            f"    for _ in _range({int(max_iter)}):",
            "        try:",
            *_indent(in_g, 3),
            "        except _FAILS:",
            "            break",
            f"        ag = _abs({gv})",
            "        if ag < best_g:",
            "            best_p = p",
            "            best_g = ag",
            f"        if {gv} == 0.0:",
            "            break",
            "        try:",
            *_indent(in_gp, 3),
            "        except _FAILS:",
            "            break",
            f"        if {gpv} == 0.0:",
            "            break",
            f"        p_new = p - {gv} / {gpv}",
            "        if p_new == p or p_new == prev:",
            "            break",
            "        prev = p",
            "        p = p_new",
            f"    if best_g {accept('best_p')}:",
            "        return best_p",
            "    return None",
        ]]

    ns = _generate(ns, "newton", name,
                   (len(argnames), accept("p"), int(max_iter)), merged,
                   "scalar", lower)
    return ns["_g"], ns["_gp"], ns["_newton"]


def _refuse_stray(g, g_p, argnames):
    stray = (free_vars(g) | free_vars(g_p)) - set(argnames)
    if stray:
        raise UnboundVariableError(min(stray))


def compile_newton_rows(g, g_p, argnames, name, tol, max_iter, slack):
    """:func:`compile_newton`'s loop on arrays of rows, with its g_p.

    Returns ``newton_rows``, or None when g or g_p calls an External
    (whose calls must stay in the walker's order) or g does not read
    the momentum.  ``newton_rows(*args, p0, s)`` takes equal-length
    float arrays, one row per element, and returns ``(p, ok, g_p,
    g_p_bad)``: where ``ok``, ``p`` is the result of ``compile_newton``'s
    loop from that row's p0; elsewhere the loop returns None.  ``g_p``
    is g_p at the row's ``p``, computed in the iteration that recorded
    that iterate, and ``g_p_bad`` marks the rows where the g_p kernel
    raises there (and the rows that recorded no iterate).  Every
    variable of g must be one of ``argnames``, as for compile_newton.

    The source is the scalar loop's segments in rows mode
    (:class:`_Lowering`): the same operations and names on arrays, a
    failed check ORed into a row mask ``bad`` and a math call numpy's
    function.  The head runs once over all rows, its part for g and its
    part for g_p masked apart.  Each row follows the scalar loop's
    rules: at most ``max_iter`` iterations; a stop on an exact-zero g,
    on a failure in the g part (before the best-so-far update) or the
    g_p part (after it), on g_p == 0, and on a step back to p or to the
    previous iterate; the first iterate with the least |g|; the same
    ``tol`` and branch ``slack``.  Every row stays in the arrays until
    the last one stops.  numpy rounds ``+ - * /``, negation and sqrt
    correctly, as Python does, so when g and g_p use only those a row's
    result and g_p are the scalar kernels' bit for bit; numpy's power
    and transcendental functions may differ from libm in the last bits,
    and g_p of a quotient that reads p holds a power, the denominator
    ^2.  Stopped rows compute NaN and inf, so call it under
    ``np.errstate(all="ignore")``.  The file name is
    ``<newton-rows NAME #N>``.
    """
    _refuse_stray(g, g_p, argnames)
    if argnames[-1] not in free_vars(g):
        return None
    merged = _merge((g, g_p), {v: i for i, v in enumerate(argnames)})
    if any(op[0] == "x" for op in merged[0]):
        return None
    args = "".join(f"a{i}, " for i in range(len(argnames) - 1))
    accept = f"(best_g <= {tol!r}) & ~(s * best_p < {-slack!r})"

    def lower():
        low, (head_g, head_gp, in_g, in_gp), gv, gpv = _newton_lowering(
            merged, len(argnames) - 1, "rows")
        return [[
            f"def _newton_rows({args}p, s):",
            *_indent(_prologue(low.args), 1),
            "    p = _float(p)",
            "    bad = _no_rows(p)",
            *_indent(head_g, 1),
            "    bad_g = bad",
            "    bad = bad_g.copy()",
            *_indent(head_gp, 1),
            "    bad_gp = bad",
            "    best_p = _full(p.shape, _nan)",
            "    best_g = _full(p.shape, _inf)",
            "    best_gp = best_p",
            "    gp_bad = ~_no_rows(p)",
            "    live = ~_no_rows(p)",
            "    prev = best_p",
            f"    for _ in _range({int(max_iter)}):",
            "        bad = bad_g.copy()",
            *_indent(in_g, 2),
            "        live &= ~bad",
            f"        ag = _abs({gv})",
            "        better = live & (ag < best_g)",
            "        best_p = _where(better, p, best_p)",
            "        best_g = _where(better, ag, best_g)",
            f"        live &= {gv} != 0.0",
            "        bad = bad_gp.copy()",
            *_indent(in_gp, 2),
            f"        best_gp = _where(better, {gpv}, best_gp)",
            "        gp_bad = _where(better, bad, gp_bad)",
            f"        p_new = p - {gv} / {gpv}",
            f"        live &= ~bad & ({gpv} != 0.0) & (p_new != p) & (p_new != prev)",
            "        if not _count(live):",
            "            break",
            "        prev = p",
            "        p = p_new",
            f"    ok = {accept}",
            "    return best_p, ok, best_gp, gp_bad",
        ]]

    return _generate(dict(_ROWS_NS), "newton-rows", name,
                     (len(argnames), accept, int(max_iter)), merged, "rows",
                     lower)["_newton_rows"]


def _newton_lowering(merged, moving, mode):
    """The ``mode`` lowering of a Newton loop on g in argument ``moving``,
    from :func:`_merge` of (g, g_p).

    Returns it, its four segments' lines (the head's part g reads, the
    head's rest, the g part and the g_p part) and the operands of g and
    g_p.  The head holds the operations that read neither the momentum
    nor an External.  :func:`_merge` lists g's operations first, so g
    reads those up to its own.
    """
    ops, _, (g_out, gp_out) = merged
    moving = ("a", moving)
    varies = []
    for op in ops:
        varies.append(op == moving or op[0] == "x" or (
            op[0] != "a" and any(varies[j] for j in op[1:] if j >= 0)))
    steps = _steps(ops)
    head = [i for i in steps if not varies[i]]
    low = _Lowering(ops, steps, [*head, g_out, gp_out], mode, False)
    if moving in ops:
        low.name[ops.index(moving)] = "p"
    loop = [i for i in steps if varies[i]]
    parts = [low.segment([i for i in part if (i <= g_out) is for_g])
             for part in (head, loop) for for_g in (True, False)]
    return low, parts, low.operand(g_out), low.operand(gp_out)


_KINDS = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^", Neg: "neg",
          External: "x", Var: "a"}


def _merge(exprs, slot):
    """The expressions as operations merged by structure, or None.

    Returns ``(ops, data, outs)``.  ``ops`` lists each operation after
    its operands, in the order the walker first evaluates it:
    ``("a", i)`` reads argument i, and ``(kind, *operands)`` computes,
    kind being ``+ - * / ^``, "^+" (a power whose exponent is a
    constant that is not negative, so its base is never guarded),
    "neg", a function name or "x", an External call whose first
    operand is its function.  An operand ``j >= 0`` is the value of
    ``ops[j]``; ``~j`` reads ``data[j]``, a constant or an External's
    function, and each read is a datum of its own, j counting the reads
    in order.  So the operations say all that a generated source reads,
    and the data only the values it computes with, and which constants
    are equal shows only in the sharing of the operations that read
    them: two nodes share an operation when their types, function names
    and operands are equal, a constant's key being its bit pattern (0.0
    and -0.0 stay apart).
    An External call, and every operation over one, is never shared:
    each runs where the walker runs it.  ``outs`` is each expression's
    operand.  None when an expression reads a name outside ``slot``.
    """
    ops, data, outs = [], [], []
    index = {}  # key of a shared operation -> its index in ops
    seen = {}  # id(node) -> its index in ops or ~constant, over no External
    consts, values = {}, []  # a constant's bits -> ~its index in values
    calls = set()  # the indices of the operations over an External

    def read(got):  # each ~i in got: a datum of its own, values[i]
        for at, j in enumerate(got):
            if j < 0:
                got[at] = ~len(data)
                data.append(values[~j])
        return got

    for e in exprs:
        done, stack = [], [e]
        while stack:
            node = stack.pop()
            cls = type(node)
            if cls is tuple:  # a node whose operands' indices end done
                node, n = node
                cls = type(node)
                got = done[len(done) - n:]
                del done[len(done) - n:]
                if cls is Div:
                    got.reverse()
            elif id(node) in seen:
                done.append(seen[id(node)])
                continue
            elif cls is Const:
                k = consts.setdefault(struct.pack("<d", node.value),
                                      ~len(values))
                values.append(node.value)
            elif cls is Var:
                if node.name not in slot:
                    return None
                got = [slot[node.name]]
            else:
                kids = node._children()
                got = list(map(seen.get, map(id, kids)))
                if None in got:
                    stack.append((node, len(kids)))
                    # the walker evaluates a denominator first
                    stack += kids if cls is Div else kids[::-1]
                    continue
            if cls is External:
                got.insert(0, ~len(values))
                values.append(node.fn)
            if cls is not Const:
                plus = cls is Pow and got[1] < 0 <= values[~got[1]]
                key = ("^+" if plus else _KINDS.get(cls) or node.func, *got)
                new = cls is External or (
                    cls is not Var and calls and not calls.isdisjoint(got))
                k = None if new else index.get(key)
            if k is None:
                k = index[key] = len(ops)
                ops.append(key if min(got) >= 0 else (key[0], *read(got)))
                if new:  # never shared; a later equal key is new too
                    calls.add(k)
            if k not in calls:
                seen[id(node)] = k
            done.append(k)
        outs += read(done)
    return ops, data, outs


def _steps(ops):
    """The indices of the operations that compute, in order."""
    return [i for i, op in enumerate(ops) if op[0] != "a"]


class _Lowering:
    """The lines of one generated function, from :func:`_merge`'s ops.

    :meth:`segment` gives the statements computing some of ``steps``,
    each after its operands, then the segment's checks.  Argument i is
    the local ``x{i}``, bound by :func:`_prologue`; an operation that an
    earlier chunk of :func:`compile` computed is read from the list
    ``r``, at its index in ``shared``.  Datum j is the global ``_k{j}``,
    and :func:`_merge` gives each read a datum of its own, so the source
    is a function of the operations alone: it depends neither on the
    constants' values nor on which of them are equal.  A register is
    reused after its operation's last read in ``steps``, except for the
    operations in ``keep``.

    A segment's checks are batched: every power and call gave a finite
    value and, in ``guarded`` mode, no denominator and no base of a
    power of kind ``^`` (an exponent that may be negative) lies within
    the global ``_tol``.  On scalars a failed check raises ``_Recheck``,
    and a division by zero or a math error raises by itself.  In ``rows``
    mode each operand holds one value per row, a failed check ORs into
    the row mask ``bad``, and so does a zero denominator, since numpy's
    division does not raise.  Before each External call the pending
    checks are emitted too, with the denominator of every division
    whose numerator holds the call, so that no call runs where the
    walker would have raised.  With ``record``, each call appends its
    result to the list ``got``, after a None that marks it running.
    """

    def __init__(self, ops, steps, keep, mode, record):
        self.ops, self.steps, self.record = ops, steps, record
        self.rows, self.guarded = mode == "rows", mode == "guarded"
        self.keep = set(keep)
        self.reads = collections.Counter(j for i in steps
                                         for j in ops[i][1:])
        self.name, self.lines, self.free = {}, [], []
        self.temps = itertools.count()
        self.args = set()  # the arguments read
        self.shared = {}  # earlier chunks' values: index in the list r
        self.finite, self.small, self.zero = {}, {}, {}  # pending checks
        self.parent = {}  # an operation's reader, made at a first call

    def operand(self, j):
        text = self.name.get(j)
        if text is None:
            if j < 0:
                return f"_k{~j}"
            kind, arg = self.ops[j][:2]
            if kind == "a":
                self.args.add(arg)
                text = f"x{arg}"
            else:
                text = self._temp()
                self.lines.append(f"{text} = r[{self.shared[j]}]")
            self.name[j] = text
        return text

    def segment(self, steps):
        """The lines computing ``steps``, then their checks."""
        for i in steps:
            self._emit(i)
        self._check()
        lines, self.lines = self.lines, []
        return lines

    def _temp(self):
        return self.free.pop() if self.free else f"t{next(self.temps)}"

    def _release(self, j):
        text = self.name.get(j)
        if text and text[0] == "t" and not self.reads[j] \
                and j not in self.keep and j not in self.finite \
                and j not in self.small and j not in self.zero:
            self.free.append(self.name.pop(j))

    def _emit(self, i):
        op = self.ops[i]
        kind = op[0]
        if kind == "x":  # the operations over a call have one reader
            self.parent = self.parent or {j: k for k, o in enumerate(self.ops)
                                          if o[0] != "a" for j in o[1:]}
            held = self.small if self.guarded else self.zero
            child = i
            while (up := self.parent.get(child)) is not None:
                if self.ops[up][:2] == ("/", child):
                    held[self.ops[up][2]] = self.operand(self.ops[up][2])
                child = up
            self._check()
        xs = [self.name.get(j) or self.operand(j) for j in op[1:]]
        if kind == "x":
            text = f"{xs[0]}({', '.join(xs[1:])})"
        elif kind == "neg":
            text = "-" + xs[0]
        elif len(xs) == 1:
            text = f"_f_{kind}({xs[0]})"
        elif kind[0] == "^":
            text = f"_pow({xs[0]}, {xs[1]})"
            if self.guarded and kind == "^":
                self.small[op[1]] = xs[0]
        else:
            text = f"{xs[0]} {kind} {xs[1]}"
            if kind == "/" and (self.rows or self.guarded):
                (self.zero if self.rows else self.small)[op[2]] = xs[1]
        for j in op[1:]:
            self.reads[j] -= 1
            if not self.reads[j]:
                self._release(j)
        out = self.name[i] = self._temp()
        record = "got.append(None); got[-1] = " * (kind == "x" and self.record)
        self.lines.append(f"{record}{out} = {text}")
        if kind[0] == "^" or (len(xs) == 1 and kind != "neg"):
            self.finite[i] = out

    def _check(self):
        """Emit the pending checks."""
        conds = [f"_abs({x}) < _tol" for x in self.small.values()]
        conds += [f"{x} == 0.0" for x in self.zero.values()]
        if self.finite:
            conds.insert(0, " + ".join(f"({x} - {x})" for x in
                                       self.finite.values()) + " != 0.0")
        held = [*self.finite, *self.small, *self.zero]
        self.finite, self.small, self.zero = {}, {}, {}
        for j in held:
            self._release(j)
        if conds and self.rows:
            self.lines.append("bad |= " + " | ".join(f"({c})" for c in conds))
        elif conds:
            self.lines.append(f"if {' or '.join(conds)}: raise _Recheck")


def differentiate(e, var):
    """Exact partial derivative.  Absent variables give the zero Expr."""
    if var not in _free_vars(e):
        return Const(0.0)
    return e._diff(var)


def substitute(e, mapping):
    """Replace variables by expressions (or numbers), folding constants."""
    if not mapping:
        return e
    return e._sub(mapping)


def free_vars(e):
    return e.free_vars()


def _free_vars(e):
    """The cached frozenset of variable names in ``e``.

    An uncached inner node gets its set from its children's, bottom-up
    on an explicit stack: each node's set is computed once in its
    lifetime, and the walk adds no recursion depth.
    """
    out = e._vars
    if out is not None:
        return out
    stack = [e]
    while stack:
        node = stack[-1]
        todo = [c for c in node._children() if c._vars is None]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if node._vars is None:  # a shared node can be on the stack twice
            object.__setattr__(node, "_vars", _node_vars(node))
    return e._vars


def _node_vars(node):
    """An inner node's variable set, from its children's cached sets.

    A child's set is reused when it holds the others, so a long sum
    keeps one set object for all its partial sums.
    """
    out = _NO_VARS
    for child in node._children():
        s = child._vars
        if not s <= out:
            out = s if out <= s else out | s
    return out


# ---------------------------------------------------------------------------
# Recursive-descent parser.
#
#   sum    := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' unary)?          right-associative
#   atom   := number | ident | ident '(' sum ')' | '(' sum ')'

_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def parse(self):
        e = self._sum()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected '{self.text[self.pos]}'", self.pos)
        return e

    def _skip_ws(self):
        t, n = self.text, len(self.text)
        while self.pos < n and t[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _sum(self):
        e = self._term()
        while True:
            c = self._peek()
            if c == "+":
                self.pos += 1
                e = add(e, self._term())
            elif c == "-":
                self.pos += 1
                e = sub(e, self._term())
            else:
                return e

    def _term(self):
        e = self._unary()
        while True:
            c = self._peek()
            if c == "*":
                self.pos += 1
                e = mul(e, self._unary())
            elif c == "/":
                self.pos += 1
                e = div(e, self._unary())
            else:
                return e

    def _unary(self):
        if self._peek() == "-":
            self.pos += 1
            return neg(self._unary())
        return self._power()

    def _power(self):
        e = self._atom()
        if self._peek() == "^":
            self.pos += 1
            # exponent parsed as unary: '^' binds tighter than prefix '-',
            # but 'x^-2' is still accepted
            return power(e, self._unary())
        return e

    def _atom(self):
        c = self._peek()
        if c == "":
            raise ParseError("unexpected end of input", len(self.text))
        if c == "(":
            self.pos += 1
            e = self._sum()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return e
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError(f"number '{m.group()}' is out of range",
                                 self.pos)
            self.pos = m.end()
            return Const(value)
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if self._peek() == "(":
                if name not in _FUNCTIONS:
                    raise UnknownFunctionError(name, start)
                self.pos += 1
                arg = self._sum()
                if self._peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
                return Call(name, arg)
            return Var(name)
        raise ParseError(f"unexpected '{c}'", self.pos)
