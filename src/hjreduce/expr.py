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
point carries one; a generating function's (q, c, t)).  The exception
is a Hamiltonian system's vector field, dh/dp and h along the RK4
flows, the energies of a trajectory and the reconstruction sweeps:
they call the system's compiled plans (:class:`_Plan`), the same
operations merged by structure into straight-line code whose checks
send any point that might fail back to the walker, so they give the
walker's bits and raise its errors.  The time is
the one reserved name ``t`` (``phase_space.TIME``); no coordinate or
momentum takes it, and an implicit root of ``hj`` refuses an equation
that reads it, or any name beyond the root's own layout.  The
implicit roots of ``hj`` (the Newton iteration and the root-derivative
class) never walk a tree: they call kernels and a Newton loop generated
once per root by :func:`compile_newton` and :func:`compile`, which are
bit-identical to the walker, and a table build calls the same Newton
on arrays of rows (:func:`compile_newton_rows`, compiled by the first
table build of a root), one function that also returns g_p at each
row's root, which is bit-identical when g and g_p use only ``+ - * /``,
negation and sqrt and may differ in the last bits through numpy's
power and transcendental functions.  Nor does the
residual of a quadrature solution's own equation
(``hj.QuadratureSolution.residual``, which ``solve-hj`` and a cyclic
``verify`` report): it is the root's kernel g = h - E at each point,
not an :func:`evaluate_rows` sweep.
The checks that evaluate h on the graph of a form (``hj.hj_residual``,
and ``hj.time_dependent_residual``, which ``hj.check_complete`` shares)
do so in two stages, the form's components over all points and then h,
so when both stages would fail at different points the first stage's
error is the one raised.

Construction through the smart constructors (and through the overloaded
Python operators) performs constant folding and nothing more; no deeper
simplification is attempted, so structural equality of two expressions
is not meaningful and equality should be tested by evaluation on
sampled bindings.
"""

from __future__ import annotations

import builtins
import collections
import itertools
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

# Bindings are plain dicts {variable name: float}.
Bindings = dict

_NO_VARS = frozenset()


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

    def _diff(self, var):
        return Const(0.0)

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
        return Const(1.0 if var == self.name else 0.0)

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


_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "arctan": math.atan,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
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
            out = _FUNCTIONS[self.func](x)
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
        u = self.arg
        du = differentiate(u, var)
        f = self.func
        if f == "sin":
            outer = call("cos", u)
        elif f == "cos":
            outer = neg(call("sin", u))
        elif f == "tan":
            outer = div(Const(1.0), power(call("cos", u), Const(2.0)))
        elif f == "arctan":
            outer = div(Const(1.0), add(Const(1.0), power(u, Const(2.0))))
        elif f == "sqrt":
            outer = div(Const(0.5), call("sqrt", u))
        elif f == "exp":
            outer = self
        else:  # log
            outer = div(Const(1.0), u)
        return mul(outer, du)

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
        return self.fn(*[a._ev(b, tol) for a in self.args])

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
    if func not in _FUNCTIONS:
        raise ValueError(f"unknown function '{func}'")
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


# Names a kernel's source may use besides its own locals.  No builtins:
# everything a kernel calls is bound here or in its own namespace.
_KERNEL_NS = {
    "__builtins__": {},
    "_float": float, "_pow": math.pow, "_abs": abs, "_range": range,
    "_inf": math.inf,
    "_DE": DomainError, "_UV": UnboundVariableError,
    "_VE": ValueError, "_OE": OverflowError,
    **{f"_f_{name}": fn for name, fn in _FUNCTIONS.items()},
}
_KERNEL_IDS = itertools.count(1)
# Code objects by source text, for every generated source; emptied when
# it holds this many.
_CODE_CACHE_CAP = 256
_CODE_CACHE = {}


def _build(lines, kind, name, ns):
    """Run the source ``lines`` in ``ns`` as file ``<KIND NAME #N>``.

    A source compiled before in this process is not compiled again: its
    cached code object is relabelled with the new file name.
    """
    filename = f"<{kind} {name} #{next(_KERNEL_IDS)}>"
    source = "\n".join(lines)
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[source] = builtins.compile(source, filename,
                                                      "exec")
    else:
        code = _relabel(code, filename)
    exec(code, ns)
    return ns


def _relabel(code, filename):
    """``code`` and the code objects nested in it, in file ``filename``."""
    consts = tuple(_relabel(c, filename) if isinstance(c, types.CodeType)
                   else c for c in code.co_consts)
    return code.replace(co_filename=filename, co_consts=consts)


def _indent(lines, depth):
    return ["    " * depth + text for text in lines or ["pass"]]


def compile(exprs, argnames, name="kernel"):
    """One generated straight-line function evaluating ``exprs``.

    ``f = compile(exprs, argnames)`` gives ``f(*args)``, which returns
    ``tuple(evaluate(e, dict(zip(argnames, args))) for e in exprs)``
    bit for bit and type for type; a single Expr gives a single value.
    The kernel does the tree walker's IEEE operations in the walker's
    order, with the walker's exact-zero singularity guard: each
    variable is float()-converted where the walker first reads it, a
    division evaluates its denominator, then the guard, then its
    numerator, and every check of Div, Pow and Call raises the walker's
    DomainError on the same node.  An unbound
    variable raises UnboundVariableError where the walker reaches it.
    External calls stay in the walker's order and are never merged; a
    subtree without one that is shared by object identity is computed
    once.  A name listed twice in ``argnames`` takes its later argument.

    The generator walks the trees on an explicit stack, so no tree is
    too deep to compile.  The source holds only generated local names,
    reprs of finite floats and variable names as repr'd string
    constants; every other object is bound in the kernel's namespace.
    The code object's file name is ``<kernel NAME #N>``, N counting the
    generated sources built in this process, so profiles (which key
    functions by file, line and name) and tracebacks keep every kernel
    apart; a source compiled before is not compiled again, and its
    cached code object is relabelled with the new name (:func:`_build`).
    """
    single = isinstance(exprs, Expr)
    exprs = (exprs,) if single else tuple(exprs)
    ns = dict(_KERNEL_NS)
    lines = _kernel_lines("_kernel", exprs, argnames, ns, single)
    return _build(lines, "kernel", name, ns)["_kernel"]


def _kernel_lines(fname, exprs, argnames, ns, single):
    """Source of ``fname(a0, ..)``, the kernel :func:`compile` describes."""
    body = []
    emitter = _Emitter({v: i for i, v in enumerate(argnames)}, ns, body,
                       body, {})
    outs = []
    for e in exprs:
        out = emitter.emit(e)
        if out is None:
            break
        outs.append(out)
    else:
        ret = outs[0] if single else "(" + "".join(o + ", " for o in outs) + ")"
        body.append(f"return {ret}")
    params = ", ".join(f"a{i}" for i in range(len(argnames)))
    return [f"def {fname}({params}):", *_indent(body, 1)]


def compile_newton(g, g_p, argnames, name, tol, max_iter, slack):
    """The kernels of g and g_p and a Newton loop on g, from one source.

    ``argnames`` lists the arguments, then the momentum p; every
    variable of g must be one of them.  Returns ``(g_fn, gp_fn,
    newton)``: g_fn and gp_fn are the kernels :func:`compile` makes of
    g and g_p, and ``newton(*args, p0, s)`` runs Newton on p from p0:
    at most ``max_iter`` iterations, stopping when g is exactly 0, when
    g or g_p raises DomainError, when g_p is 0, or when the step returns
    to p or to the previous iterate (a 2-cycle).  It returns the first
    iterate with the least |g| if that |g| is at most ``tol``, else
    None; a result with ``s * p < -slack`` is None too (``s = 0.0``
    accepts either sign).

    The loop runs the kernels' IEEE operations, so each g and g_p it
    reads is the kernel's bit for bit, but once per call it computes
    what does not read p (nor call an External): the arguments'
    conversions and every operation on them alone.  If that part
    raises, g or g_p would raise at every p, so the loop is not
    entered: the result is None when g itself raises at p0, and p0
    when |g(p0)| is within ``tol``, as the loop's first iteration
    would give.  Each iteration runs only the operations that read p.
    The file name is ``<newton NAME #N>``.
    """
    _refuse_stray(g, g_p, argnames)
    ns = dict(_KERNEL_NS)
    source = [*_kernel_lines("_g", (g,), argnames, ns, True),
              *_kernel_lines("_gp", (g_p,), argnames, ns, True)]
    args = "".join(f"a{i}, " for i in range(len(argnames) - 1))
    head, body = [], []
    emitter = _Emitter({v: i for i, v in enumerate(argnames)}, ns, head,
                       body, {argnames[-1]: "p"})
    gv = emitter.emit(g)
    split = len(body)
    gpv = emitter.emit(g_p)
    accept = f"<= {tol!r} and not s * {{}} < {-slack!r}".format
    source += [
        f"def _newton({args}p, s):",
        "    p = _float(p)",
        "    try:",
        *_indent(head, 2),
        "    except _DE:",
        f"        try: gv = _g({args}p)",
        "        except _DE: return None",
        f"        return p if _abs(gv) {accept('p')} else None",
        "    best_p = None",
        "    best_g = _inf",
        "    prev = None",
        f"    for _ in _range({int(max_iter)}):",
        "        try:",
        *_indent(body[:split], 3),
        "        except _DE:",
        "            break",
        f"        ag = _abs({gv})",
        "        if ag < best_g:",
        "            best_p = p",
        "            best_g = ag",
        f"        if {gv} == 0.0:",
        "            break",
        "        try:",
        *_indent(body[split:], 3),
        "        except _DE:",
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
    ]
    ns = _build(source, "newton", name, ns)
    return ns["_g"], ns["_gp"], ns["_newton"]


def _refuse_stray(g, g_p, argnames):
    stray = (free_vars(g) | free_vars(g_p)) - set(argnames)
    if stray:
        raise UnboundVariableError(min(stray))


# The array mode's names: numpy's function for each math call, and the
# helpers of the row loop.
_ROWS_NS = {
    "__builtins__": {},
    "_float": lambda a: np.asarray(a, dtype=float), "_pow": np.power,
    "_abs": np.abs, "_range": range, "_inf": math.inf, "_nan": math.nan,
    "_no_rows": lambda a: np.zeros(np.shape(a), dtype=bool),
    "_full": np.full, "_where": np.where, "_count": np.count_nonzero,
    **{f"_f_{name}": getattr(np, name) for name in _FUNCTIONS},
}


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

    The source comes from the scalar kernels' emitter in an array mode
    (:class:`_RowEmitter`): operands, temporaries and operation order are
    the scalar kernels', a domain check ORs its condition into a row mask
    ``bad``, and a math call is numpy's function plus a non-finite mask.
    The argument-only part runs once over all rows.  Each row follows
    the scalar loop's rules: at most ``max_iter`` iterations; a stop on
    an exact-zero g, on a failure in the g part (before the best-so-far
    update) or the g_p part (after it), on g_p == 0, and on a step back
    to p or to the previous iterate; the first iterate with the least
    |g|; the same ``tol`` and branch ``slack``.  Every row stays in the
    arrays until the last one stops.  numpy rounds ``+ - * /``, negation
    and sqrt correctly, as Python does, so when g and g_p use only those
    a row's result and g_p are the scalar kernels' bit for bit; numpy's
    power and transcendental functions may differ from libm in the last
    bits, and g_p of a quotient that reads p holds a power, the
    denominator ^2.
    Stopped rows compute NaN and inf, so call it under
    ``np.errstate(all="ignore")``.  The file name is
    ``<newton-rows NAME #N>``.
    """
    _refuse_stray(g, g_p, argnames)
    if argnames[-1] not in free_vars(g):
        return None
    ns = dict(_ROWS_NS)
    args = "".join(f"a{i}, " for i in range(len(argnames) - 1))
    head, body = [], []
    emitter = _RowEmitter({v: i for i, v in enumerate(argnames)}, ns, head,
                          body, {argnames[-1]: "p"})
    gv = emitter.emit(g)
    split, head_split = len(body), len(head)
    gpv = emitter.emit(g_p)
    if emitter.external:
        return None
    source = [
        f"def _newton_rows({args}p, s):",
        "    p = _float(p)",
        "    bad = _no_rows(p)",
        *_indent(head[:head_split], 1),
        "    bad_g = bad",
        "    bad = bad_g.copy()",
        *_indent(head[head_split:], 1),
        "    bad_gp = bad",
        "    best_p = _full(p.shape, _nan)",
        "    best_g = _full(p.shape, _inf)",
        "    best_gp = best_p",
        "    gp_bad = ~_no_rows(p)",
        "    live = ~_no_rows(p)",
        "    prev = best_p",
        f"    for _ in _range({int(max_iter)}):",
        "        bad = bad_g.copy()",
        *_indent(body[:split], 2),
        "        live &= ~bad",
        f"        ag = _abs({gv})",
        "        better = live & (ag < best_g)",
        "        best_p = _where(better, p, best_p)",
        "        best_g = _where(better, ag, best_g)",
        f"        live &= {gv} != 0.0",
        "        bad = bad_gp.copy()",
        *_indent(body[split:], 2),
        f"        best_gp = _where(better, {gpv}, best_gp)",
        "        gp_bad = _where(better, bad, gp_bad)",
        f"        p_new = p - {gv} / {gpv}",
        f"        live &= ~bad & ({gpv} != 0.0) & (p_new != p) & (p_new != prev)",
        "        if not _count(live):",
        "            break",
        "        prev = p",
        "        p = p_new",
        f"    ok = (best_g <= {tol!r}) & ~(s * best_p < {-slack!r})",
        "    return best_p, ok, best_gp, gp_bad",
    ]
    return _build(source, "newton-rows", name, ns)["_newton_rows"]


_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


class _Emitter:
    """Kernel lines for expressions, which share the emitted subtrees.

    ``emit`` appends the statements evaluating one expression and
    returns its operand, or None when they end in an unconditional
    raise (an unbound variable), after which nothing more may be
    emitted.  A statement goes to ``body`` when its value varies: it
    reads a variable of ``moving`` (a dict from a name to the operand
    standing for it, which the caller has float()-converted) or calls an
    External, whose calls stay in the walker's order and count; every
    other statement goes to ``head``.  When ``head`` is ``body``, the
    statements are in the walker's order.  Each stack entry of ``emit`` is a
    node and a step: 0 to evaluate it, 1 to combine its evaluated
    children, 2 for a division's guard between its two operands.
    ``external`` is set once an External call is emitted.
    """

    external = False

    def __init__(self, slot, ns, head, body, moving):
        self.slot, self.ns = slot, ns
        self.head, self.body, self.moving = head, body, moving
        # id of a pure node, or a variable's name -> (operand, varies)
        self.done = {}
        self.bound = {}  # id of an object bound in ns, or a message -> its name
        self.temps = itertools.count()

    def bind(self, obj):
        key = obj if isinstance(obj, str) else id(obj)
        name = self.bound.get(key)
        if name is None:
            name = self.bound[key] = f"_k{len(self.ns)}"
            self.ns[name] = obj
        return name

    def operand(self, value):
        """A float's repr when finite, else a bound name."""
        if math.isfinite(value):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        return self.bind(value)

    def temp(self, lines, text):
        name = f"t{next(self.temps)}"
        lines.append(f"{name} = {text}")
        return name

    def fail(self, lines, conds, message, node):
        """Raise DomainError(message, node) when all ``conds`` hold."""
        head = f"if {' and '.join(conds)}: " if conds else ""
        lines.append(f"{head}raise _DE({self.bind(message)}, {self.bind(node)})")

    def checked(self, lines, call, node, domain, overflow):
        """A math call with the walker's error and finiteness checks."""
        out = f"t{next(self.temps)}"
        raise_ = f"raise _DE({{}}, {self.bind(node)}) from None".format
        lines.append(f"try: {out} = {call}")
        lines.append(f"except _VE: {raise_(self.bind(domain))}")
        lines.append(f"except _OE: {raise_(self.bind(overflow))}")
        # a math result is a float, and x - x is 0.0 exactly when the
        # float x is finite: the walker's isfinite test without a call
        self.fail(lines, (f"{out} - {out} != 0.0",), overflow, node)
        return out

    def emit(self, e):
        done = self.done
        vals = []  # (operand, pure, varies) of the nodes evaluated so far
        stack = [(e, 0)]
        while stack:
            node, step = stack.pop()
            if step == 0:
                hit = done.get(id(node))
                if hit is not None:
                    vals.append((hit[0], True, hit[1]))
                elif isinstance(node, Const):
                    vals.append((self.operand(node.value), True, False))
                elif isinstance(node, Var):
                    hit = done.get(node.name)
                    if hit is None:
                        hit = self._var(node.name)
                        if hit is None:
                            return None
                        done[node.name] = hit
                    vals.append((hit[0], True, hit[1]))
                elif isinstance(node, Div):
                    stack += [(node, 1), (node.left, 0), (node, 2),
                              (node.right, 0)]
                else:
                    stack.append((node, 1))
                    stack += [(c, 0) for c in reversed(node._children())]
                continue
            if step == 2:
                den, _, varies = vals[-1]
                lines = self.body if varies else self.head
                if not isinstance(node.right, Const):
                    self.fail(lines, (f"{den} == 0.0",), "division by zero",
                              node)
                elif node.right.value == 0.0:
                    self.fail(lines, (), "division by zero", node)
                continue
            if isinstance(node, External):
                self.external = True
                args = vals[len(vals) - len(node.args):]
                del vals[len(vals) - len(node.args):]
                call = ", ".join(a for a, _, _ in args)
                out = self.temp(self.body, f"{self.bind(node.fn)}({call})")
                vals.append((out, False, True))
                continue
            if isinstance(node, (Neg, Call)):
                x, pure, varies = vals.pop()
                lines = self.body if varies else self.head
                if isinstance(node, Neg):
                    out = self.temp(lines, f"-{x}")
                else:
                    f = node.func
                    if f == "sqrt":
                        self.fail(lines, (f"{x} < 0.0",),
                                  "sqrt of a negative number", node)
                    elif f == "log":
                        self.fail(lines, (f"{x} <= 0.0",),
                                  "log of a non-positive number", node)
                    out = self.checked(lines, f"_f_{f}({x})", node,
                                       f"{f} domain error", f"{f} overflow")
            else:
                (left, pl, vl), (right, pr, vr) = vals[-2:]
                del vals[-2:]
                if isinstance(node, Div):  # evaluated denominator first
                    left, right = right, left
                pure, varies = pl and pr, vl or vr
                lines = self.body if varies else self.head
                if isinstance(node, Pow):
                    expo = node.right
                    if not isinstance(expo, Const):
                        self.fail(lines, (f"{right} < 0.0", f"{left} == 0.0"),
                                  "zero raised to a negative power", node)
                    elif expo.value < 0.0:
                        self.fail(lines, (f"{left} == 0.0",),
                                  "zero raised to a negative power", node)
                    out = self.checked(
                        lines, f"_pow({left}, {right})", node,
                        "invalid power (negative base, fractional exponent)",
                        "power overflow")
                else:
                    out = self.temp(
                        lines, f"{left} {_BINARY_OPS[type(node)]} {right}")
            if pure:
                done[id(node)] = (out, varies)
            vals.append((out, pure, varies))
        return vals[0][0]

    def _var(self, name):
        """A variable's (operand, varies), or None after its unbound raise."""
        if name in self.moving:
            return self.moving[name], True
        i = self.slot.get(name)
        if i is None:
            self.head.append(f"raise _UV({name!r})")
            return None
        return self.temp(self.head, f"_float(a{i})"), False


class _RowEmitter(_Emitter):
    """The emitter's array mode: each operand holds one value per row.

    A domain check ORs its condition into the row mask ``bad`` instead
    of raising, and a math call is the numpy function of ``_ROWS_NS``
    with its non-finite results ORed into ``bad``.  A constant is a bound
    numpy float, so that an operation on constants alone gives inf or
    NaN as on arrays, never a Python exception.  Everything else is the
    scalar emitter's.
    """

    def operand(self, value):
        return self.bind(np.float64(value))

    def fail(self, lines, conds, message, node):
        lines.append(f"bad |= {' & '.join(f'({c})' for c in conds) or True}")

    def checked(self, lines, call, node, domain, overflow):
        out = self.temp(lines, call)
        self.fail(lines, (f"{out} - {out} != 0.0",), overflow, node)
        return out


# Operations per compiled chunk of a plan: compiling one long function
# takes memory that grows with its length.
_PLAN_CHUNK = 200


class _Recheck(Exception):
    """A plan's check failed: the row goes through the tree walker."""


# What sends a row from a plan's kernel to the walker: a failed check, or
# a float or math error where the walker raises its DomainError.
_RECHECK = (_Recheck, ZeroDivisionError, ValueError, OverflowError)

_PLAN_NS = {
    "__builtins__": {}, "_pow": math.pow, "_abs": abs, "_Recheck": _Recheck,
    **{f"_f_{name}": fn for name, fn in _FUNCTIONS.items()},
}
_PLAN_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^"}


class _Plan:
    """One compiled evaluation of an expression tuple, for many rows.

    ``plan(args)``, ``args`` a list of floats (one per name of
    ``argnames``; a name listed twice takes its later one), returns
    ``[e.evaluate(dict(zip(argnames, args)), singular_tol) for e in
    exprs]`` bit for bit, or raises the walker's error.

    The trees become operations merged by structure: a node's key is its
    type, its function name and its operands' slots, and a constant's is
    its bit pattern, so 0.0 and -0.0 stay apart.  They run as
    straight-line code, in chunks of at most ``_PLAN_CHUNK`` operations
    that reuse their registers and pass values on to later chunks
    through one list.  Constants are data (a tuple argument), so the
    source holds only slots and names, and plans of one shape share
    their code objects through :func:`_build`'s cache.  After its
    operations a chunk checks that every power and call gave a finite
    value and, when ``singular_tol`` is positive, that no denominator
    and no base of a power with a possibly negative exponent lies within
    it.  A failed check, or a float or math error, evaluates the row
    again with the tree walker, which raises its exact DomainError (or
    returns the same values).  A tuple holding an External or an unbound
    name is always walked, so External calls keep their order.
    """

    def __init__(self, exprs, argnames, singular_tol, name):
        self.exprs = tuple(exprs)
        self.argnames = tuple(argnames)
        self.singular_tol = singular_tol
        self._kernel = None
        merged = _merge(self.exprs,
                        {v: i for i, v in enumerate(self.argnames)})
        if merged is not None:
            ops, consts, outs = merged
            data = (singular_tol, *consts)
            self._kernel = _chain([
                (_build(lines, "plan", name, dict(_PLAN_NS))["_chunk"],
                 tuple(data[j] for j in slots))
                for lines, slots in _plan_sources(
                    ops, consts, outs, len(self.argnames),
                    singular_tol > 0.0)])

    def _walk(self, args):
        b = dict(zip(self.argnames, args))
        return [e._ev(b, self.singular_tol) for e in self.exprs]

    def __call__(self, args):
        if self._kernel is None:
            return self._walk(args)
        try:
            return self._kernel(args)
        except _RECHECK:
            return self._walk(args)

    def rows(self, rows):
        """The expressions at every row, as :func:`evaluate_rows` gives."""
        rows = np.asarray(rows, dtype=float)
        return np.array([self(row) for row in rows.tolist()],
                        dtype=float).reshape(len(rows), len(self.exprs))


def _merge(exprs, slot):
    """The expressions as operations merged by structure, or None.

    Returns ``(ops, consts, outs)``.  ``ops`` lists each operation after
    its operands: ``("a", i)`` reads argument i, ``("c", j)`` the
    constant ``consts[j - 1]``, and ``(kind, *operand indices)``
    computes, kind being an operator of ``_PLAN_BINARY``, "neg" or a
    function name.  ``outs`` is each expression's index in ``ops``.
    None when an expression holds an External or a name outside
    ``slot``.
    """
    ops, consts, outs = [], [], []
    index = {}  # key -> index in ops; a constant's key is its bytes
    seen = {}  # id(node) -> index in ops
    for e in exprs:
        stack = [e]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            cls = type(node)
            if cls is Const:
                key = struct.pack("<d", node.value)
            elif cls is Var:
                i = slot.get(node.name)
                if i is None:
                    return None
                key = ("a", i)
            elif cls is Neg or cls is Call:
                i = seen.get(id(node.arg))
                if i is None:
                    stack += (node, node.arg)
                    continue
                key = ("neg" if cls is Neg else node.func, i)
            elif cls in _PLAN_BINARY:
                i, j = seen.get(id(node.left)), seen.get(id(node.right))
                if i is None or j is None:
                    stack.append(node)
                    if j is None:
                        stack.append(node.right)
                    if i is None:
                        stack.append(node.left)
                    continue
                key = (_PLAN_BINARY[cls], i, j)
            else:  # an External
                return None
            k = index.get(key)
            if k is None:
                k = index[key] = len(ops)
                if cls is Const:
                    consts.append(node.value)
                    key = ("c", len(consts))
                ops.append(key)
            seen[id(node)] = k
        outs.append(seen[id(e)])
    return ops, consts, outs


def _plan_sources(ops, consts, outs, n_args, guarded):
    """Each chunk of a plan (see :class:`_Plan`) as (lines, slots).

    A chunk is ``_chunk(a, c, r)``: ``a`` holds the ``n_args``
    arguments, ``c`` the chunk's own data, which are the entries
    ``slots`` of (singular tolerance, *consts), and ``r`` the values
    that cross a chunk boundary, which each chunk appends to.  The last
    chunk returns the list of outputs.
    """
    home = [-1] * len(ops)  # the chunk computing each operation
    steps = []
    for i, op in enumerate(ops):
        if op[0] != "a" and op[0] != "c":
            home[i] = len(steps) // _PLAN_CHUNK
            steps.append(i)
    chunks = [steps[j:j + _PLAN_CHUNK]
              for j in range(0, len(steps), _PLAN_CHUNK)] or [[]]
    last = len(chunks) - 1
    crossing = {j for i in steps for j in ops[i][1:]
                if -1 < home[j] < home[i]}
    crossing.update(j for j in outs if -1 < home[j] < last)
    shared = {}  # a crossing value's index in r
    sources = []
    for ci, chunk in enumerate(chunks):
        reads = collections.Counter(j for i in chunk for j in ops[i][1:])
        keep = crossing if ci < last else crossing.union(outs)
        body, slots, used = [], [], set()
        name, free, temps = {}, [], itertools.count()
        finite, small = [], {}  # the operands of the two checks
        held = set()  # their indices in ops, kept in their registers

        def operand(j):
            kind, arg = ops[j][:2]
            if kind == "a":
                text = f"x{arg}"
                used.add(arg)
            elif kind == "c":
                text = f"k{len(slots)}"
                slots.append(arg)
            else:
                text = free.pop() if free else f"t{next(temps)}"
                body.append(f"{text} = r[{shared[j]}]")
            name[j] = text
            return text

        for i in chunk:
            op = ops[i]
            kind, j = op[0], op[1]
            x = name.get(j) or operand(j)
            if len(op) == 3:
                k = op[2]
                y = name.get(k) or operand(k)
                if kind == "^":
                    text = f"_pow({x}, {y})"
                    expo = ops[k]
                    if guarded and not (expo[0] == "c"
                                        and consts[expo[1] - 1] >= 0.0):
                        small[j] = x
                        held.add(j)
                else:
                    text = f"{x} {kind} {y}"
                    if kind == "/" and guarded:
                        small[k] = y
                        held.add(k)
            elif kind == "neg":
                text = "-" + x
            else:
                text = f"_f_{kind}({x})"
            for j in op[1:]:
                reads[j] -= 1
                if not reads[j] and name[j][0] == "t" and j not in keep \
                        and j not in held:
                    free.append(name.pop(j))
            out = name[i] = free.pop() if free else f"t{next(temps)}"
            body.append(f"{out} = {text}")
            if text[0] == "_":  # a power or a call
                finite.append(out)
                held.add(i)
        conds = [f"_abs({x}) < tol" for x in small.values()]
        if finite:
            conds.insert(0, " + ".join(f"({x} - {x})" for x in finite)
                         + " != 0.0")
        if conds:
            body.append(f"if {' or '.join(conds)}: raise _Recheck")
        if ci < last:
            out = [i for i in chunk if i in crossing]
            shared.update((i, len(shared)) for i in out)
            body.append("r += (" + "".join(f"{name[i]}, " for i in out) + ")")
        else:
            body.append("return [" + ", ".join([name.get(j) or operand(j)
                                                for j in outs]) + "]")
        head = []
        if used:
            head.append("".join(f"x{s}, " if s in used else "_, "
                                for s in range(n_args)) + "= a")
        data = [f"k{s}, " for s in range(len(slots))]
        if small:
            data.insert(0, "tol, ")
            slots.insert(0, 0)
        if data:
            head.append("".join(data) + "= c")
        sources.append((["def _chunk(a, c, r):", *_indent(head + body, 1)],
                        slots))
    return sources


def _chain(chunks):
    """A plan's kernel: one function of the arguments running the chunks,
    each (function, its data)."""
    *head, (last, data) = chunks

    def kernel(a):
        r = []
        for chunk, c in head:
            chunk(a, c, r)
        return last(a, data, r)
    return kernel


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
