"""``expr.compile`` kernels against the tree walker, and against sympy;
the generated Newton loops against the Python loop they replaced; the
array Newton against the scalar loop."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hjreduce import expr as expr_module
from hjreduce.expr import (Const, DomainError, External, UnboundVariableError,
                           Var, call, compile, compile_newton,
                           compile_newton_rows, differentiate, evaluate,
                           free_vars, parse)
from hjreduce.hj import (ImplicitBranchRoot, quadrature_complete_solution,
                         solve_reduced_1d)
from hjreduce.phase_space import HamiltonianSystem

from oracles import assert_walked, bits, random_expr, ulp


def assert_same(exprs, names, args):
    """The kernel of ``exprs`` gives the walker's bits or raises its error;
    returns that error."""
    return assert_walked(compile(exprs, names, "t"), exprs, names, args)


class TestBitEqualToTheWalker:
    def test_random_expressions_and_derivatives(self):
        rng = np.random.default_rng(5)
        names = ("x", "y", "z")
        for _ in range(60):
            e = random_expr(rng, names, 5)
            e_x = differentiate(e, "x")
            exprs = [e, e_x, differentiate(e_x, "y"), differentiate(e, "z")]
            for args in rng.uniform(-2.0, 2.0, size=(4, 3)):
                assert assert_same(exprs, names, tuple(args)) is None

    def test_single_expression_gives_a_single_value(self):
        e = parse("x*y+1")
        assert compile(e, ["x", "y"], "t")(2.0, 3.0) == 7.0
        assert compile([e], ["x", "y"], "t")(2.0, 3.0) == (7.0,)

    def test_argument_types_and_non_finite_constants(self):
        # float() conversion as the walker's, a folded inf constant gives
        # NaN at q = 0 in both, and integer and numpy arguments convert
        e = parse("1e200*1e200*q + p")
        for args in [(0.0, 1.0), (np.float64(2.0), 3), (-0.0, -0.0)]:
            assert assert_same([e, -Var("p")], ["q", "p"], args) is None

    def test_each_kernel_has_its_own_file_name(self):
        # profiles key functions by file, line and name: kernels of the
        # same name must still differ
        e = parse("x*y+1")
        files = [compile(e, ["x", "y"], "pbranch g_p").__code__.co_filename
                 for _ in range(2)]
        assert files[0] != files[1]
        assert all(re.fullmatch(r"<kernel pbranch g_p #\d+>", f)
                   for f in files)

    def test_a_name_listed_twice_takes_the_later_argument(self):
        assert compile(Var("x"), ["x", "x"], "t")(1.0, 2.0) == 2.0
        assert_same([Var("x") + 1.0], ["x", "x"], (1.0, 2.0))


class TestSameErrors:
    @pytest.mark.parametrize("text, args, message", [
        ("x/(y-y)", (1.0, 2.0), "division by zero"),
        ("x/0.0*y", (1.0, 2.0), "division by zero"),
        ("x^(-2)", (0.0, 1.0), "zero raised to a negative power"),
        ("x^y", (0.0, -1.0), "zero raised to a negative power"),
        ("x^y", (-8.0, 0.5), "invalid power"),
        ("x^y", (10.0, 400.0), "power overflow"),
        ("sqrt(x)", (-1.0, 0.0), "sqrt of a negative number"),
        ("log(x-y)", (1.0, 1.0), "log of a non-positive number"),
        ("exp(x)", (1000.0, 0.0), "exp overflow"),
        ("sin(x*1e200*1e200)", (1.0, 0.0), "sin domain error"),
        # NaN passes the math functions without an exception
        ("x^y", (math.nan, 2.0), "power overflow"),
        ("exp(x)", (math.nan, 0.0), "exp overflow"),
        ("sqrt(x*1e200*1e200-y*1e200*1e200)", (1.0, 1.0), "sqrt overflow"),
    ])
    def test_each_failing_case(self, text, args, message):
        err = assert_same([parse(text)], ["x", "y"], args)
        assert isinstance(err, DomainError)
        assert str(err).startswith(message)

    def test_division_fails_in_its_denominator_first(self):
        # both operands fail; the walker evaluates the denominator first
        e = call("sqrt", Var("x")) / call("log", Var("x"))
        err = assert_same([e], ["x"], (-1.0,))
        assert err.subexpr is e.right

    def test_unbound_variable_where_the_walker_reaches_it(self):
        e = call("sqrt", Var("x")) + Var("w")
        err = assert_same([e], ["x"], (4.0,))
        assert isinstance(err, UnboundVariableError) and err.name == "w"
        assert isinstance(assert_same([e], ["x"], (-4.0,)), DomainError)


class Recorder:
    """An External function that logs its calls and returns numpy floats."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self, *args):
        self.log.append((self.tag, args))
        return np.float64(len(self.log))


class TestExternal:
    def test_calls_in_the_walkers_order_and_never_merged(self):
        x, y = Var("x"), Var("y")
        walker_log, kernel_log = [], []
        trees = []
        for log in (walker_log, kernel_log):
            f = External(Recorder(log, "f"), (x, y))
            g = External(Recorder(log, "g"), (y,))
            # f is shared by identity; the division reads g first
            trees.append([f + f * x, (f - 1.0) / (g + 2.0), g])
        want = [evaluate(e, {"x": 1.5, "y": -2.0}) for e in trees[0]]
        got = compile(trees[1], ["x", "y"], "t")(1.5, -2.0)
        assert [bits(v) for v in got] == [bits(v) for v in want]
        assert kernel_log == walker_log
        assert [tag for tag, _ in walker_log] == ["f", "f", "g", "f", "g"]


class Logged:
    """An External function that logs its calls.  Its value counts the
    calls logged so far, so a repeated call would change it; a negative
    first argument raises DomainError."""

    name = "logged"

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self, *args):
        self.log.append((self.tag, args))
        if args[0] < 0.0:
            raise DomainError(f"{self.tag} refuses {args[0]}")
        return args[0] + len(self.log)


def walker_and_kernel(build, names, args, tol=0.0):
    """(values' bits, error text, call log) of the walker and then of the
    kernel, each on the trees ``build(log)`` makes with a log of its own."""
    outcomes = []
    for kernel in (False, True):
        log = []
        exprs = build(log)
        fn = compile(exprs, names, "t", tol) if kernel else (
            lambda *a: [e.evaluate(dict(zip(names, a)), tol) for e in exprs])
        # generated code that keeps its calls' results, not a walk
        assert not kernel or "got" in fn.__code__.co_varnames
        try:
            outcomes.append(([bits(v) for v in fn(*args)], None, log))
        except DomainError as err:
            outcomes.append((None, str(err), log))
    return outcomes


class TestExternalCallsInKernels:
    # each row of the kernel makes the walker's calls, in its order, and
    # no call twice: a failure after a call replays the results received
    x, y = Var("x"), Var("y")

    def calls(self, log, *tags):
        return [External(Logged(log, tag), (arg,)) for tag, arg in tags]

    def test_a_row_that_passes(self):
        def build(log):
            f, g = self.calls(log, ("f", self.x), ("g", self.y))
            return [f * self.y, call("sqrt", g) + f, g]
        walked, kernel = walker_and_kernel(build, ("x", "y"), (1.5, 2.0))
        assert kernel == walked and walked[1] is None
        # a node read twice is called twice, as the walker calls it
        assert [tag for tag, _ in walked[2]] == ["f", "g", "f", "g"]

    def test_a_row_failing_after_its_calls(self):
        def build(log):
            f, g = self.calls(log, ("f", self.x), ("g", self.y))
            return [f * self.y, call("sqrt", g - 100.0), g]
        walked, kernel = walker_and_kernel(build, ("x", "y"), (1.5, 2.0))
        assert kernel == walked
        assert walked[1].startswith("sqrt of a negative number")
        assert [tag for tag, _ in walked[2]] == ["f", "g"]

    def test_a_failed_check_the_walker_passes(self):
        # within tol of zero, a base under a variable exponent fails the
        # kernel's check; the walker raises only for a negative exponent,
        # replays f and calls g itself
        def build(log):
            f, g = self.calls(log, ("f", self.x), ("g", self.y))
            return [f, self.x ** self.y, g]
        walked, kernel = walker_and_kernel(build, ("x", "y"), (1e-9, 2.0),
                                           1e-6)
        assert kernel == walked and walked[1] is None
        assert [tag for tag, _ in walked[2]] == ["f", "g"]

    def test_an_externals_error_is_raised_from_its_one_call(self):
        def build(log):
            f, g, h = self.calls(log, ("f", self.x), ("g", self.y),
                                 ("h", self.x))
            return [f, g * f, h]
        walked, kernel = walker_and_kernel(build, ("x", "y"), (1.5, -2.0))
        assert kernel == walked and walked[1] == "g refuses -2.0"
        assert [tag for tag, _ in walked[2]] == ["f", "g"]

    def test_no_call_where_the_walker_raises_first(self):
        # the walker evaluates a denominator first: within tol of zero,
        # the call in the numerator never runs
        def build(log):
            f, = self.calls(log, ("f", self.x))
            return [self.x, f / (self.y - 1.0)]
        for tol in (0.0, 1e-6):
            walked, kernel = walker_and_kernel(build, ("x", "y"),
                                               (1.5, 1.0 + 1e-9 * (tol > 0)),
                                               tol)
            assert kernel == walked and walked[2] == []
            assert walked[1].startswith("division by zero")

    def test_past_one_chunk(self):
        def build(log):
            long = self.x
            for _ in range(expr_module._CHUNK + 50):
                long = long + Const(1.0)
            f, g = self.calls(log, ("f", long), ("g", self.y))
            return [long, f, call("log", g - long)]
        for args in [(0.5, 500.0), (0.5, 2.0)]:
            walked, kernel = walker_and_kernel(build, ("x", "y"), args)
            assert kernel == walked
            assert [tag for tag, _ in walked[2]] == ["f", "g"]


class TestCompilesWhatTheWalkerCannot:
    def test_a_variable_name_that_is_python_source(self):
        name = "__import__('os').system('exit 1') or x"
        e = Var(name) * 2.0
        assert compile(e, [name], "t")(1.5) == 3.0
        with pytest.raises(UnboundVariableError) as ei:
            compile(e, ["x"], "t")(1.5)
        assert ei.value.name == name

    def test_a_five_thousand_term_sum(self):
        names = ("a", "b", "c")
        args = (0.3, -1.7, 2.9)
        e = Var("a")
        want = args[0]
        for i in range(1, 5000):
            coeff = 1.0 + i / 7.0
            e = e + Const(coeff) * Var(names[i % 3])
            want = want + coeff * args[i % 3]
        with pytest.raises(RecursionError):
            evaluate(e, dict(zip(names, args)))
        assert bits(compile(e, names, "t")(*args)) == bits(want)


class TestAgainstSympy:
    @pytest.mark.parametrize("text", [
        "x^2*y - 3*x/(1+y^2)",
        "sin(x)*cos(y) + tan(x*y)",
        "exp(-x^2)*sqrt(1+y^2) - log(2+sin(x))",
        "arctan(x/(1.5+y^2))^3",
        "1/(x-y)^2 + 0.5*(x^2+y^2)",
    ])
    def test_lambdify_agrees(self, text):
        sympy = pytest.importorskip("sympy")
        sx, sy = sympy.symbols("x y")
        sym = sympy.sympify(text.replace("^", "**").replace("arctan", "atan"),
                            locals={"x": sx, "y": sy})
        reference = sympy.lambdify((sx, sy), sym, modules="math")
        kernel = compile(parse(text), ["x", "y"], "t")
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-2.0, 2.0, size=(20, 2)):
            want = reference(float(x), float(y))
            assert kernel(x, y) == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert not math.isnan(want)


# The Python Newton loop the generated one replaced, kept as the oracle:
# g and g_p are tree walks here, and the branch test is the one the
# solve applied to each start.
def reference_newton(g, g_p, names, args, p, s, tol=1e-12, max_iter=60):
    def kernel(e):
        return lambda *a: evaluate(e, dict(zip(names, a)))

    g, g_p = kernel(g), kernel(g_p)

    def newton(p):
        best_p, best_g = None, math.inf
        prev = None
        for _ in range(max_iter):
            try:
                gv = g(*args, p)
            except DomainError:
                break
            ag = abs(gv)
            if ag < best_g:
                best_p, best_g = p, ag
            if gv == 0.0:
                return p
            try:
                gpv = g_p(*args, p)
            except DomainError:
                break
            if gpv == 0.0:
                break
            p_new = p - gv / gpv
            if p_new == p or p_new == prev:
                break
            prev = p
            p = p_new
        if best_p is not None and best_g <= tol:
            return best_p
        return None

    p = newton(float(p))
    if p is not None and s * p < -1e-12:
        return None
    return p


def loop(g, names):
    """The generated Newton loop of g in its last name."""
    return compile_newton(g, differentiate(g, names[-1]), names, "test",
                          1e-12, 60, 1e-12)[2]


def assert_loop_matches(g, names, args, starts, signs=(1.0, -1.0, 0.0)):
    newton = loop(g, names)
    g_p = differentiate(g, names[-1])
    for p0 in starts:
        for s in signs:
            want = reference_newton(g, g_p, names, args, p0, s)
            got = newton(*args, p0, s)
            assert (got is None) == (want is None), (args, p0, s)
            if got is not None:
                assert bits(got) == bits(want), (args, p0, s)


class TestNewtonLoop:
    names = ("y", "a", "p")

    def test_random_expressions_from_random_starts(self):
        # half the equations are shifted to have a root at a known p, so
        # that many runs converge and not only fail
        rng = np.random.default_rng(11)
        converged = 0
        for k in range(80):
            e = random_expr(rng, self.names, 4)
            y, a, p_star = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
            if k % 2:
                try:
                    e = e - Const(evaluate(e, {"y": y, "a": a, "p": p_star}))
                except DomainError:
                    continue
            starts = [p_star + d for d in rng.normal(0.0, 0.3, 3)]
            assert_loop_matches(e, self.names, (y, a), starts)
            converged += loop(e, self.names)(y, a, starts[0], 0.0) is not None
        assert converged > 20

    def test_argument_part_raising_in_g(self):
        # sqrt(a) fails for every p: no iteration can evaluate g
        g = parse("p^2-sqrt(a)+y")
        with pytest.raises(DomainError):
            compile(g, self.names, "t")(0.0, -1.0, 0.5)
        assert loop(g, self.names)(0.0, -1.0, 0.5, 0.0) is None
        assert_loop_matches(g, self.names, (0.0, -1.0), [0.5, 1.0])

    def test_argument_part_raising_in_g_p_only(self):
        # g = y^p - a; g_p = y^p * log(y) fails at y = 0 for every p, g
        # does not: the first iteration evaluates g and stops there
        g = parse("y^p-a")
        g_p = differentiate(g, "p")
        with pytest.raises(DomainError, match="log of a non-positive"):
            compile(g_p, self.names, "t")(0.0, 0.0, 0.7)
        assert compile(g, self.names, "t")(0.0, 0.0, 0.7) == 0.0
        newton = loop(g, self.names)
        assert newton(0.0, 0.0, 0.7, 1.0) == 0.7       # g is exactly 0
        assert newton(0.0, -1e-13, 0.7, 1.0) == 0.7    # |g| within tol
        assert newton(0.0, 0.5, 0.7, 1.0) is None      # |g| beyond tol
        assert newton(0.0, 0.0, -0.7, 0.0) is None     # g raises at p0 < 0
        assert newton(0.0, 0.0, 0.7, -1.0) is None     # wrong branch
        for a in (0.0, -1e-13, 0.5):
            assert_loop_matches(g, self.names, (0.0, a), [0.7, -0.7, 0.0])

    def test_momentum_part_raising(self):
        # Newton on log(p) = a overshoots below 0 from far starts, where
        # the next g raises; near starts converge
        g = parse("log(p)-a+0*y")
        newton = loop(g, self.names)
        assert newton(0.0, 0.0, 100.0, 1.0) is None
        assert newton(0.0, 0.0, 1.5, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert_loop_matches(g, self.names, (0.0, 0.0),
                            [100.0, 5.0, 1.5, 0.9, 1e-3])

    def test_two_cycle_stops_after_two_iterations(self):
        # x^3 - 2x + 2 cycles 0 -> 1 -> 0 under Newton; a counting
        # External shows the loop stops on the cycle, not at its cap
        for run in ("generated", "reference"):
            calls = []
            ext = External(Counter(calls, "g"), (Var("p"),))
            g = parse("p^3-2*p+2+0*y+0*a") + ext
            g_p = differentiate(g, "p")
            if run == "generated":
                got = loop(g, self.names)(0.0, 0.0, 0.0, 0.0)
            else:
                got = reference_newton(g, g_p, self.names, (0.0, 0.0), 0.0,
                                       0.0)
            assert got is None
            assert [tag for tag in calls] == ["g", "g'", "g", "g'"]

    @pytest.mark.parametrize("text, ext_over, args, p0, want", [
        # the second iterate, about 5e80, makes p*p*p*p inf and its power
        # non-finite: g's External, after the power, is not called there
        ("(p*p*p*p)^0.5-a", None, (0.0, 1e41), 1e-40, ["g", "g'"]),
        # the walker checks a denominator before it evaluates the
        # numerator, here the External, so a = 1 calls nothing
        ("p-2+0*y", "a-1", (0.0, 1.0), 0.5, []),
    ], ids=["failed-power", "zero-denominator"])
    def test_no_external_runs_after_a_failed_operation(self, text, ext_over,
                                                       args, p0, want):
        for run in ("generated", "reference"):
            calls = []
            ext = External(Counter(calls, "g"), (Var("p"),))
            g = parse(text) + (ext if ext_over is None
                               else ext / parse(ext_over))
            if run == "generated":
                got = loop(g, self.names)(*args, p0, 0.0)
            else:
                got = reference_newton(g, differentiate(g, "p"), self.names,
                                       args, p0, 0.0)
            assert got is None
            assert calls == want

    def test_wrong_branch_rejection(self):
        g = parse("p^2-a+0*y")
        newton = loop(g, self.names)
        assert newton(0.0, 4.0, -1.5, 1.0) is None
        assert newton(0.0, 4.0, -1.5, -1.0) == -2.0
        assert newton(0.0, 4.0, -1.5, 0.0) == -2.0
        assert newton(0.0, 4.0, 1.5, 1.0) == 2.0
        assert_loop_matches(g, self.names, (0.0, 4.0), [-1.5, 1.5, 1e-13])

    def test_the_argument_part_runs_once_per_call(self):
        # sin(a) reads no momentum: one call however many iterations run
        g = parse("p^3-sin(a)-2+0*y")
        newton = loop(g, self.names)
        ns = newton.__globals__
        calls = []
        sin = ns["_f_sin"]
        ns["_f_sin"] = lambda x: calls.append(x) or sin(x)
        assert newton(0.0, 0.3, 5.0, 1.0) == pytest.approx(
            (2.0 + math.sin(0.3)) ** (1 / 3), rel=1e-15)
        assert calls == [0.3]

    def test_an_unbound_variable_is_refused_when_generating(self):
        with pytest.raises(UnboundVariableError) as ei:
            loop(parse("p^2-w"), ("y", "p"))
        assert ei.value.name == "w"

    def test_one_compile_per_root_in_one_named_file(self, counted_compiles):
        made = counted_compiles
        root = ImplicitBranchRoot(parse("p^2+y*p-a"), "y", "p",
                                  params=("a",), name="pb")
        assert len(made) == 1
        assert re.fullmatch(r"<newton pb #\d+>", made[0])
        for fn in (root._g, root._gp, root._newton):
            assert fn.__code__.co_filename == made[0]
        assert not hasattr(ImplicitBranchRoot, "_newton")


class TestCodeCache:
    def test_equal_sources_compile_once(self, counted_compiles):
        made = counted_compiles
        e = parse("x*y+sin(x)")
        one, two = compile(e, ["x", "y"], "one"), compile(e, ["x", "y"], "two")
        assert len(made) == 1
        assert one(0.5, 2.0) == two(0.5, 2.0) == evaluate(e, {"x": 0.5,
                                                             "y": 2.0})

    def test_constants_are_data(self, counted_compiles):
        a = compile(parse("x*2.0+y"), ("x", "y"), "one")
        b = compile(parse("x*3.0+y"), ("x", "y"), "two")
        assert len(counted_compiles) == 1
        assert a(1.0, 1.0) == 3.0 and b(1.0, 1.0) == 4.0

    def test_each_keeps_its_own_file_name(self, counted_compiles):
        # a cache hit relabels the code object and those nested in it
        made = counted_compiles
        roots = [ImplicitBranchRoot(parse("p^2+y*p-a"), "y", "p",
                                    params=("a",), name=name)
                 for name in ("pa", "pb")]
        assert len(made) == 1
        for root, name in zip(roots, ("pa", "pb")):
            filename = root._newton.__code__.co_filename
            assert re.fullmatch(rf"<newton {name} #\d+>", filename)
            for fn in (root._g, root._gp):
                assert fn.__code__.co_filename == filename
        assert roots[0]._newton.__code__.co_filename == made[0]
        assert roots[0].solve((1.0, 3.0)) == roots[1].solve((1.0, 3.0))

    def test_roots_differing_in_constants_share_their_code(
            self, counted_compiles):
        # two energies of one Hamiltonian: constants are data, so both
        # roots run one Newton source and one array Newton source
        made = counted_compiles
        h = parse("0.5*(p^2+1.3*y^2)+0.4*y^4")
        sols = [solve_reduced_1d(h, "y", "p", energy, (-0.5, 0.5),
                                 n_nodes=101) for energy in (0.5, 0.7)]
        assert [re.sub(r"#\d+", "#N", f) for f in made] == [
            "<newton dW #N>", "<newton-rows dW #N>"]
        for sol, energy in zip(sols, (0.5, 0.7)):
            p = sol.root.solve((0.3,))
            assert p > 0.0 and abs(evaluate(h, {"y": 0.3, "p": p})
                                   - energy) < 1e-15

    def test_the_cap_empties_the_cache(self, monkeypatch, counted_compiles):
        monkeypatch.setattr(expr_module, "_CODE_CACHE_CAP", 2)
        made = counted_compiles
        # three shapes: constants are data, so x+1 and x+2 share a source
        exprs = [parse(text) for text in ("x+1", "x*2", "x-3")]
        for e in exprs:
            compile(e, ["x"], "t")
        assert len(made) == 3 and len(expr_module._CODE_CACHE) == 1
        compile(exprs[2], ["x"], "t")
        assert len(made) == 3
        compile(exprs[0], ["x"], "t")
        assert len(made) == 4


class Counter:
    """An External of one argument returning 0.0, logging each call."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self, *args):
        self.log.append(self.tag)
        return 0.0

    def partial(self, i):
        return Counter(self.log, self.tag + "'")


# Equations in + - * /, negation and sqrt, which numpy rounds as Python
# does: the array Newton must then be the scalar loop, row for row.
_LEAVES = st.one_of(st.sampled_from([Var("y"), Var("a"), Var("p")]),
                    st.floats(-3.0, 3.0).map(Const))
_EXACT = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.tuples(kids, kids).map(lambda t: t[0] + t[1]),
    st.tuples(kids, kids).map(lambda t: t[0] - t[1]),
    st.tuples(kids, kids).map(lambda t: t[0] * t[1]),
    st.tuples(kids, kids).map(lambda t: t[0] / t[1]),
    kids.map(lambda e: -e),
    kids.map(lambda e: call("sqrt", e))), max_leaves=10)

ROW_NAMES = ("y", "a", "c", "p")


def newton_pair(g):
    """The scalar loop and the array Newton of g = 0 in p."""
    g_p = differentiate(g, "p")
    scalar = compile_newton(g, g_p, ROW_NAMES, "t", 1e-12, 60, 1e-12)[2]
    return scalar, compile_newton_rows(g, g_p, ROW_NAMES, "t", 1e-12, 60,
                                       1e-12)


def through_power(g):
    """Whether Newton on g computes a power: g_p of a quotient reading p
    holds its denominator ^2, which numpy and libm may round apart."""
    return "^" in str(g) + str(differentiate(g, "p"))


def shifted_rows(e, seed, n=40):
    """Rows (y, a, c, p0) where e - c has a root at p* near p0."""
    rng = np.random.default_rng(seed)
    y, a, p_star = rng.uniform(-2.0, 2.0, (3, n))
    c = np.zeros(n)
    for i in range(n):
        try:
            c[i] = evaluate(e, {"y": y[i], "a": a[i], "p": p_star[i]})
        except DomainError:
            pass
    p0 = p_star + rng.normal(0.0, 0.3, n) * (rng.random(n) < 0.8)
    return y, a, c, p0


class TestNewtonRows:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(_EXACT, st.integers(0, 2 ** 32 - 1))
    # numpy's power and libm's pow can round (y/p)'s p^2 in g_p apart here
    @example(call("sqrt", -(Var("y") / Var("p"))), 6016)
    def test_exact_operations_give_the_scalar_loop(self, e, seed):
        assume("p" in free_vars(e))
        g = e - Var("c")
        scalar, rows = newton_pair(g)
        exact = not through_power(g)
        y, a, c, p0 = shifted_rows(e, seed)
        for s in (1.0, -1.0, 0.0):
            with np.errstate(all="ignore"):
                got, ok, _, _ = rows(y, a, c, p0, s)
            for i in range(y.size):
                want = scalar(y[i], a[i], c[i], p0[i], s)
                assert ok[i] == (want is not None), (i, s)
                if want is not None and exact:
                    assert bits(float(got[i])) == bits(want), (i, s)
                elif want is not None:
                    assert ulp(float(got[i]), want) <= 4, (i, s)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(_EXACT, st.integers(0, 2 ** 32 - 1))
    @example(Var("p") / (Var("y") - Var("a")), 0)  # (y-a)^2 rounded apart
    def test_g_p_at_each_accepted_row_is_the_kernel(self, e, seed):
        # the g_p returned beside each accepted root is the scalar g_p
        # kernel's at that root, and g_p_bad holds where the kernel raises
        assume("p" in free_vars(e))
        g = e - Var("c")
        g_p = differentiate(g, "p")
        kernel = compile(g_p, ROW_NAMES, "t")
        _, rows = newton_pair(g)
        y, a, c, p0 = shifted_rows(e, seed)
        with np.errstate(all="ignore"):
            got, ok, gp, gp_bad = rows(y, a, c, p0, 0.0)
        for i in np.flatnonzero(ok).tolist():
            try:
                want = kernel(y[i], a[i], c[i], got[i])
            except DomainError:
                assert gp_bad[i], i
                continue
            assert not gp_bad[i], i
            if through_power(g):
                assert ulp(float(gp[i]), want) <= 4, i
            else:
                assert bits(float(gp[i])) == bits(want), i

    def test_rejects_and_stops_as_the_scalar_loop(self):
        # the TestNewtonLoop cases, one row each: an argument part raising
        # in g or in g_p only, a momentum part raising, the wrong branch
        cases = [("p^2-sqrt(a)+y+0*c", [(0.0, -1.0, 0.0, 0.5)]),
                 ("y^p-a+0*c", [(0.0, 0.0, 0.0, 0.7), (0.0, -1e-13, 0.0, 0.7),
                                (0.0, 0.5, 0.0, 0.7), (0.0, 0.0, 0.0, -0.7)]),
                 ("log(p)-a+0*y+0*c", [(0.0, 0.0, 0.0, p0) for p0 in
                                       (100.0, 5.0, 1.5, 0.9, 1e-3)]),
                 ("p^2-a+0*y+0*c", [(0.0, 4.0, 0.0, p0)
                                    for p0 in (-1.5, 1.5, 1e-13)])]
        for text, rows in cases:
            scalar, batch = newton_pair(parse(text))
            cols = [np.array(col) for col in zip(*rows)]
            for s in (1.0, -1.0, 0.0):
                with np.errstate(all="ignore"):
                    got, ok, _, _ = batch(*cols, s)
                want = [scalar(*row, s) for row in rows]
                assert ok.tolist() == [w is not None for w in want]
                assert [float(v) for v, k in zip(got, ok) if k] == [
                    w for w in want if w is not None]

    def test_finished_rows_keep_their_results(self):
        # one slow row (a double root, linear convergence) among fast
        # ones: the finished rows keep their results while it goes on
        g = parse("(p-a)^2*y+(1-y)*(p*p-a*a)+0*c")
        y = np.array([1.0] + [0.0] * 9)
        a = np.linspace(1.0, 2.0, 10)
        p0 = a + 0.25
        scalar, batch = newton_pair(g)
        with np.errstate(all="ignore"):
            got, ok, _, _ = batch(y, a, np.zeros(10), p0, 1.0)
        want = [scalar(*row, 1.0) for row in zip(y, a, np.zeros(10), p0)]
        assert ok.tolist() == [w is not None for w in want]
        assert [float(v) for v in got[ok]] == [w for w in want if w is not None]

    def test_no_array_newton_with_an_external_or_without_p(self):
        ext = External(Counter([], "g"), (Var("y"),))
        g = parse("p^2-a") + ext
        assert compile_newton_rows(g, differentiate(g, "p"), ("y", "a", "p"),
                                   "t", 1e-12, 60, 1e-12) is None
        g = parse("y^2-a")
        assert compile_newton_rows(g, Const(0.0), ("y", "a", "p"), "t",
                                   1e-12, 60, 1e-12) is None

    def test_compiled_once_by_the_first_table_build(self, counted_compiles):
        made = counted_compiles
        h = parse("p^2+1.234/y^2")
        sol = solve_reduced_1d(h, "y", "p", 2.0, (0.8, 5.0), n_nodes=101)
        assert [re.sub(r"#\d+", "#N", f) for f in made] == [
            "<newton dW #N>", "<newton-rows dW #N>"]
        rows = sol.root._rows
        assert rows.__code__.co_filename == made[1]
        sol.root.solve((1.7,))
        assert sol.root._rows is rows and len(made) == 2

    def test_family_roots_never_compile_rows(self, counted_compiles):
        made = counted_compiles
        sys_ = HamiltonianSystem(parse("0.5*p^2+0.5*q^2"), ["q"])
        gf = quadrature_complete_solution(sys_, (-0.9, 0.9))
        gf.s_q
        assert not any(f.startswith("<newton-rows") for f in made)
