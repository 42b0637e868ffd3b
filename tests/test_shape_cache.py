"""The code cache keyed by shape: a hit binds new data to code compiled
before, with no lowering and no ``builtins.compile`` call.

These tests count compiles through ``counted_compiles``, which empties
the process-wide cache first; run alone, as CI does, they see no code
that an earlier module compiled.
"""

import gc
import re
import types
import weakref

import pytest

from hjreduce import cli
from hjreduce import expr as expr_module
from hjreduce.expr import (Const, DomainError, External, Var, compile,
                           evaluate, parse)
from hjreduce.hj import ImplicitBranchRoot

from oracles import bits


def files(kernel):
    """The file names of a kernel's code and of its chunk functions'."""
    ns = kernel.__globals__
    return [fn.__code__.co_filename for key, fn in sorted(ns.items())
            if re.fullmatch(r"_kernel(_\d+)?", key)]


def chained(n):
    e = Var("x")
    for i in range(n):
        e = e + Const(float(i))
    return e


class TestHits:
    def test_a_hit_neither_lowers_nor_compiles(self, counted_compiles,
                                               monkeypatch):
        one = compile(parse("2*x+3*sin(y)-x/7"), ("x", "y"), "one")
        monkeypatch.setattr(expr_module, "_Lowering", None)
        # 5 and 5 are equal here and 2 and 3 are not: the key holds slots
        e = parse("5*x+5*sin(y)-x/1.5")
        two = compile(e, ("x", "y"), "two")
        assert len(counted_compiles) == 1
        assert bits(two(0.5, 2.0)) == bits(evaluate(e, {"x": 0.5, "y": 2.0}))
        assert one(0.5, 2.0) != two(0.5, 2.0)

    def test_roots_at_an_energy_equal_to_a_coefficient(self,
                                                       counted_compiles):
        roots = [ImplicitBranchRoot(parse(f"0.5*p^2+0.5*y^2-{energy}"),
                                    "y", "p", name=f"p{energy}")
                 for energy in (0.5, 0.7)]
        assert len(counted_compiles) == 1
        for root, energy in zip(roots, (0.5, 0.7)):
            p = root.solve((0.3,))
            assert abs(0.5 * p * p + 0.045 - energy) < 1e-15

    def test_equal_constants_that_share_an_operation_miss(
            self, counted_compiles):
        # x*2 read twice is one operation, x*2 and x*3 are two
        compile(parse("x*2+x*2"), ("x",), "t")
        compile(parse("x*2+x*3"), ("x",), "t")
        assert len(counted_compiles) == 2

    def test_the_guarded_key_holds_the_signs_of_constant_exponents(
            self, counted_compiles):
        tol = 1e-6
        square = compile(parse("x^2"), ("x",), "t", tol)
        inverse = compile(parse("x^-2"), ("x",), "t", tol)
        assert len(counted_compiles) == 2
        assert square(1e-8) == evaluate(parse("x^2"), {"x": 1e-8}, tol)
        with pytest.raises(DomainError, match="zero raised to a negative"):
            inverse(1e-8)
        compile(parse("x^3"), ("x",), "t", tol)
        assert len(counted_compiles) == 2

    def test_each_hit_keeps_its_own_file_names(self, counted_compiles):
        e = chained(expr_module._CHUNK + 10)
        made = [compile(e, ("x",), name) for name in ("a", "b")]
        assert len(counted_compiles) == 3  # two chunks and the caller
        names = [files(kernel) for kernel in made]
        for kernel, name, found in zip(made, ("a", "b"), names):
            assert len(found) == 3 and len(set(found)) == 3
            assert all(re.fullmatch(rf"<kernel {name} #\d+>", f)
                       for f in found)
            assert kernel(0.5) == evaluate(e, {"x": 0.5})
        assert sorted(names[0]) == sorted(counted_compiles)

    def test_a_dropped_kernels_external_is_freed(self, counted_compiles):
        class Twice:
            def __call__(self, x):
                return 2.0 * x

        fn = Twice()
        freed = weakref.ref(fn)
        kernel = compile(External(fn, (Var("x"),)) + 1.0, ("x",), "t")
        assert kernel(1.0) == 3.0
        again = compile(External(Twice(), (Var("x"),)) + 2.0, ("x",), "u")
        assert again(1.0) == 4.0 and len(counted_compiles) == 1
        del fn, kernel
        gc.collect()
        assert freed() is None


class TestSourceFromOperations:
    """A generated source is a function of ``_merge``'s operations alone,
    so a cache entry is its code objects and nothing more."""

    def test_every_entry_is_a_list_of_code_objects(self, counted_compiles):
        g, g_p = parse("0.5*p^2+y^2-1"), parse("p")
        compile(parse("2*x+sin(x)^-2"), ("x",), "k", 1e-9)
        expr_module.compile_newton(g, g_p, ("y", "p"), "n", 1e-12, 20, 0.0)
        expr_module.compile_newton_rows(g, g_p, ("y", "p"), "r", 1e-12, 20,
                                        0.0)
        assert len(expr_module._CODE_CACHE) == 3
        for entry in expr_module._CODE_CACHE.values():
            assert type(entry) is list and entry
            assert all(isinstance(c, types.CodeType) for c in entry)

    def test_each_datum_is_the_global_named_after_it(self):
        e = parse("2*x+3*x^0.5")
        data = expr_module._merge((e,), {"x": 0})[1]
        kernel = compile(e, ("x",), "k")
        assert sorted(data) == [0.5, 2.0, 3.0]
        assert [kernel.__globals__[f"_k{j}"] for j in range(3)] == data

    def test_a_constant_exponent_that_is_not_negative_is_its_own_kind(self):
        exprs = [parse(t) for t in ("x^2", "x^-2", "x^y", "x^0.5")]
        ops = expr_module._merge(exprs, {"x": 0, "y": 1})[0]
        assert [op[0] for op in ops if op[0] != "a"] == ["^+", "^", "^",
                                                         "^+"]


def test_cold_and_warm_runs_write_the_same_bytes(tmp_path, capsys,
                                                 counted_compiles):
    runs = [["verify", "heavytop"],
            ["equilibrium", "oscillator", "--t-end", "0.2"]]
    for state in ("cold", "warm"):
        for argv in runs:
            assert cli.main([*argv, "--out", str(tmp_path / state)]) == 0
        if state == "cold":
            cold = len(counted_compiles)
    assert cold and len(counted_compiles) == cold  # warm compiles nothing
    written = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "warm").iterdir())
    assert len(written) == 3
    for name in written:
        assert ((tmp_path / "cold" / name).read_bytes()
                == (tmp_path / "warm" / name).read_bytes())
