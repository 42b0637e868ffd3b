"""The shared sampling helper, and the numbers its call sites produce.

The pinned values were recorded before the sampled checks moved onto
``domain_samples``: the same seeds must draw the same points, skip the
same domain failures and report bit-identical deviations and witnesses.
The cyclic-ansatz and diagonal-invariance failure messages are the
exception: they were re-recorded when those two checks became
``invariance_report`` calls, which draw their own points.
"""

import itertools

import numpy as np
import pytest

from hjreduce.expr import Const, DomainError, Var, call, parse
from hjreduce.hj import (GeneratingFunction, NewtonDivergenceError, OneForm,
                         PreconditionError, cyclic_ansatz, domain_samples,
                         random_grid)
from hjreduce.integrators import momentum_preservation_check
from hjreduce.phase_space import HamiltonianSystem, PhasePoint
from hjreduce.reduction import build_chart, magnetic_term, project_lagrangian
from hjreduce.symmetry import (TranslationAction, check_invariance_lemma,
                               form_translates, invariance_report)

DIAG = TranslationAction([[1, 1]])


class TestDomainSamples:
    @staticmethod
    def counted(n=None):
        pulled = []

        def gen():
            for i in itertools.count() if n is None else range(n):
                pulled.append(i)
                yield i
        return gen(), pulled

    def test_skips_domain_and_solve_failures(self):
        def measure(i):
            if i % 3 == 1:
                raise DomainError("odd one out")
            if i % 3 == 2:
                raise NewtonDivergenceError("no root")
            return 10 * i

        cands, pulled = self.counted()
        assert list(domain_samples(cands, measure, samples=4)) == [0, 30, 60, 90]
        assert pulled == list(range(10))

    def test_other_errors_propagate(self):
        def measure(i):
            raise KeyError(i)

        with pytest.raises(KeyError):
            list(domain_samples(range(5), measure, samples=2))

    def test_stops_at_samples_without_pulling_again(self):
        cands, pulled = self.counted()
        out = domain_samples(cands, lambda i: i, samples=3)
        assert list(out) == [0, 1, 2]
        assert pulled == [0, 1, 2]

    def test_gives_up_after_fifty_candidates_per_sample(self):
        def never(i):
            raise DomainError("nowhere")

        cands, pulled = self.counted()
        assert list(domain_samples(cands, never, samples=2)) == []
        assert len(pulled) == 100
        cands, pulled = self.counted()
        assert list(domain_samples(cands, never, samples=0)) == []
        assert pulled == []

    def test_shortfall_raises_after_the_last_try(self):
        def odd_only(i):
            if i % 2 == 0:
                raise DomainError("even")
            return i

        with pytest.raises(PreconditionError) as ei:
            list(domain_samples(range(6), odd_only, samples=4,
                                shortfall="too few"))
        assert str(ei.value) == "too few"
        assert list(domain_samples(range(6), odd_only, samples=3,
                                   shortfall="too few")) == [1, 3, 5]
        # without samples, one success is enough and none is a shortfall
        assert list(domain_samples(range(2), odd_only,
                                   shortfall="none")) == [1]
        with pytest.raises(PreconditionError):
            list(domain_samples([0, 2], odd_only, shortfall="none"))
        assert list(domain_samples([0, 2], odd_only)) == []

    def test_without_samples_measures_every_candidate(self):
        cands, pulled = self.counted(7)
        assert list(domain_samples(cands, lambda i: -i)) == [0, -1, -2, -3,
                                                            -4, -5, -6]
        assert pulled == list(range(7))

    def test_rng_stream_stops_where_sampling_stopped(self):
        rng = np.random.default_rng(5)

        def measure(r):
            x = r.uniform()
            if x < 0.5:
                raise DomainError("low")
            return x

        got = list(domain_samples(itertools.repeat(rng), measure, samples=3))
        ref = np.random.default_rng(5)
        draws = []
        while sum(d >= 0.5 for d in draws) < 3:
            draws.append(ref.uniform())
        assert got == [d for d in draws if d >= 0.5]
        assert rng.uniform() == ref.uniform()


class TestPinnedSampledNumbers:
    def test_invariance_report(self):
        rep = invariance_report(DIAG, "q1+q2", ["q1", "q2"])
        assert repr(rep["max_rel_dev"]) == "1.6472497867831923"
        # log and sqrt make some draws fail; those are redrawn
        rep = invariance_report(DIAG, "sqrt(q1)*q2+log(q2-q1+3)",
                                ["q1", "q2"])
        assert repr(rep["max_rel_dev"]) == "0.7135439023199092"

    def test_invariance_lemma(self):
        grid = random_grid([(-2, 2), (-2, 2)], 40, seed=12)
        f = call("sin", Var("q1") - Var("q2"))
        pert = Const(0.1) * call("sin", Var("q1") + Var("q2"))
        form = OneForm(("q1", "q2"), components=(f + pert, Const(2.0) - f))
        rep = check_invariance_lemma(DIAG, form, grid)
        assert repr(rep["invariance_dev"]) == "0.15053618405832647"
        # sqrt's domain ends at q1 = -2.5, which no translate of this
        # grid reaches at the default seed (TestFormTranslates has some)
        form = OneForm(("q1", "q2"),
                       components=(call("sqrt", Var("q1") + Const(2.5)) + pert,
                                   Const(2.0) - f))
        rep = check_invariance_lemma(DIAG, form, grid)
        assert repr(rep["invariance_dev"]) == "0.6561278618122894"

    @staticmethod
    def _level_form(extra):
        # components sum to mu = 0.7 and depend on differences only
        q1, q2, q3 = Var("q1"), Var("q2"), Var("q3")
        u, v = q1 - q2, q2 - q3
        f = call("sin", u) * v + extra(u)
        g = u * call("cos", v) + v * v - extra(u)
        third = Const(0.7 / 3.0)
        return OneForm(("q1", "q2", "q3"),
                       components=(f + third, g + third,
                                   Const(0.0) - (call("sin", u) * v)
                                   - (u * call("cos", v) + v * v) + third))

    @pytest.mark.parametrize("extra, expected", [
        (lambda u: Const(0.0),
         ("3.552713678800501e-15", "2.4424906541753444e-15",
          "1.7763568394002505e-15")),
        (lambda u: call("sqrt", u + 1.0),
         ("2.6645352591003757e-15", "2.4424906541753444e-15",
          "8.881784197001252e-16")),
    ], ids=["smooth", "with-domain-failures"])
    def test_magnetic_term(self, extra, expected):
        chart = build_chart(TranslationAction([[1, 1, 1]]))
        term = magnetic_term(chart, self._level_form(extra), np.array([0.7]))
        got = (repr(term.invariance_dev), repr(term.momentum_dev),
               repr(term.pullback_residual))
        assert got == expected


class TestFormTranslates:
    def test_a_translate_out_of_the_domain_is_not_compared(self):
        grid = random_grid([(-2, 2), (-2, 2)], 40, seed=12)
        f = call("sin", Var("q1") - Var("q2"))
        pert = Const(0.1) * call("sin", Var("q1") + Var("q2"))
        form = OneForm(("q1", "q2"),
                       components=(call("sqrt", Var("q1") + Const(2.5)) + pert,
                                   Const(2.0) - f))
        # seed 10 takes two of the 40 translates past q1 = -2.5
        momenta, devs = form_translates(DIAG, form, grid,
                                        np.random.default_rng(10))
        gs = np.random.default_rng(10).uniform(-1.0, 1.0, (40, 1))
        left = (grid[:, 0] + gs[:, 0]) + 2.5 < 0.0
        assert left.sum() == 2
        assert np.array_equal(np.isnan(devs), left)
        assert np.isfinite(devs[~left]).all()
        vals = np.array([form.values(q) for q in grid])
        assert np.array_equal(momenta, vals.sum(axis=1, keepdims=True))

    def test_a_trivial_action_draws_nothing(self):
        form = OneForm(("q1", "q2"), components=(Var("q2"), Const(1.0)))
        rng = np.random.default_rng(7)
        momenta, devs = form_translates(TranslationAction([], n=2), form,
                                        np.eye(2), rng)
        assert momenta.shape == (2, 0)
        assert devs.tolist() == [0.0, 0.0]
        assert rng.uniform() == np.random.default_rng(7).uniform()


HEAVY_TOP_H = ("0.5*(ptheta^2+(pphi-ppsi*cos(theta))^2/sin(theta)^2+ppsi^2)"
               "+cos(theta)")
PAIR_S = "q1*b1+q2*b2+t*(0.5*(b1^2+b2^2)+1/(q1-q2)^2)"


class TestPinnedFailureMessages:
    def test_cyclic_ansatz(self):
        top = HamiltonianSystem(parse(HEAVY_TOP_H), ["theta", "phi", "psi"],
                                ["ptheta", "pphi", "ppsi"])
        with pytest.raises(PreconditionError) as ei:
            cyclic_ansatz(top, ["theta"], [0.5])
        assert str(ei.value) == (
            "the hamiltonian is not cyclic in ['theta'] (witness: "
            "{'point': {'pphi': 1.2190574299872075, "
            "'ppsi': -0.45008648387930217, 'ptheta': -0.8466875842790236, "
            "'theta': 0.729982015899902}, 'shift': [-0.7204950327813804], "
            "'values': (3.9217442460976617, 15479.066307060464)})")

    def test_diagonal_invariance(self):
        gf = GeneratingFunction("typeII", parse(PAIR_S + "+0.01*q1^2"),
                                ("q1", "q2"), ("b1", "b2"))
        with pytest.raises(PreconditionError) as ei:
            momentum_preservation_check(gf, DIAG, PhasePoint([1.0, -1.0],
                                                             [1.0, 0.0]),
                                        10, t=0.01)
        assert str(ei.value) == (
            "generating function is not invariant under the diagonal "
            "action, so momentum conservation is not guaranteed (witness: "
            "{'point': {'b1': -0.18441247169480102, "
            "'b2': -1.0086417481945675, 'q1': -1.0533505480096754, "
            "'q2': 0.9840571209737856, 't': 1.2662750536956415}, "
            "'shift': [-0.7894438402917501], "
            "'values': (0.14216011125534586, 0.16502354906097527)})")

    def test_project_lagrangian(self):
        form = OneForm(("q1", "q2"), components=(Const(1.0), Const(0.0)))
        grid = random_grid([(0.5, 2.0), (-2.0, -0.5)], 10, seed=3)
        with pytest.raises(PreconditionError) as ei:
            project_lagrangian(form, build_chart(DIAG), np.zeros(1), grid)
        assert str(ei.value) == (
            "form does not sit on the momentum level mu (witness: "
            "{'point': [0.6284737507154365, -1.6447842401058503], "
            "'momentum': [1.0]})")

    def test_project_lagrangian_off_level_where_the_translate_fails(self):
        # seed 3 draws g = -0.83, which takes q1 = -2 out of sqrt's domain;
        # the point's momentum is still checked
        form = OneForm(("q1", "q2"),
                       components=(call("sqrt", Var("q1") + Const(2.5)),
                                   Const(0.0)))
        grid = np.array([[-2.0, 0.5]])
        _, devs = form_translates(DIAG, form, grid, np.random.default_rng(3))
        assert np.isnan(devs[0])
        with pytest.raises(PreconditionError) as ei:
            project_lagrangian(form, build_chart(DIAG), np.zeros(1), grid,
                               seed=3)
        assert str(ei.value) == (
            "form does not sit on the momentum level mu (witness: "
            "{'point': [-2.0, 0.5], 'momentum': [0.7071067811865476]})")
