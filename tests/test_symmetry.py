import numpy as np
import pytest

from hjreduce.expr import Const, Var, call, parse
from hjreduce.hj import (PRECONDITION_TOL, OneForm, PreconditionError,
                         random_grid)
from hjreduce.phase_space import PhasePoint
from hjreduce.symmetry import (TranslationAction, check_invariance_lemma,
                               cotangent_lift, invariance_report, momentum_map)


HEAVY_TOP_H = ("0.5*(ptheta^2+(pphi-ppsi*cos(theta))^2/sin(theta)^2"
               "+ppsi^2)+cos(theta)")


class TestTranslationAction:
    def test_matrix_layout(self):
        a = TranslationAction([[1, 1]])
        assert a.n == 2 and a.k == 1
        np.testing.assert_array_equal(a.matrix, [[1.0], [1.0]])

    def test_two_generators(self):
        a = TranslationAction([[1, 0, 0], [0, 1, 0]])
        assert a.n == 3 and a.k == 2
        np.testing.assert_array_equal(a.translate([0, 0, 0], [2, 5]),
                                      [2, 5, 0])

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            TranslationAction([[1, 1], [2, 2]])

    @pytest.mark.parametrize("gens", [
        [[0, 0, 1e-200]], [[0, 0, 1e-160]],
        [[1, 0, 0], [1.0000000000001, 1e-13, 0]],
        [[1, 0, 0], [1, 2e-12, 0]]])
    def test_dependent_as_the_chart_sees_them(self, gens):
        # each passes numpy's matrix_rank; none has a quotient chart
        assert np.linalg.matrix_rank(np.array(gens, dtype=float)) == len(gens)
        with pytest.raises(ValueError, match="linearly dependent"):
            TranslationAction(gens)

    def test_gram_overflow(self):
        with pytest.raises(ValueError, match="Gram matrix G\\^T G overflows"):
            TranslationAction([[0, 1e200, 1]])

    def test_empty_action_needs_dimension(self):
        a = TranslationAction([], n=2)
        assert a.k == 0 and a.n == 2
        np.testing.assert_array_equal(a.translate([1, 2], []), [1, 2])

    def test_matrix_readonly(self):
        a = TranslationAction([[1, 1]])
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 7.0


class TestCotangentLift:
    def test_moves_q_fixes_p(self):
        a = TranslationAction([[1, 1]])
        z = PhasePoint([0.0, 1.0], [3.0, -1.0], t=0.5)
        out = cotangent_lift(a, [2.0], z)
        np.testing.assert_array_equal(out.q, [2.0, 3.0])
        np.testing.assert_array_equal(out.p, [3.0, -1.0])
        assert out.t == 0.5


class TestMomentumMap:
    def test_frozen_value(self):
        a = TranslationAction([[1, 1]])
        j = momentum_map(a, PhasePoint([0.0, 0.0], [3.0, -1.0]))
        np.testing.assert_allclose(j, [2.0])

    def test_flat_array_input(self):
        a = TranslationAction([[1, 1]])
        np.testing.assert_allclose(momentum_map(a, [9.0, 9.0, 3.0, -1.0]),
                                   [2.0])

    def test_conserved_along_lift(self):
        # J is unchanged by the lifted action itself
        a = TranslationAction([[1, 0], [0, 1]])
        z = PhasePoint([0.3, 0.4], [1.5, -2.5])
        j0 = momentum_map(a, z)
        j1 = momentum_map(a, cotangent_lift(a, [5.0, -7.0], z))
        np.testing.assert_array_equal(j0, j1)


class TestInvarianceReport:
    def test_invariant_function(self):
        a = TranslationAction([[1, 1]])
        rep = invariance_report(a, "(q1-q2)^2+q1-q2", ["q1", "q2"])
        assert rep["ok"]
        assert rep["max_rel_dev"] < 1e-12
        assert rep["witness"] is None

    def test_non_invariant_function(self):
        a = TranslationAction([[1, 1]])
        rep = invariance_report(a, "q1+q2", ["q1", "q2"])
        assert not rep["ok"]
        assert rep["witness"] is not None
        assert rep["max_rel_dev"] > PRECONDITION_TOL

    def test_accepts_expr_and_extra_vars(self):
        a = TranslationAction([[1, 1]])
        e = parse("0.5*(p1^2+p2^2)+1/(q1-q2)^2")
        rep = invariance_report(a, e, ["q1", "q2"])
        assert rep["ok"]

    def test_unsamplable_domain_is_a_precondition_error(self):
        a = TranslationAction([[1, 1]])
        with pytest.raises(PreconditionError) as ei:
            invariance_report(a, "sqrt(q1-q2-100)", ["q1", "q2"])
        assert str(ei.value) == "could not draw enough domain-valid samples"

    @pytest.mark.parametrize("gens", [[[0, 1, 0]], [[0, 0, 1]],
                                      [[0, 1, 0], [0, 0, 1]]],
                             ids=["phi", "psi", "both"])
    def test_unmoved_function_reports_what_sampling_reports(self, gens):
        # heavy-top h reads neither phi nor psi; h + (phi - phi) + (psi -
        # psi) reads both, equals h at every point, and is sampled
        h = parse(HEAVY_TOP_H)
        a = TranslationAction(gens)
        coords = ["theta", "phi", "psi"]
        sampled = invariance_report(a, h + parse("(phi-phi)+(psi-psi)"),
                                    coords)
        assert invariance_report(a, h, coords) == sampled == {
            "ok": True, "max_rel_dev": 0.0, "witness": None}

    def test_unmoved_function_draws_nothing(self):
        # no domain-valid point exists, yet there is no shortfall error
        a = TranslationAction([[0, 1]])
        rep = invariance_report(a, "sqrt(-1-q1^2)", ["q1", "q2"])
        assert rep == {"ok": True, "max_rel_dev": 0.0, "witness": None}

    def test_deterministic_given_seed(self):
        a = TranslationAction([[1, 0]])
        r1 = invariance_report(a, "q1*q2", ["q1", "q2"], seed=9)
        r2 = invariance_report(a, "q1*q2", ["q1", "q2"], seed=9)
        assert r1["max_rel_dev"] == r2["max_rel_dev"]


def test_a_failing_reports_witness_is_pinned():
    # one draw of every free variable per sample, in sorted name order
    a = TranslationAction([[1, 1, 0]])
    rep = invariance_report(a, "q1+q2+q3*w-v^2", ["q1", "q2", "q3"], seed=11)
    assert rep == {
        "ok": False, "max_rel_dev": 1.5184169636648428,
        "witness": {"point": {"q1": 0.2202748565537136,
                              "q2": 1.2584143996712238,
                              "q3": 0.822182094875878,
                              "v": 1.2126087813168187,
                              "w": -0.015603521375341156},
                    "shift": [0.7626702722254766],
                    "values": (-0.0045597361935414416, 1.5207808082574112)}}
    assert all(type(v) is float for v in rep["witness"]["point"].values())


class TestInvarianceLemma:
    """Momentum constant on a closed form's graph iff the form is invariant."""

    def _invariant_closed_form(self, c):
        # (f(y), -f(y) + c) with y = q1 - q2 is closed and invariant
        y = Var("q1") - Var("q2")
        f = call("sin", y) + Const(0.5) * y
        return OneForm(("q1", "q2"), components=(f, Const(c) - f))

    def test_invariant_closed_form(self):
        form = self._invariant_closed_form(1.7)
        a = TranslationAction([[1, 1]])
        grid = random_grid([(-2, 2), (-2, 2)], 40, seed=12)
        rep = check_invariance_lemma(a, form, grid)
        assert rep["invariant"]
        assert rep["j_constant"]
        assert rep["j_spread"] < 1e-12
        assert rep["consistent"]

    def test_no_valid_comparison_is_an_error(self):
        # only translates with |g| <= 1e-3 stay in the domain at q1 = 1
        form = OneForm(("q1", "q2"),
                       components=(parse("sqrt(1e-6-(q1-1)^2)+q1"),
                                   Const(0.0)))
        grid = np.array([[1.0, x] for x in np.linspace(-1.0, 1.0, 5)])
        with pytest.raises(PreconditionError):
            check_invariance_lemma(TranslationAction([[1, 1]]), form, grid)

    def test_non_invariant_form(self):
        y = Var("q1") - Var("q2")
        f = call("sin", y)
        pert = Const(0.1) * call("sin", Var("q1") + Var("q2"))
        form = OneForm(("q1", "q2"), components=(f + pert, Const(2.0) - f))
        a = TranslationAction([[1, 1]])
        grid = random_grid([(-2, 2), (-2, 2)], 40, seed=12)
        rep = check_invariance_lemma(a, form, grid)
        assert not rep["invariant"]
        assert not rep["j_constant"]
        assert rep["j_spread"] > 1e-3
        assert rep["consistent"]
