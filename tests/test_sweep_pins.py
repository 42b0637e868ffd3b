"""Pinned numbers of the sweeps over points and of single-point evaluations.

The sweep values were recorded before the sweeps moved onto
``expr.evaluate_rows``, the single-point values before the point
evaluations did: the same inputs must give bit-identical results,
including through root-backed forms, whose solves depend on their order.
"""

import numpy as np
import pytest

from hjreduce.cli import build_system, load_scenario
from hjreduce.expr import Const, Var, linear_combo, parse, substitute
from hjreduce.hj import (GeneratingFunction, ImplicitBranchRoot, OneForm,
                         TurningPointError, TwoForm, additive_split_check,
                         check_complete, closedness_residual, cyclic_ansatz,
                         cyclic_complete_solution, hj_residual,
                         magnetic_lagrangian_residual, mesh_grid,
                         quadrature_complete_solution, solve_reduced_1d,
                         time_dependent_residual)
from hjreduce.integrators import (ImplicitMap, map_jacobian,
                                  transform_to_equilibrium)
from hjreduce.phase_space import (HamiltonianSystem, PhasePoint,
                                  flow_reference, hamiltonian_vector_field)
from hjreduce.reconstruction import (lift_report, lift_solution,
                                     projected_vector_field,
                                     reconstruct_trajectory)
from hjreduce.reduction import build_chart, reduced_hamiltonian
from hjreduce.symmetry import TranslationAction, check_invariance_lemma


@pytest.fixture(scope="module")
def calogero():
    """The bundled calogero pipeline: system, chart, solution, lifted form."""
    sys_, action, mu = build_system(load_scenario("calogero"))
    chart = build_chart(action)
    h_red = reduced_hamiltonian(sys_, chart, mu)
    sol = solve_reduced_1d(h_red, chart.y_names[0], chart.py_names[0], 2.0,
                           (0.8, 5.0), n_nodes=201)
    form = lift_solution(sol, chart, mu, sys_.coords)
    pts = mesh_grid([(1.0, 4.5), (-2.0, 2.0)], [7, 5])
    grid = pts[:, :1] @ chart.horizontal.T + pts[:, 1:] @ chart.generators.T
    return sys_, action, chart, sol, form, grid


@pytest.fixture(scope="module")
def skew_pair():
    """A pair system reduced along (0.6, 0.45): its chart is not dyadic.

    Products with its matrices round, so a product over many rows at
    once can differ in the last bit from the one-row products.
    """
    sys_ = HamiltonianSystem("0.5*(p1^2+p2^2)+1/(0.45*q1-0.6*q2)^2",
                             ["q1", "q2"])
    chart = build_chart(TranslationAction([[0.6, 0.45]]))
    mu = np.array([0.4])
    sol = solve_reduced_1d(reduced_hamiltonian(sys_, chart, mu), "q", "p",
                           3.0, (2.5, 8.0), n_nodes=201)
    pts = mesh_grid([(3.0, 7.0), (-2.0, 2.0)], [7, 5])
    grid = pts[:, :1] @ chart.horizontal.T + pts[:, 1:] @ chart.generators.T
    return sys_, chart, mu, sol, grid


def lift_fields(rep):
    return [repr(v) for v in (rep.invariance_dev, rep.momentum_dev,
                              rep.closedness, rep.hj_max_dev, rep.energy)]


def bent(form):
    """The lifted form with its first component times 1 + q1/10.

    The result is neither closed, nor invariant, nor on one momentum level.
    """
    first, *rest = form.components
    return OneForm(form.coords, components=[
        first * (Const(1.0) + Const(0.1) * Var("q1")), *rest])


class TestPinnedSweepValues:
    def test_hj_residual_and_closedness(self, calogero):
        sys_, _, _, _, form, grid = calogero
        rep = hj_residual(sys_, form, grid)
        assert (repr(rep.e_est), repr(rep.max_dev), repr(rep.closedness)) == (
            "2.0", "2.220446049250313e-16", "0.0")
        assert repr(closedness_residual(bent(form), grid)) == "0.25"

    def test_magnetic_residual(self, calogero):
        sys_, _, _, _, form, grid = calogero
        beta = TwoForm(sys_.coords, {(0, 1): parse("0.3*sin(q1+q2)")})
        assert (repr(magnetic_lagrangian_residual(form, beta, grid))
                == "0.2727892280477045")

    def test_invariance_lemma(self, calogero):
        _, action, _, _, form, grid = calogero
        rep = check_invariance_lemma(action, bent(form), grid)
        assert (repr(rep["j_spread"]), repr(rep["invariance_dev"])) == (
            "0.7464704639528255", "0.13058902698589137")

    def test_additive_split(self, calogero):
        sys_, action, chart, sol, _, grid = calogero
        y = linear_combo(chart.y_block[0], sys_.coords)
        s = (substitute(sol.potential, {chart.y_names[0]: y})
             + Const(0.25) * (Var("q1") + Var("q2")))
        rep = additive_split_check(s, sys_.coords, action, grid)
        assert (repr(rep.mu.tolist()), repr(rep.constant),
                repr(rep.residual)) == ("[0.5]", "0.0", "4.440892098500626e-16")

    def test_time_dependent_residual_and_completeness(self):
        sys_, _, _ = build_system(load_scenario("heavytop"))
        ans = cyclic_ansatz(sys_, ("phi", "psi"), (0.3, 0.2))
        gf = cyclic_complete_solution(sys_, ans, (0.6, 2.5))
        n = 9
        points = {"theta": np.linspace(0.7, 2.4, n),
                  "phi": np.linspace(-2.0, 2.0, n),
                  "psi": np.linspace(2.0, -2.0, n),
                  "t": np.linspace(0.0, 1.0, n),
                  "b1": np.full(n, 3.0), "b2": np.full(n, 0.3),
                  "b3": np.full(n, 0.2)}
        assert (repr(time_dependent_residual(gf, sys_, points))
                == "4.440892098500626e-16")
        rep = check_complete(gf, sys_, points)
        assert (repr(rep.hj_max_dev), repr(rep.min_abs_det)) == (
            "4.440892098500626e-16", "0.37807489215335816")

    def test_lift_report(self, calogero):
        sys_, _, chart, sol, _, grid = calogero
        assert lift_fields(lift_report(sys_, sol, chart, np.zeros(1),
                                       grid)) == [
            "0.0", "0.0", "0.0", "2.220446049250313e-16", "2.0"]
        assert lift_fields(lift_report(sys_, sol, chart, np.array([0.3]),
                                       grid)) == [
            "0.0", "1.6653345369377348e-16", "0.0", "4.440892098500626e-16",
            "2.0224999999999995"]

    def test_lift_report_on_a_skew_chart(self, skew_pair):
        sys_, chart, mu, sol, grid = skew_pair
        assert lift_fields(lift_report(sys_, sol, chart, mu, grid)) == [
            "2.220446049250313e-16", "1.6653345369377348e-16", "0.0",
            "4.440892098500626e-16", "3.0"]

    def test_trajectory_energies(self, calogero):
        sys_ = calogero[0]
        traj = flow_reference(sys_, PhasePoint([1.0, -1.0], [1.0, 0.0]),
                              0.5, 0.01)
        e = traj.energies(sys_)
        assert [repr(float(v)) for v in e[::10]] == [
            "0.75", "0.7499999999955465", "0.7499999999924047",
            "0.7499999999902723", "0.7499999999888695", "0.7499999999879723"]


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (6, 3), (12, 4)])
def test_stacked_products_round_as_one_row_products(n, k):
    # the sweeps' matrix products (M @ a[:, :, None])[..., 0] rely on this
    rng = np.random.default_rng(n * 10 + k)
    rows = rng.normal(size=(40, n))
    for mat in (rng.normal(size=(k, n)), rng.normal(size=(n, k)).T):
        assert np.array_equal((mat @ rows[:, :, None])[..., 0],
                              np.array([mat @ row for row in rows]))


def reprs(values):
    return [repr(float(v)) for v in np.ravel(values)]


@pytest.fixture(scope="module")
def oscillator():
    return build_system(load_scenario("oscillator"))[0]


class TestPinnedPointValues:
    def test_vector_field_with_and_without_time(self, calogero):
        sys_t = HamiltonianSystem("0.5*p^2+q^4/4+t*q*sin(q)", ["q"])
        expected = ["-0.3", "-0.8148428873347331"]
        assert reprs(hamiltonian_vector_field(
            sys_t, PhasePoint([0.7], [-0.3]), t=0.4)) == expected
        assert reprs(hamiltonian_vector_field(
            sys_t, PhasePoint([0.7], [-0.3], t=0.4))) == expected
        assert reprs(hamiltonian_vector_field(
            calogero[0], PhasePoint([1.3, -0.4], [0.2, 0.9]))) == [
            "0.2", "0.9", "0.4070832485243231", "-0.4070832485243231"]

    def test_energy(self, calogero):
        e = calogero[0].energy(PhasePoint([1.3, -0.4], [0.2, 0.9]))
        assert type(e) is float and repr(e) == "0.7710207612456748"
        sys_t = HamiltonianSystem("0.5*p^2+q^4/4+t*q*sin(q)", ["q"])
        assert (repr(sys_t.energy(PhasePoint([0.7], [-0.3], t=0.4))),
                repr(sys_t.energy(PhasePoint([0.7], [-0.3]), t=1.5))) == (
            "0.2854059524265534", "0.7814535715995754")

    def test_short_flow(self):
        sys_t = HamiltonianSystem("0.5*p^2+q^4/4+t*q*sin(q)", ["q"])
        traj = flow_reference(sys_t, PhasePoint([0.7], [-0.3]), 0.05, 0.01)
        assert reprs([traj.qs[-1], traj.ps[-1]]) == [
            "0.684556068279613", "-0.31805669355613203"]

    def test_scheme_steps_and_jacobian(self, oscillator):
        ib = load_scenario("oscillator")["integrator"]
        gf = GeneratingFunction(ib["kind"], ib["s"], q_vars=oscillator.coords,
                                params=ib["params"])
        step = ImplicitMap(gf, t=ib["tau"])
        z = PhasePoint([0.0], [1.0])
        seen = []
        for _ in range(3):
            z = step(z)
            seen += reprs([z.q, z.p])
        assert seen == ["0.1", "1.0", "0.199", "0.99", "0.29601", "0.9701"]
        assert reprs(map_jacobian(gf, z, t=ib["tau"])) == [
            "0.99", "0.1", "-0.1", "1.0"]

    def test_equilibrium_through_quadrature_family(self, oscillator):
        fam = quadrature_complete_solution(oscillator, [-0.95, 0.95])
        rep = transform_to_equilibrium(fam, oscillator,
                                       PhasePoint([0.0], [1.0]), 0.02, 0.005,
                                       param_guess=[0.5])
        assert reprs(rep.alphas) == [
            "0.5", "0.4999999999999999", "0.4999999999999999",
            "0.49999999999999967", "0.49999999999999956"]
        assert reprs(rep.betas) == [
            "-0.0", "2.6041668821363828e-14", "5.208507236620363e-14",
            "7.812674118756746e-14", "1.0416667528545531e-13"]
        assert repr(rep.max_var) == "1.0461076449530538e-13"
        assert reprs(map_jacobian(fam, PhasePoint([0.2], [0.9], t=0.1),
                                  t=0.1)) == [
            "0.19999999999999998", "0.8999999999999999",
            "-1.0588235294117647", "0.2352941176470587"]

    def test_two_form_matrix(self):
        tf = TwoForm(("x", "y", "z"), {(0, 1): parse("x*y+z"),
                                       (1, 2): parse("sin(x)")})
        assert reprs(tf.matrix_at([0.3, -1.2, 2.0])) == [
            "0.0", "1.6400000000000001", "0.0",
            "-1.6400000000000001", "0.0", "0.29552020666133955",
            "0.0", "-0.29552020666133955", "0.0"]

    def test_projected_field_and_reconstruction(self, calogero):
        sys_, _, chart, sol, form, _ = calogero
        expected = ["1.3564659966250536", "-1.3564659966250536"]
        assert reprs(projected_vector_field(sys_, form, [2.0, -0.5])) == expected
        assert reprs(projected_vector_field(sys_, form, [2.0, -0.5],
                                            t=0.3)) == expected
        traj = reconstruct_trajectory(sys_, sol, chart, np.zeros(1),
                                      np.array([2.0]), 0.1, 0.02)
        assert reprs([traj.qs[-1], traj.ps[-1]]) == [
            "1.1333909875714847", "-1.1333909875714847",
            "1.3436454603665802", "-1.3436454603665802"]

    def test_reconstruction_on_a_skew_chart(self, skew_pair):
        sys_, chart, mu, sol, _ = skew_pair
        traj = reconstruct_trajectory(sys_, sol, chart, mu, np.array([4.0]),
                                      0.1, 0.02, g0=np.array([0.3]))
        assert reprs([traj.qs[-1], traj.ps[-1]]) == [
            "2.2819881714952497", "-2.5787620064381103",
            "1.8227115749777973", "-1.5413932110815074"]

    def test_root_partials(self):
        root = ImplicitBranchRoot(parse("0.5*(p^2+q^2)-a1"), "q", "p",
                                  params=("a1",), name="dW_family")
        d_q, d_a = root.partial(0), root.partial(1)
        d_qa = d_q.partial(1)
        assert (d_q.name, d_a.name, d_qa.name) == (
            "dW_family_dq", "dW_family_da1", "dW_family_dq_da1")
        assert [repr(f(0.3, 0.5)) for f in (d_q, d_a, d_qa, d_q.partial(0))] \
            == ["-0.3144854510165755", "1.0482848367219182",
                "0.3455884077105225", "-1.1519613590350752"]
        bent_root = ImplicitBranchRoot(parse("p^2*(1+a1*q)-1+q^2-a1"), "q",
                                       "p", params=("a1",), name="r")
        d_a = bent_root.partial(1)
        assert [repr(f(0.4, 0.7)) for f in (d_a, d_a.partial(0),
                                            d_a.partial(1))] == [
            "0.18474077824511612", "-0.24823706501171744",
            "-0.1465780119599034"]

    def test_turning_point_raises_before_other_derivatives(self):
        # at q = 0 the root is p = 0, where g_p = 2p vanishes and
        # g_q = -1/(2 sqrt(q)) is singular: the turning point is reported
        root = ImplicitBranchRoot(parse("p^2-sqrt(q)"), "q", "p", name="sq")
        for f in (root.partial(0), root.partial(0).partial(0)):
            with pytest.raises(TurningPointError,
                               match="implicit derivative at a turning point"):
                f(0.0)
