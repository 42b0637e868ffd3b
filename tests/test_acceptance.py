"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each test prints a single PASS/FAIL line with the measured number so a
verbose run doubles as a quantitative report.  Shared fixtures keep the
whole suite fast; nothing here loosens a bound to make a test pass.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from hjreduce.expr import (Const, DomainError, Var, call, differentiate,
                           evaluate, parse)
from hjreduce.hj import (GeneratingFunction, ImplicitBranchRoot, OneForm,
                         PreconditionError, additive_split_check,
                         check_complete, cyclic_ansatz, mesh_grid,
                         quadrature_complete_solution, random_grid,
                         solve_heavy_top, solve_reduced_1d)
from hjreduce.integrators import (ImplicitMap, map_jacobian,
                                  momentum_preservation_check,
                                  symplecticity_check,
                                  transform_to_equilibrium)
from hjreduce.phase_space import HamiltonianSystem, PhasePoint, flow_reference
from hjreduce.reconstruction import (integrate_projected, lift_report,
                                     lift_solution, reconstruct_trajectory)
from hjreduce.reduction import (build_chart, exterior_derivative,
                                magnetic_lagrangian_residual, magnetic_term,
                                reduced_hamiltonian)
from hjreduce.symmetry import TranslationAction, check_invariance_lemma
from oracles import fd_derivative, random_expr

PAIR_H = "0.5*(p1^2+p2^2)+1/(q1-q2)^2"
PAIR_S = "q1*b1+q2*b2+t*(0.5*(b1^2+b2^2)+1/(q1-q2)^2)"


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def pair_system():
    return HamiltonianSystem(parse(PAIR_H), ["q1", "q2"])


@pytest.fixture(scope="module")
def pair_chart():
    return build_chart(TranslationAction([[1, 1]]))


@pytest.fixture(scope="module")
def pair_reduced(pair_system, pair_chart):
    return reduced_hamiltonian(pair_system, pair_chart, np.zeros(1))


@pytest.fixture(scope="module")
def pair_solution(pair_reduced):
    return solve_reduced_1d(pair_reduced, "q", "p", 2.0, (0.8, 5.0),
                            n_nodes=2001)


def test_criterion_01_pair_reduction_matches_closed_form(pair_system,
                                                         pair_chart):
    t0 = time.perf_counter()
    h_red = reduced_hamiltonian(pair_system, pair_chart, np.zeros(1))
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        q = float(rng.uniform(0.3, 5.0))
        p = float(rng.uniform(-3.0, 3.0))
        got = h_red.evaluate({"q": q, "p": p})
        want = p * p + 1.0 / (q * q)
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"reduced hamiltonian vs p^2+1/q^2, max rel dev {worst:.2e} "
           f"(<= 1e-12), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_02_reduced_hj_node_residual(pair_reduced):
    t0 = time.perf_counter()
    sol = solve_reduced_1d(pair_reduced, "q", "p", 2.0, (0.8, 5.0),
                           n_nodes=2001)
    worst = 0.0
    for y, p in zip(sol.table.ys, sol.table.derivs):
        worst = max(worst, abs(pair_reduced.evaluate({"q": y, "p": p})
                               - 2.0))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-10 and elapsed < 1.0,
           f"quadrature node residual {worst:.2e} (<= 1e-10), "
           f"runtime {elapsed:.3f}s (< 1s)")


def test_criterion_03_lifted_solution(pair_system, pair_chart,
                                      pair_solution):
    pts = mesh_grid([(1.0, 5.0), (-2.0, 2.0)], [50, 50])
    grid = (pts[:, :1] @ pair_chart.horizontal.T
            + pts[:, 1:] @ pair_chart.generators.T)
    rep = lift_report(pair_system, pair_solution, pair_chart, np.zeros(1),
                      grid)
    report(3, rep.hj_max_dev <= 1e-8 and rep.momentum_dev <= 1e-12,
           f"lifted form on 50x50 grid: HJ residual {rep.hj_max_dev:.2e} "
           f"(<= 1e-8), momentum dev {rep.momentum_dev:.2e} (<= 1e-12)")


def test_criterion_04_invariance_lemma_suite():
    action = TranslationAction([[1, 1]])
    grid = random_grid([(-2, 2), (-2, 2)], 40, seed=17)
    rng = np.random.default_rng(23)
    worst_inv = 0.0
    worst_pert = math.inf
    for _ in range(50):
        c1, c2, c3, c4 = rng.uniform(0.3, 1.5, 4)
        c0 = float(rng.uniform(-2, 2))
        y = Var("q1") - Var("q2")
        f = (Const(float(c1)) * call("sin", Const(float(c2)) * y)
             + Const(float(c3)) * y
             + Const(float(c4)) * y * y)
        closed_inv = OneForm(("q1", "q2"), components=(f, Const(c0) - f))
        rep = check_invariance_lemma(action, closed_inv, grid)
        worst_inv = max(worst_inv, rep["j_spread"])
        assert rep["consistent"]
        a, b = rng.uniform(0.5, 1.5, 2)
        pert = Const(0.1) * call(
            "sin", Const(float(a)) * Var("q1") + Const(float(b)) * Var("q2"))
        perturbed = OneForm(("q1", "q2"),
                            components=(f + pert, Const(c0) - f))
        rep_pert = check_invariance_lemma(action, perturbed, grid)
        worst_pert = min(worst_pert, rep_pert["j_spread"])
    report(4, worst_inv <= 1e-12 and worst_pert >= 1e-3,
           f"50 invariant closed forms: max momentum spread "
           f"{worst_inv:.2e} (<= 1e-12); 50 perturbed (amplitude 0.1): "
           f"min spread {worst_pert:.2e} (>= 1e-3)")


def test_criterion_05_dynamics_commute(pair_system, pair_chart,
                                       pair_solution):
    traj = reconstruct_trajectory(pair_system, pair_solution, pair_chart,
                                  np.zeros(1), np.array([2.0]), 1.0, 1e-3)
    form = lift_solution(pair_solution, pair_chart, np.zeros(1),
                         pair_system.coords)
    direct = integrate_projected(pair_system, form, traj.qs[0], 1.0, 1e-3)
    sup = max(float(np.max(np.abs(traj.qs - direct.qs))),
              float(np.max(np.abs(traj.ps - direct.ps))))
    z0 = PhasePoint(traj.qs[0], form.values(traj.qs[0]))
    flow = flow_reference(pair_system, z0, 1.0, 1e-3)
    related = max(float(np.max(np.abs(form.values(flow.qs[i]) - flow.ps[i])))
                  for i in range(len(flow)))
    report(5, sup <= 1e-6 and related <= 1e-6,
           f"reconstructed vs projected flow sup {sup:.2e} (<= 1e-6); "
           f"graph-relatedness {related:.2e} (<= 1e-6)")


def test_criterion_06_symplecticity():
    gf = GeneratingFunction("typeII", parse("q*b1+t*(0.5*(b1^2+q^2))"),
                            ("q",), ("b1",))
    z = PhasePoint([1.0], [0.0])
    m = map_jacobian(gf, z, t=0.1)
    hand = np.array([[0.99, 0.1], [-0.1, 1.0]])
    hand_dev = float(np.max(np.abs(m - hand)))
    worst = symplecticity_check(gf, z, t=0.1)
    rng = np.random.default_rng(31)
    for _ in range(100):
        c = np.round(rng.uniform(-1, 1, 6), 3)
        s = ("q1*b1+q2*b2+t*({}*q1^2+{}*q1*q2+{}*q2^2"
             "+{}*b1^2+{}*b1*b2+{}*q1*b2)").format(*c)
        g2 = GeneratingFunction("typeII", parse(s), ("q1", "q2"),
                                ("b1", "b2"))
        z2 = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        worst = max(worst, symplecticity_check(g2, z2, t=0.05))
    report(6, worst <= 1e-9 and hand_dev <= 1e-12,
           f"jacobian defect over oscillator + 100 random generators "
           f"{worst:.2e} (<= 1e-9); hand matrix dev {hand_dev:.2e}")


def test_criterion_07_momentum_preservation():
    action = TranslationAction([[1, 1]])
    gf = GeneratingFunction("typeII", parse(PAIR_S), ("q1", "q2"),
                            ("b1", "b2"))
    z0 = PhasePoint([1.0, -1.0], [1.0, 0.0])
    drift = momentum_preservation_check(gf, action, z0, 1000, t=0.01)
    inv_drift = float(np.max(drift))
    control = GeneratingFunction("typeII", parse(PAIR_S + "+0.01*q1^2"),
                                 ("q1", "q2"), ("b1", "b2"))
    with pytest.raises(PreconditionError):
        momentum_preservation_check(control, action, z0, 10, t=0.01)
    step = ImplicitMap(control, t=0.01)
    g = action.matrix
    z = z0
    j0 = float((g.T @ np.asarray(z.p))[0])
    ctrl_drift = 0.0
    for _ in range(100):
        z = step(z)
        ctrl_drift = max(ctrl_drift,
                         abs(float((g.T @ np.asarray(z.p))[0]) - j0))
    report(7, inv_drift <= 1e-10 and ctrl_drift >= 1e-4,
           f"invariant scheme 1000 steps: momentum drift {inv_drift:.2e} "
           f"(<= 1e-10); non-invariant control drift {ctrl_drift:.2e} "
           f"(>= 1e-4)")


def test_criterion_08_equilibrium_transform():
    free = HamiltonianSystem(parse("0.5*p^2"), ["q"])
    gf = GeneratingFunction("typeI", parse("q*a1-t*a1^2/2"), ("q",),
                            ("a1",))
    rep1 = transform_to_equilibrium(gf, free, PhasePoint([2.0], [3.0]),
                                    1.0, 1e-3)
    osc = HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])
    fam = quadrature_complete_solution(osc, (-0.95, 0.95))
    rep2 = transform_to_equilibrium(fam, osc, PhasePoint([0.0], [1.0]),
                                    1.0, 1e-3, param_guess=[0.5])
    report(8, rep1.max_var <= 1e-8 and rep2.max_var <= 1e-6,
           f"new-variable variation: free particle {rep1.max_var:.2e} "
           f"(<= 1e-8); oscillator family {rep2.max_var:.2e} (<= 1e-6)")


def test_criterion_09_heavy_top():
    lo, hi = math.pi / 6, 5 * math.pi / 6
    top = HamiltonianSystem(
        parse("0.5*(ptheta^2+(pphi-ppsi*cos(theta))^2/sin(theta)^2"
              "+ppsi^2)+cos(theta)"),
        ["theta", "phi", "psi"], ["ptheta", "pphi", "ppsi"])
    ans = cyclic_ansatz(top, ["phi", "psi"], [0.3, 0.2])
    # radicand positivity: the effective potential stays below E
    thetas = np.linspace(lo, hi, 2001)
    veff = np.array([ans.equation.evaluate({"theta": t, "dV_dtheta": 0.0})
                     for t in thetas])
    assert float(np.max(veff)) < 3.0
    out = solve_heavy_top(1.0, 1.0, 1.0, 1.0, 1.0, 0.3, 0.2, 3.0, (lo, hi),
                          n_nodes=2001)
    worst = 0.0
    for t in np.linspace(lo, hi, 500):
        s = out.solution.root.solve((t,))
        worst = max(worst, abs(ans.equation.evaluate(
            {"theta": t, "dV_dtheta": s}) - 3.0))
    n = 60
    pts = {"theta": np.linspace(lo + 0.02, hi - 0.02, n),
           "phi": np.linspace(-2, 2, n), "psi": np.linspace(-2, 2, n),
           "t": np.linspace(0, 1, n), "b1": np.full(n, 3.0),
           "b2": np.full(n, 0.3), "b3": np.full(n, 0.2)}
    comp = check_complete(out.generating_function, out.system, pts,
                          tol=1e-8)
    report(9, worst <= 1e-8 and comp.min_abs_det >= 1e-6,
           f"heavy-top HJ residual {worst:.2e} (<= 1e-8); "
           f"non-degeneracy min |det| {comp.min_abs_det:.2e} (>= 1e-6)")


def test_criterion_10_magnetic_term():
    chart = build_chart(TranslationAction([[0, 0, 1]]),
                        y_names=("y1", "y2"), py_names=("py1", "py2"))
    alpha = OneForm(("y1", "y2", "x"),
                    components=(Const(0.0), Var("y1"), Const(1.5)))
    term = magnetic_term(chart, alpha, np.array([1.5]))
    entry = term.beta.entry(0, 1)
    exact = isinstance(entry, Const) and entry.value == 1.0
    pot = Var("y1") ** Const(2.0) + call("sin", Var("y2"))
    ds = OneForm.exact(pot, ("y1", "y2"))
    corrected = OneForm(("y1", "y2"),
                        components=(ds.components[0],
                                    ds.components[1] - Var("y1")))
    grid = mesh_grid([(-2, 2), (-2, 2)], [15, 15])
    good = magnetic_lagrangian_residual(corrected, term.beta, grid)
    bad = magnetic_lagrangian_residual(ds, term.beta, grid)
    report(10, exact and good <= 1e-12 and abs(bad - 1.0) <= 1e-12,
           f"synthetic connection: curvature exactly dy1^dy2 ({exact}); "
           f"corrected form residual {good:.2e} (<= 1e-12); "
           f"uncorrected residual {bad:.3f} (= 1)")


def test_criterion_11_additive_split():
    action = TranslationAction([[1, 1]])
    s = (call("sin", Var("q1") - Var("q2"))
         + Const(1.5) * (Const(0.5) * Var("q1") + Const(0.5) * Var("q2")))
    grid = random_grid([(0.5, 2.5), (-2.0, -0.5)], 30, seed=7)
    rep = additive_split_check(s, ("q1", "q2"), action, grid)
    witnessed = False
    try:
        additive_split_check(s + Const(0.01) * Var("q1") ** Const(2.0),
                             ("q1", "q2"), action, grid)
    except PreconditionError as e:
        witnessed = e.witness is not None
    report(11, rep.residual <= 1e-12 and witnessed,
           f"exact split residual {rep.residual:.2e} (<= 1e-12); "
           f"perturbed input rejected with witness ({witnessed})")


def test_criterion_12_parser_derivative_suite(tmp_path):
    rng = np.random.default_rng(42)
    names = ["x", "y"]
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 20000, "expression sampling stalled"
        e = random_expr(rng, names, 3)
        d = differentiate(e, "x")
        pt = {n: float(rng.uniform(-1.5, 1.5)) for n in names}

        def f(x, pt=pt, e=e):
            b = dict(pt)
            b["x"] = x
            return evaluate(e, b)

        try:
            sym = evaluate(d, pt)
            num = fd_derivative(f, pt["x"])
            val = evaluate(e, pt)
        except DomainError:
            continue
        if abs(sym) > 1e4 or abs(val) > 1e4:
            continue
        worst = max(worst, abs(sym - num) / (1 + abs(sym)))
        checked += 1
    # CSV round trip, bit for bit
    from hjreduce.cli import emit_trajectory, read_trajectory
    from hjreduce.phase_space import Trajectory
    tr = Trajectory(np.linspace(0, 1, 9),
                    rng.normal(size=(9, 3)) * math.pi,
                    rng.normal(size=(9, 3)) / 7.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        emit_trajectory(tr, str(p1))
        emit_trajectory(read_trajectory(str(p1)), str(p2))
    exact = p1.read_bytes() == p2.read_bytes()
    report(12, worst <= 1e-6 and exact,
           f"1000 random derivatives vs central differences, max rel dev "
           f"{worst:.2e} (<= 1e-6); CSV round trip bit-exact ({exact})")
