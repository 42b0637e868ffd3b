"""Each argument check of the public API raises its own error.

One case per ``raise``: the call that reaches it, the exception type and
a fragment of its message.
"""

import numpy as np
import pytest

from hjreduce.expr import parse
from hjreduce.hj import (GeneratingFunction, ImplicitBranchRoot, OneForm,
                         PreconditionError, TabulatedAntiderivative, TwoForm,
                         additive_split_check, check_complete, cyclic_ansatz,
                         magnetic_lagrangian_residual, solve_reduced_1d)
from hjreduce.integrators import (apply_type2, momentum_preservation_check,
                                  transform_to_equilibrium)
from hjreduce.phase_space import (HamiltonianSystem, PhasePoint, Trajectory,
                                  flow_reference, symplectic_pairing)
from hjreduce.reconstruction import lift_solution, reconstruct_trajectory
from hjreduce.reduction import (QuotientChart, build_chart, magnetic_term,
                                project_lagrangian, reduced_hamiltonian)
from hjreduce.symmetry import (TranslationAction, check_invariance_lemma,
                               invariance_report)

PAIR = HamiltonianSystem(parse("0.5*(p1^2+p2^2)+1/(q1-q2)^2"), ["q1", "q2"])
OSC = HamiltonianSystem(parse("0.5*(p^2+q^2)"), ["q"])
ACTION = TranslationAction([[1, 1]])
CHART = build_chart(ACTION)
REDUCED = OneForm(CHART.y_names, ["0.5"])
TYPE2 = GeneratingFunction("typeII", parse("q1*b1+q2*b2"), ("q1", "q2"),
                           ("b1", "b2"))
TYPE1 = GeneratingFunction("typeI", parse("q1*b1+q2"), ("q1", "q2"),
                           ("b1",))
NO_PARAMS = GeneratingFunction("typeII", parse("q^2"), ("q",), ())
ORIGIN = PhasePoint([0.0, 0.0], [0.0, 0.0])


def pair_form(*components):
    return OneForm(["q1", "q2"], components=list(components))


def root():
    return ImplicitBranchRoot(parse("p^2+y*p-a"), "y", "p", params=("a",))


CASES = [
    # hj
    ("OneForm components", lambda: OneForm(["x", "y"], components=["x"]),
     ValueError, "one component per coordinate"),
    ("magnetic_lagrangian_residual coords",
     lambda: magnetic_lagrangian_residual(pair_form("0", "0"),
                                          TwoForm(["a", "b"], {}), [[0, 0]]),
     ValueError, "coordinates differ"),
    ("ImplicitBranchRoot branch",
     lambda: ImplicitBranchRoot(parse("p^2-a"), "y", "p", branch=0),
     ValueError, "branch must be"),
    ("ImplicitBranchRoot arity", lambda: root()(1.0),
     ValueError, "expects 2 arguments"),
    ("TabulatedAntiderivative.partial(1)",
     lambda: TabulatedAntiderivative([0.0, 1.0], [0.0, 1.0], [1.0, 1.0],
                                     root()).partial(1),
     IndexError, "univariate"),
    ("solve_reduced_1d nodes",
     lambda: solve_reduced_1d(OSC.h, "q", "p", 0.5, (-0.5, 0.5), n_nodes=2),
     ValueError, "at least 3 nodes"),
    ("_point_rows coords",
     lambda: check_complete(TYPE2, OSC, {"q": [0.0]}),
     ValueError, "coordinates differ"),
    ("_point_rows lengths",
     lambda: check_complete(TYPE2, PAIR, {"q1": [0.0, 1.0], "q2": [0.0],
                                         "b1": [1.0, 1.0], "b2": [1.0, 1.0]}),
     ValueError, "equal length"),
    ("check_complete parameters",
     lambda: check_complete(NO_PARAMS, OSC, {"q": [0.0]}),
     ValueError, "at least one parameter"),
    ("cyclic_ansatz betas",
     lambda: cyclic_ansatz(
         HamiltonianSystem(parse("0.5*(p1^2+p2^2)+q2^2"), ["q1", "q2"]),
         ["q1"], [1.0, 2.0]),
     ValueError, "one beta per cyclic variable"),
    ("additive_split_check dimension",
     lambda: additive_split_check(parse("q1+q2+q3"), ["q1", "q2", "q3"],
                                  ACTION, [[0.0, 0.0, 0.0]]),
     ValueError, "action dimension"),
    # integrators
    ("_transform dimension",
     lambda: apply_type2(TYPE2, PhasePoint([0.0], [1.0])),
     ValueError, "point dimension"),
    ("momentum_preservation_check kind",
     lambda: momentum_preservation_check(TYPE1, ACTION, ORIGIN, 3),
     ValueError, "typeII"),
    ("transform_to_equilibrium parameters",
     lambda: transform_to_equilibrium(TYPE1, PAIR, ORIGIN, 1.0, 0.1),
     ValueError, "one parameter per coordinate"),
    # phase_space
    ("PhasePoint shapes", lambda: PhasePoint([0.0, 1.0], [0.0]),
     ValueError, "equal length"),
    ("HamiltonianSystem momentum count",
     lambda: HamiltonianSystem(parse("p^2"), ["q"], momenta=["p", "r"]),
     ValueError, "one momentum name per coordinate"),
    ("HamiltonianSystem distinct names",
     lambda: HamiltonianSystem(parse("q^2"), ["q"], momenta=["q"]),
     ValueError, "must be distinct"),
    ("Trajectory times",
     lambda: Trajectory([0.0, 0.0], [[0.0], [1.0]], [[0.0], [1.0]]),
     ValueError, "strictly increasing"),
    ("symplectic_pairing", lambda: symplectic_pairing([1, 2, 3], [1, 2, 3]),
     ValueError, "equal even length"),
    ("_rk4 dt",
     lambda: flow_reference(OSC, PhasePoint([0.0], [1.0]), 1.0, 0.0),
     ValueError, "dt must be positive"),
    ("_rk4 span",
     lambda: flow_reference(OSC, PhasePoint([0.0], [1.0]), -1.0, 0.1),
     ValueError, "must not precede"),
    # reconstruction
    ("lift_solution names",
     lambda: lift_solution(REDUCED, CHART, [0.0], ["a"]),
     ValueError, "need 2 coordinate names"),
    ("lift_solution mu",
     lambda: lift_solution(REDUCED, CHART, [0.0, 1.0], ["q1", "q2"]),
     ValueError, "mu must have 1 entries"),
    ("reconstruct_trajectory y0",
     lambda: reconstruct_trajectory(PAIR, REDUCED, CHART, [0.0], [0.1, 0.2],
                                    1.0, 0.1),
     ValueError, "y0 must have 1 entries"),
    # reduction
    ("QuotientChart names", lambda: QuotientChart(ACTION, y_names=["a", "b"]),
     ValueError, "need 1 reduced"),
    ("_on_level mu", lambda: reduced_hamiltonian(PAIR, CHART, [0.0, 1.0]),
     ValueError, "mu must have 1 entries"),
    ("_on_level dimensions", lambda: reduced_hamiltonian(OSC, CHART, [0.0]),
     ValueError, "dimensions differ"),
    ("magnetic_term dimensions",
     lambda: magnetic_term(CHART, OneForm(["q"], ["0"]), [0.0]),
     ValueError, "dimensions differ"),
    ("magnetic_term mu",
     lambda: magnetic_term(CHART, pair_form("0", "0"), [0.0, 1.0]),
     ValueError, "mu must have 1 entries"),
    ("project_lagrangian grid",
     lambda: project_lagrangian(pair_form("0", "0"), CHART, [0.0], [[0.0]]),
     ValueError, "chart's dimension"),
    # on the level G^T form = q1 - q1 = 0, but a translation moves q1
    ("project_lagrangian invariance",
     lambda: project_lagrangian(pair_form("q1", "-q1"), CHART, [0.0],
                                [[0.3, -0.2]]),
     PreconditionError, "not invariant"),
    # symmetry
    ("TranslationAction empty", lambda: TranslationAction([]),
     ValueError, "explicit n"),
    ("TranslationAction vectors",
     lambda: TranslationAction(np.ones((1, 1, 2))),
     ValueError, "vectors of equal length"),
    ("TranslationAction length", lambda: TranslationAction([[1, 1]], n=3),
     ValueError, "expected 3"),
    ("translate", lambda: ACTION.translate([0.0, 0.0], [1.0, 2.0]),
     ValueError, "group element must have 1 entries"),
    ("invariance_report coords",
     lambda: invariance_report(ACTION, "q1", ["q1"]),
     ValueError, "one name per action dimension"),
    ("check_invariance_lemma grid",
     lambda: check_invariance_lemma(ACTION, pair_form("0", "0"), [[0.0]]),
     ValueError, "match the action dimension"),
]


@pytest.mark.parametrize("call, exc, fragment",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check_raises(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
