"""Seeded job generators and numpy-only oracles for the three workloads.

A job is one CLI command on one generated scenario.  Jobs come in
blocks; block ``b`` of seed ``s`` draws its parameters from
``default_rng([s, b])``, so a longer list extends a shorter one.  Only
physical parameters are random.  The size of every job (particle count,
node count, grid, step count) follows a fixed pattern, so the amount of
work in a list does not depend on the seed.

Every draw stays where the commands are known to succeed: trajectories
stay inside their quadrature ranges, energies stay above the potential
on every solve range, and particles stay apart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Job:
    """One CLI command on one scenario, and how to check its outputs."""
    cmd: str
    doc: dict
    check: object  # callable(out_dir: Path) -> str | None (error text)
    tol: float = 1e-8

    @property
    def name(self):
        return self.doc["name"]

    def argv(self, scenario_path, out_dir):
        return [self.cmd, str(scenario_path), "--out", str(out_dir),
                "--tol", repr(self.tol)]


def _u(rng, lo, hi, digits=6):
    """Uniform draw rounded so that the scenario text holds it exactly."""
    return round(float(rng.uniform(lo, hi)), digits)


def _read_json(out_dir, name, suffix):
    with open(out_dir / f"{name}_{suffix}", encoding="utf-8") as f:
        return json.load(f)


def _read_csv(out_dir, name, suffix):
    return np.loadtxt(out_dir / f"{name}_{suffix}", delimiter=",",
                      skiprows=1, ndmin=2)


def _report_passes(name, suffix):
    def check(out_dir):
        rep = _read_json(out_dir, name, suffix)
        if rep.get("pass") is not True:
            return f"{suffix}: pass is {rep.get('pass')!r}"
        return None
    return check


def _all_of(*checks):
    def check(out_dir):
        for c in checks:
            err = c(out_dir)
            if err:
                return err
        return None
    return check


# ---------------------------------------------------------------------------
# quadrature: equilibrium transforms and heavy-top cyclic families.

HEAVY_TOP_H = ("0.5*(ptheta^2+(pphi-ppsi*cos(theta))^2/sin(theta)^2+ppsi^2)"
               "+cos(theta)")
# RK4 steps per equilibrium trajectory, by block.  The tail job is the
# middle equilibrium job; with one size for all of them it would jump
# between that size's fast and slow time as the machine's speed varies,
# with a spread of sizes it moves smoothly.
EQ_SAMPLES = (150, 200, 250, 300, 350)
EQ_REACH = 0.84        # share of the turning point the trajectory reaches
EQ_RANGE = 0.95        # share of the turning point covered by q_range
EQ_TOL = 1e-6          # the acceptance tolerance for quadrature families


def _quartic_turning_point(k, lam, energy):
    """Positive q with 0.5*k*q^2 + lam*q^4 = energy."""
    if lam == 0.0:
        return math.sqrt(2.0 * energy / k)
    x = (-0.5 * k + math.sqrt(0.25 * k * k + 4.0 * lam * energy)) / (2.0 * lam)
    return math.sqrt(x)


def _quartic_time_to(k, lam, energy, q_end, n=20001):
    """Time for q to go from 0 to q_end with q' = sqrt(2(E - V(q)))."""
    q = np.linspace(0.0, q_end, n)
    speed = np.sqrt(2.0 * (energy - 0.5 * k * q * q - lam * q ** 4))
    f = 1.0 / speed
    h = q_end / (n - 1)
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                            + 2.0 * f[2:-1:2].sum()))


def _equilibrium_job(rng, name, samples):
    k = _u(rng, 0.5, 2.0)
    lam = _u(rng, 0.0, 0.5)
    p0 = _u(rng, 0.6, 1.4)
    energy = 0.5 * p0 * p0
    q_turn = _quartic_turning_point(k, lam, energy)
    t_end = round(_quartic_time_to(k, lam, energy, EQ_REACH * q_turn), 6)
    r = round(EQ_RANGE * q_turn, 6)
    doc = {
        "name": name,
        "coords": ["q"],
        "momenta": ["p"],
        "hamiltonian": f"0.5*(p^2+{k!r}*q^2)+{lam!r}*q^4",
        "energy": energy,
        "seed": int(rng.integers(0, 2**31)),
        "z0": {"q": [0.0], "p": [p0]},
        "t_end": t_end,
        "dt": t_end / samples,
        "complete_solution": {"method": "quadrature", "q_range": [-r, r],
                              "branch": 1, "param": "a1", "n_quad": 200},
    }

    def alpha_is_energy(out_dir):
        rows = _read_csv(out_dir, name, "equilibrium.csv")
        if rows.shape[0] != samples + 1:
            return f"equilibrium.csv has {rows.shape[0]} rows"
        dev = float(np.max(np.abs(rows[:, 1] - energy)))
        if not dev <= EQ_TOL * max(1.0, energy):
            return f"alpha differs from the energy {energy} by {dev:.3e}"
        return None

    return Job("equilibrium", doc, _all_of(
        _report_passes(name, "equilibrium.json"), alpha_is_energy),
        tol=EQ_TOL)


def _heavy_top_job(rng, name):
    doc = {
        "name": name,
        "coords": ["theta", "phi", "psi"],
        "momenta": ["ptheta", "pphi", "ppsi"],
        "hamiltonian": HEAVY_TOP_H,
        "seed": int(rng.integers(0, 2**31)),
        "solve": {"range": [math.pi / 6, 5 * math.pi / 6],
                  "energy": _u(rng, 3.0, 4.0), "branch": 1, "n_nodes": 2001,
                  "cyclic": ["phi", "psi"],
                  "beta": [_u(rng, 0.1, 0.4), _u(rng, 0.1, 0.4)]},
    }

    def cyclic_mode(out_dir):
        rep = _read_json(out_dir, name, "verify.json")
        if rep.get("mode") != "cyclic":
            return f"verify mode is {rep.get('mode')!r}"
        return None

    return Job("verify", doc, _all_of(_report_passes(name, "verify.json"),
                                      cyclic_mode))


def quadrature_block(rng, b):
    tag = f"q{b:03d}"
    # Four cheap verify jobs per equilibrium job put the median job in
    # the middle of the verify jobs and the tail in the middle of the
    # equilibrium jobs.
    return [_heavy_top_job(rng, f"{tag}_top0"),
            _heavy_top_job(rng, f"{tag}_top1"),
            _equilibrium_job(rng, f"{tag}_eq", EQ_SAMPLES[b % len(EQ_SAMPLES)]),
            _heavy_top_job(rng, f"{tag}_top2"),
            _heavy_top_job(rng, f"{tag}_top3")]


# ---------------------------------------------------------------------------
# pipeline: two-body inverse-square systems, reduce -> solve-hj -> verify
# -> reconstruct.  The reduced hamiltonian is p^2 + g/y^2 with y = q1 - q2.
# solve-hj runs as a resolution sweep over seven table sizes.  With ten
# jobs per system the median job is a mid-sized table build: a short,
# purely interpreted job.  The sweep is dense, and block b scales it by
# PIPE_SCALE[b % 5], so that many table builds of nearby sizes, spread
# over the whole list, lie near the median: the median then follows the
# machine's speed over the run rather than during a few jobs, and moves
# smoothly (see EQ_SAMPLES).

PIPE_T_END = 1.0
PIPE_NODES = 2001                     # verify and reconstruct solve on this
PIPE_SWEEP = (2001, 4001, 6001, 8001, 10001, 12001, 16001)
PIPE_SCALE = (0.8, 0.9, 1.0, 1.1, 1.2)


def _closed_form_w(energy, g, y):
    """An antiderivative of sqrt(E - g/y^2) for y > sqrt(g/E)."""
    s = np.sqrt(energy * y * y - g)
    return s - math.sqrt(g) * np.arctan(s / math.sqrt(g))


def _table_matches(name, energy, g, n_nodes):
    def check(out_dir):
        rows = _read_csv(out_dir, name, "table.csv")
        if rows.shape[0] != n_nodes:
            return f"table.csv has {rows.shape[0]} rows"
        ys, w, dw = rows[:, 0], rows[:, 1], rows[:, 2]
        exact = np.sqrt(energy - g / ys ** 2)
        dev = float(np.max(np.abs(dw - exact) / np.maximum(1.0, exact)))
        if not dev <= 1e-10:
            return f"dW differs from sqrt(E - g/y^2) by {dev:.3e}"
        w_exact = _closed_form_w(energy, g, ys) - _closed_form_w(energy, g, ys[0])
        wdev = float(np.max(np.abs(w - w_exact)))
        if not wdev <= 1e-8:
            return f"W differs from its closed form by {wdev:.3e}"
        return None
    return _all_of(_report_passes(name, "solve.json"), check)


def pipeline_block(rng, b):
    name = f"p{b:03d}"
    g = _u(rng, 0.5, 2.0)
    energy = _u(rng, 1.5, 3.0)
    lo = round(1.5 * math.sqrt(g / energy), 6)
    y0 = _u(rng, lo + 0.2, lo + 1.0)
    hi = round(y0 + 2.2 * math.sqrt(energy) * PIPE_T_END + 0.5, 6)
    doc = {
        "name": name,
        "coords": ["q1", "q2"],
        "momenta": ["p1", "p2"],
        "hamiltonian": f"0.5*(p1^2+p2^2)+{g!r}/(q1-q2)^2",
        "action": [[1, 1]],
        "mu": [0],
        "energy": energy,
        "seed": int(rng.integers(0, 2**31)),
        "solve": {"range": [lo, hi], "branch": 1, "n_nodes": PIPE_NODES},
        "verify": {"grid": {"y": [[lo, hi]], "x": [[-2, 2]],
                            "counts": [50, 50]}},
        "reconstruct": {"y0": [y0], "t_end": PIPE_T_END, "dt": 0.001},
    }
    sweep = []
    scale = PIPE_SCALE[b % len(PIPE_SCALE)]
    for base in PIPE_SWEEP:
        n_nodes = 2 * round(scale * (base - 1) / 2) + 1
        table = json.loads(json.dumps(doc))
        table["name"] = f"{name}_n{n_nodes}"
        table["solve"]["n_nodes"] = n_nodes
        sweep.append(Job("solve-hj", table, _table_matches(
            table["name"], energy, g, n_nodes)))

    def reduced_chart(out_dir):
        red = _read_json(out_dir, name, "reduced.json")
        if red.get("coords") != ["q"] or red["chart"]["y_block"] != [[1.0, -1.0]]:
            return f"unexpected quotient chart {red.get('chart')}"
        return None

    def grid_size(out_dir):
        rep = _read_json(out_dir, name, "verify.json")
        if rep.get("grid_points") != 2500 or rep.get("mode") != "reduction":
            return f"verify ran {rep.get('grid_points')} points in mode {rep.get('mode')}"
        return None

    return [
        Job("reduce", doc, reduced_chart),
        *sweep,
        Job("verify", doc, _all_of(_report_passes(name, "verify.json"),
                                   grid_size)),
        Job("reconstruct", doc, _report_passes(name, "reconstruct.json")),
    ]


# ---------------------------------------------------------------------------
# many-body: N-particle inverse-square (Calogero-Moser) systems with
# distinct random couplings on every pair of every job.  Seven sizes and
# three commands make 21 job kinds; with an odd number of kinds the
# median job lies inside one kind rather than between two.

MB_SIZES = (6, 7, 8, 10, 12, 14, 16)
MB_SPACING = 1.5
MB_T_END = 0.5
MB_DT = 0.01
MB_TAU = 0.01
MB_STEPS = 20


def _many_body_doc(rng, name, n):
    qs = [f"q{i + 1}" for i in range(n)]
    ps = [f"p{i + 1}" for i in range(n)]
    bs = [f"b{i + 1}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    gs = [_u(rng, 0.05, 0.2) for _ in pairs]
    pot = "+".join(f"{g!r}/({qs[i]}-{qs[j]})^2" for g, (i, j) in zip(gs, pairs))
    q0 = [round(MB_SPACING * (i - 0.5 * (n - 1)) + _u(rng, -0.2, 0.2), 6)
          for i in range(n)]
    p0 = [_u(rng, -0.3, 0.3) for _ in range(n)]
    doc = {
        "name": name,
        "coords": qs,
        "momenta": ps,
        "hamiltonian": "0.5*(" + "+".join(f"{p}^2" for p in ps) + ")+" + pot,
        "action": [[1] * n],
        "mu": [0],
        "seed": int(rng.integers(0, 2**31)),
        "z0": {"q": q0, "p": p0},
        "t_end": MB_T_END,
        "dt": MB_DT,
        "integrator": {
            "kind": "typeII",
            "s": ("+".join(f"{q}*{b}" for q, b in zip(qs, bs))
                  + "+t*(0.5*(" + "+".join(f"{b}^2" for b in bs) + ")+"
                  + pot + ")"),
            "params": bs, "tau": MB_TAU, "n_steps": MB_STEPS},
    }
    qa = np.array(q0)
    energy = 0.5 * float(np.dot(p0, p0)) + sum(
        g / (qa[i] - qa[j]) ** 2 for g, (i, j) in zip(gs, pairs))
    return doc, energy


def many_body_block(rng, b):
    jobs = []
    for n in MB_SIZES:
        tag = f"m{b:03d}_n{n:02d}"
        doc, _ = _many_body_doc(rng, f"{tag}_red", n)

        def reduced_dim(out_dir, name=doc["name"], n=n):
            red = _read_json(out_dir, name, "reduced.json")
            if len(red.get("coords", ())) != n - 1:
                return f"reduced system has {len(red.get('coords', ()))} coordinates"
            return None
        jobs.append(Job("reduce", doc, reduced_dim))

        doc, energy = _many_body_doc(rng, f"{tag}_sim", n)

        def energy_matches(out_dir, name=doc["name"], energy=energy):
            rep = _read_json(out_dir, name, "simulate.json")
            dev = abs(rep["energy_initial"] - energy)
            if not dev <= 1e-12 * max(1.0, abs(energy)):
                return f"initial energy differs from closed form by {dev:.3e}"
            if not rep["max_energy_drift"] <= 1e-6:
                return f"RK4 energy drift {rep['max_energy_drift']:.3e}"
            if rep["samples"] != round(MB_T_END / MB_DT) + 1:
                return f"simulate produced {rep['samples']} samples"
            return None
        jobs.append(Job("simulate", doc, energy_matches))

        doc, _ = _many_body_doc(rng, f"{tag}_int", n)

        def momentum_held(out_dir, name=doc["name"]):
            rep = _read_json(out_dir, name, "scheme.json")
            drift = rep.get("max_momentum_drift")
            if drift is None or not drift <= 1e-10:
                return f"total momentum drifted by {drift}"
            return None
        jobs.append(Job("integrate", doc, _all_of(
            _report_passes(doc["name"], "scheme.json"), momentum_held)))
    return jobs


# ---------------------------------------------------------------------------

# name -> (block generator, blocks per 10 s of --seconds).  At the
# default 10 s the lists took 17-23, 20-25 and 26-33 s of job time on a
# 2-vCPU Xeon virtual machine whose speed varies with the host's load.
# Many-body job kinds near its median lie close together; six blocks
# give six samples of each.
WORKLOADS = {
    "quadrature": (quadrature_block, 20),
    "pipeline": (pipeline_block, 5),
    "many-body": (many_body_block, 6),
}


def make_jobs(workload, seed, seconds):
    """The job list: whole blocks, in proportion to ``seconds``."""
    block, per_10s = WORKLOADS[workload]
    jobs = []
    for b in range(max(1, round(seconds * per_10s / 10))):
        jobs.extend(block(np.random.default_rng([seed, b]), b))
    return jobs


def write_scenarios(jobs, directory):
    """Write each distinct scenario once; returns the path of every job's."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = directory / f"{job.name}.json"
        if not path.exists():
            path.write_text(json.dumps(job.doc, indent=1), encoding="utf-8")
        paths.append(path)
    return paths
