#!/usr/bin/env python3
"""hjreduce benchmark: a seeded list of CLI jobs, run in one process.

    python3 bench/run.py --workload quadrature --seed 1 --seconds 10 --trace 0

One client, one process, closed loop: each job is one ``hjreduce.cli``
command on one generated scenario file, called in-process through
``hjreduce.cli.main(argv)``; the next job starts when the previous one
has returned and its outputs have been checked.  The program is imported
from ``src/`` of the checkout this file sits in, never from an installed
copy.  Workloads and their checks are in ``workloads.py``.

``--seconds`` sizes the job list: whole blocks of jobs in proportion to
it (see ``workloads.WORKLOADS`` for how long the lists take).  The list
depends on the seed and on ``--seconds`` only, so a faster program
finishes the same list sooner.

Times are ``time.perf_counter`` seconds as measured, never rescaled.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median of eight timings of ``import hjreduce.cli``
  (numpy, jsonschema, the schema validator), each in a fresh
  interpreter, taken at points spread over the job list;
* ``wall_s``: summed job time of the list;
* ``job_p50_s`` and ``job_tail_s``: median job time, and the highest
  percentile that has at least ten jobs beyond it;
* ``peak_rss_mb``: peak resident set of this process;
* ``ok_frac``: jobs that exited 0 and passed every check, over jobs
  attempted (the share of failures could read 0, and a metric must not).

With ``--trace 1`` it first runs the same list untraced in a child
process (for the tracing overhead), then traced in this process, and
reports the per-layer metrics (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scenarios, the
trace and a full result record (with Python and numpy versions and the
CPU count) go under ``.bench_work/``; job outputs are deleted once
checked.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# The keys of workloads.WORKLOADS; that module imports numpy, which must
# not load before the timed import of the program.
WORKLOAD_NAMES = ("quadrature", "pipeline", "many-body")

SETUP_SAMPLES = 8
IMPORT_TIMER = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t0 = time.perf_counter()\n"
                "import hjreduce.cli\n"
                "print(repr(time.perf_counter() - t0))\n")
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import hjreduce.cli from this checkout."""
    if not (SRC / "hjreduce" / "cli.py").is_file():
        raise BenchError(f"no hjreduce sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hjreduce.cli as cli
    origin = Path(cli.__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"hjreduce was imported from {origin}, not {SRC}")
    return cli


def import_in_child():
    """Seconds to import hjreduce.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"timed import failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def tail_index(n):
    """Index into sorted job times of the highest percentile with at least
    ``TAIL_BEYOND`` jobs beyond it; the maximum for lists too short for
    that percentile to lie above the median."""
    return n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1


def run_jobs(cli, jobs, paths, work, tracer=None, on_job=None):
    """Run every job in order; returns (per-job records, setup samples).

    Untraced runs also take ``SETUP_SAMPLES`` import samples in fresh
    interpreters, at points spread evenly over the list and outside the
    timed jobs.
    """
    n = len(jobs)
    import_after = [max(1, round(k * n / SETUP_SAMPLES))
                    for k in range(1, SETUP_SAMPLES + 1)]
    setup = []
    records = []
    gc.collect()
    for i, (job, path) in enumerate(zip(jobs, paths)):
        out = work / "out" / f"j{i:03d}"
        argv = job.argv(path, out)
        sink = io.StringIO()
        if tracer is not None:
            tracer.begin_job(i, job.cmd)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = cli.main(argv)
            crash = None
        except Exception:
            rc, crash = None, traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        if crash is not None:
            error = f"raised: {crash.strip().splitlines()[-1]}"
        elif rc != 0:
            lines = sink.getvalue().strip().splitlines()
            error = f"exit code {rc}: {lines[-1] if lines else ''}"
        else:
            try:
                error = job.check(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                error = f"output check could not read the outputs: {e!r}"
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) \
            if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)
        if on_job is not None:
            on_job(i)
        if tracer is None:
            setup.extend(import_in_child()
                         for _ in range(import_after.count(i + 1)))
        gc.collect()
        records.append({"job": i, "cmd": job.cmd, "scenario": job.name,
                        "seconds": elapsed, "error": error,
                        "bytes_written": written})
    return records, setup


def end_to_end(records, setup):
    times = [r["seconds"] for r in records]
    n = len(times)
    ok = sum(1 for r in records if r["error"] is None)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (sorted(times)[tail_index(n)], "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_frac": (ok / n, "ratio"),
    }
    notes = {"jobs": n,
             "tail_percentile": round(100.0 * (tail_index(n) + 1) / n, 2),
             "setup_samples": [round(x, 4) for x in setup]}
    return metrics, notes


def traced_run(cli, jobs, paths, work, argv_child):
    """Untraced reference in a child, then the traced run here."""
    from tracer import Tracer, node_counts
    from hjreduce.expr import Expr, parse

    child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            *argv_child, "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise BenchError(f"untraced reference run failed: {child.stderr.strip()}")
    untraced_wall = json.loads(child.stdout.strip().splitlines()[-1])[
        "metrics"]["wall_s"]["value"]

    tracer = Tracer()
    deriv = {"tree": 0, "unique": 0}

    def count_derivatives(_):
        tree, unique = node_counts(tracer.take_derivatives(), Expr)
        deriv["tree"] += tree
        deriv["unique"] += unique

    tracer.install()
    try:
        records, _ = run_jobs(cli, jobs, paths, work, tracer=tracer,
                              on_job=count_derivatives)
    finally:
        tracer.uninstall()

    h_nodes = sum(node_counts([parse(job.doc["hamiltonian"])], Expr)[0]
                  for job in jobs)
    totals = tracer.totals()

    def calls(key):
        return float(totals.get(key, (0, 0.0))[0])

    wall = sum(r["seconds"] for r in records)

    def secs(key):
        return totals.get(key, (0, 0.0))[1]

    ri_calls = calls("hj.running_integral")
    metrics = {f"{layer}.self_s": (t, "s")
               for layer, t in tracer.self_s.items()}
    metrics.update({
        "hj.root_solve.calls": (calls("hj.root_solve"), "count"),
        "hj.root_solve.s": (secs("hj.root_solve"), "s"),
        "hj.running_integral.calls": (ri_calls, "count"),
        "hj.running_integral.s": (secs("hj.running_integral"), "s"),
        "hj.root_solves_per_integral": (
            tracer.nested_calls / ri_calls if ri_calls else 0.0, "ratio"),
        "hj.solve_reduced_1d.s": (secs("hj.solve_reduced_1d"), "s"),
        "hj.grid_sweep.s": (secs("hj.grid_sweep"), "s"),
        "hj.table_nodes": (float(tracer.table_nodes), "count"),
        "expr.evaluate.calls": (calls("expr.evaluate"), "count"),
        "expr.evaluate.s": (secs("expr.evaluate"), "s"),
        "expr.differentiate.calls": (calls("expr.differentiate"), "count"),
        "expr.differentiate.s": (secs("expr.differentiate"), "s"),
        "expr.parse.s": (secs("expr.parse"), "s"),
        "expr.substitute.s": (secs("expr.substitute"), "s"),
        "expr.h_nodes": (float(h_nodes), "count"),
        "expr.deriv_nodes": (float(deriv["tree"]), "count"),
        "expr.deriv_unique_nodes": (float(deriv["unique"]), "count"),
        "reconstruction.lift_report.s": (secs("reconstruction.lift_report"), "s"),
        "reconstruction.reconstruct_trajectory.s": (
            secs("reconstruction.reconstruct_trajectory"), "s"),
        "reconstruction.integrate_projected.s": (
            secs("reconstruction.integrate_projected"), "s"),
        "phase_space.flow_reference.s": (secs("phase_space.flow_reference"), "s"),
        "phase_space.vector_field.calls": (calls("phase_space.vector_field"), "count"),
        "integrators.map_step.calls": (calls("integrators.map_step"), "count"),
        "integrators.map_step.s": (secs("integrators.map_step"), "s"),
        "integrators.map_jacobian.calls": (calls("integrators.map_jacobian"), "count"),
        "integrators.transform_to_equilibrium.s": (
            secs("integrators.transform_to_equilibrium"), "s"),
        "symmetry.invariance_report.s": (secs("symmetry.invariance_report"), "s"),
        "reduction.reduced_hamiltonian.s": (secs("reduction.reduced_hamiltonian"), "s"),
        "cli.load_scenario.s": (secs("cli.load_scenario"), "s"),
        "cli.build_system.s": (secs("cli.build_system"), "s"),
        "cli.bytes_written": (float(sum(r["bytes_written"] for r in records)), "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
    })
    trace = {"spans": tracer.spans,
             "aggregates": {label: {k: {"calls": c, "outer_s": s}
                                    for k, (c, s) in per_key.items()}
                            for label, per_key in tracer.aggregates.items()},
             "untraced_wall_s": untraced_wall}
    return records, metrics, trace


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = import_program()
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    from workloads import make_jobs, write_scenarios

    work = WORK / f"{args.workload}-s{args.seed}-n{args.seconds}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = make_jobs(args.workload, args.seed, args.seconds)
    paths = write_scenarios(jobs, work / "scenarios")
    env = environment()
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
    try:
        if args.trace:
            records, metrics, trace = traced_run(cli, jobs, paths, work, child_args)
            notes = {"jobs": len(records)}
            with open(work / "trace.json", "w", encoding="utf-8") as f:
                json.dump(trace, f)
        else:
            records, setup = run_jobs(cli, jobs, paths, work)
            metrics, notes = end_to_end(records, setup)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    failures = [r for r in records if r["error"] is not None]
    for r in failures:
        print(f"FAIL job {r['job']} {r['cmd']} {r['scenario']}: {r['error']}",
              file=sys.stderr)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "jobs": records}
    with open(work / "result.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {env['machine']}")
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} jobs, "
          f"{len(failures)} failed; " + ", ".join(f"{k}={v}" for k, v in notes.items()
                                                  if k != "jobs"))
    for k, (v, u) in metrics.items():
        print(f"  {k:42s} {v:.6g} {u}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
