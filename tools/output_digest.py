#!/usr/bin/env python3
"""Digest every output of a fixed set of CLI runs, one line per run.

    PYTHONPATH=src python tools/output_digest.py [--bench-seed N]

Runs each command on each bundled scenario through ``hjreduce.cli.main``,
once at the default ``--tol`` and once at ``--tol 1e-30``.  With
``--bench-seed N`` it also runs every job of
``bench/workloads.make_jobs(workload, N, 10)`` for each workload, with
the job's own arguments.  ``bench/`` is only read.

Every run starts in a new empty temporary directory with ``--out out``,
so the paths it prints do not depend on where the run happened.  A line
holds the command, the scenario, the tolerance, the exit code, and the
sha256 of stdout, of stderr and of each output file by name.  The
program under test is the ``hjreduce`` found on the import path, so two
checkouts are compared by running this file with each one's ``src`` on
``PYTHONPATH`` and diffing the outputs.  Within one checkout, two runs
diffed against each other check that outputs are byte-deterministic.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hjreduce import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCENARIOS = ("calogero", "freeparticle", "heavytop", "magnetic_synthetic",
             "oscillator")
TOLS = (None, "1e-30")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digest_run(argv, scenario_doc=None):
    """Exit code and digests of one ``cli.main(argv)`` in a fresh directory.

    ``scenario_doc``, when given, is written to ``argv[1]`` first.
    """
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if scenario_doc is not None:
                Path(argv[1]).write_text(json.dumps(scenario_doc, indent=1),
                                         encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            files = sorted(Path("out").iterdir()) if Path("out").is_dir() else []
            parts = [f"exit={rc}",
                     f"stdout={_sha(out.getvalue().encode())}",
                     f"stderr={_sha(err.getvalue().encode())}"]
            parts += [f"{p.name}={_sha(p.read_bytes())}" for p in files]
        finally:
            os.chdir(home)
    return " ".join(parts)


def bundled_runs():
    for command in cli._COMMANDS:
        for scenario in SCENARIOS:
            for tol in TOLS:
                argv = [command, scenario, "--out", "out"]
                if tol is not None:
                    argv += ["--tol", tol]
                yield f"{command} {scenario} tol={tol or 'default'}", argv, None


def bench_runs(seed):
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, make_jobs
    for workload in WORKLOADS:
        for job in make_jobs(workload, seed, 10):
            argv = job.argv(f"{job.name}.json", "out")
            yield (f"{job.cmd} {workload}/{job.name} tol={job.tol!r}",
                   argv, job.doc)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench-seed", type=int, default=None,
                        help="also run every benchmark job of this seed")
    args = parser.parse_args(argv)
    runs = list(bundled_runs())
    if args.bench_seed is not None:
        runs += bench_runs(args.bench_seed)
    for label, run_argv, doc in runs:
        print(label, digest_run(run_argv, doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
