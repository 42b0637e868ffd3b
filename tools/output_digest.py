#!/usr/bin/env python3
"""Digest every output of a fixed set of CLI runs, one line per run.

    PYTHONPATH=src python tools/output_digest.py [--bench-seed N] [--keep DIR]
    PYTHONPATH=src python tools/output_digest.py --compare A B

Runs each command on each bundled scenario through ``hjreduce.cli.main``,
once at the default ``--tol`` and once at ``--tol 1e-30``.  With
``--bench-seed N`` it also runs every job of
``bench/workloads.make_jobs(workload, N, 10)`` for each workload, with
the job's own arguments, and ends each such line with ``check=ok`` when
the run exits 0 and passes the job's own output check, else with
``check=FAIL`` and the reason on stderr.  ``bench/`` is only read.

Every run starts in a new empty temporary directory with ``--out out``,
so the paths it prints do not depend on where the run happened.  A line
holds the command, the scenario, the tolerance, the exit code, and the
sha256 of stdout, of stderr and of each output file by name.  The
program under test is the ``hjreduce`` found on the import path, so two
checkouts are compared by running this file with each one's ``src`` on
``PYTHONPATH`` and diffing the outputs.  Within one checkout, two runs
diffed against each other check that outputs are byte-deterministic.

``--keep DIR`` also keeps each run's output files, stdout, stderr, exit
code and label under ``DIR/<run index>/``.  ``--compare A B`` reads two
such directories (one per checkout) and prints, for each run that
differs, its exit codes and whether stdout and stderr differ, and for
each JSON number path (list indices as ``[*]``) and CSV column that
differs, the largest absolute change and the largest distance in units
in the last place (ulp).  A last section gives the same maxima over all
runs of one command, per field, and the last line reads
``runs that differ: K of N``.  ``--keep`` refuses a DIR that exists and
is not an empty directory (exit 2), before any run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import struct
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


def digest_run(argv, scenario_doc=None, keep=None, check=None):
    """Exit code and digests of one ``cli.main(argv)`` in a fresh directory.

    ``scenario_doc``, when given, is written to ``argv[1]`` first.  With
    ``keep`` (a directory), the outputs, stdout, stderr and exit code are
    copied there.  With ``check`` (a benchmark job's output check, which
    takes the output directory and returns an error text or None), the
    line ends in ``check=ok`` or ``check=FAIL``, and a failure's reason
    goes to stderr.
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
            if check is not None:
                error = _check_error(rc, check)
                parts.append(f"check={'FAIL' if error else 'ok'}")
                if error:
                    print(f"check failed: {' '.join(argv)}: {error}",
                          file=sys.stderr)
            if keep is not None:
                (keep / "out").mkdir(parents=True)
                for p in files:
                    shutil.copyfile(p, keep / "out" / p.name)
                (keep / "stdout").write_text(out.getvalue(), encoding="utf-8")
                (keep / "stderr").write_text(err.getvalue(), encoding="utf-8")
                (keep / "exit").write_text(str(rc), encoding="utf-8")
        finally:
            os.chdir(home)
    return " ".join(parts)


def _check_error(rc, check):
    """The benchmark's verdict on one run: None, or why it failed."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return check(Path("out"))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return f"output check could not read the outputs: {e!r}"


def bundled_runs():
    for command in cli._COMMANDS:
        for scenario in SCENARIOS:
            for tol in TOLS:
                argv = [command, scenario, "--out", "out"]
                if tol is not None:
                    argv += ["--tol", tol]
                yield (f"{command} {scenario} tol={tol or 'default'}", argv,
                       None, None)


def bench_runs(seed):
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, make_jobs
    for workload in WORKLOADS:
        for job in make_jobs(workload, seed, 10):
            argv = job.argv(f"{job.name}.json", "out")
            yield (f"{job.cmd} {workload}/{job.name} tol={job.tol!r}",
                   argv, job.doc, job.check)


def _ordered(x):
    """The float's position on the integer line of doubles (ulp steps)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _json_numbers(value, path, out):
    """Append (path, number) for every number in a JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            _json_numbers(v, f"{path}.{k}", out)
    elif isinstance(value, list):
        for v in value:
            _json_numbers(v, f"{path}[*]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append((path, float(value)))
    else:
        out.append((path, value))
    return out


def _fields(path):
    """A kept output file as a list of (field, value)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return _json_numbers(json.loads(text), "$", [])
    rows = [line.split(",") for line in text.splitlines() if line]
    return [(name, float(v)) for row in rows[1:]
            for name, v in zip(rows[0], row)]


def compare_files(a, b):
    """{field: (max |change|, max ulp)} over the fields that differ.

    A field whose values are not numbers on both sides, or whose count
    of values differs, maps to None.
    """
    fa, fb = _fields(a), _fields(b)
    if [k for k, _ in fa] != [k for k, _ in fb]:
        return {"<layout>": None}
    out = {}
    for (field, x), (_, y) in zip(fa, fb):
        if x == y or (x != x and y != y):
            continue
        if not (isinstance(x, float) and isinstance(y, float)):
            out[field] = None
            continue
        seen = out.get(field, (0.0, 0))
        if seen is not None:
            out[field] = (max(seen[0], abs(x - y)),
                          max(seen[1], abs(_ordered(x) - _ordered(y))))
    return out


def _run_dirs(root):
    return {int(p.name): p for p in root.iterdir() if p.name.isdigit()}


def _change(v):
    return "not comparable" if v is None else \
        f"max |change| {v[0]:.3g}, max ulp {v[1]}"


def compare(a, b):
    """Print what differs between two ``--keep`` directories.

    The last line counts the runs whose kept bytes differ in any way.
    """
    runs_a, runs_b = _run_dirs(a), _run_dirs(b)
    runs = sorted(runs_a.keys() | runs_b.keys())
    worst, differ = {}, 0
    for i in runs:
        if i not in runs_a or i not in runs_b:
            print(f"{i}: only in {a if i in runs_a else b}")
            differ += 1
            continue
        ra, rb = runs_a[i], runs_b[i]
        label = (ra / "label").read_text(encoding="utf-8")
        same = True
        for what in ("exit", "stdout", "stderr"):
            ta, tb = ((r / what).read_text(encoding="utf-8") for r in (ra, rb))
            if ta != tb:
                same = False
                print(f"{i} {label}: {what} " + (f"{ta} -> {tb}" if what == "exit"
                                                 else "differs"))
        names_a = {p.name for p in (ra / "out").iterdir()}
        names_b = {p.name for p in (rb / "out").iterdir()}
        for name in sorted(names_a ^ names_b):
            same = False
            print(f"{i} {label}: {name} only in one run")
        for name in sorted(names_a & names_b):
            fa, fb = ra / "out" / name, rb / "out" / name
            if fa.read_bytes() == fb.read_bytes():
                continue
            same = False
            changes = compare_files(fa, fb)
            if not changes:  # e.g. 0.0 against -0.0
                print(f"{i} {label}: {name} differs in bytes only")
            for field, v in changes.items():
                print(f"{i} {label} {name} {field}: {_change(v)}")
                key = (label.split()[0], Path(name).suffix, field)
                seen = worst.get(key, (0.0, 0))
                worst[key] = None if v is None or seen is None else (
                    max(seen[0], v[0]), max(seen[1], v[1]))
        differ += not same
    if worst:
        print("largest change per command and field:")
    for (command, suffix, field), v in sorted(worst.items()):
        print(f"  {command} {suffix} {field}: {_change(v)}")
    print(f"runs that differ: {differ} of {len(runs)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench-seed", type=int, default=None,
                        help="also run every benchmark job of this seed")
    parser.add_argument("--keep", type=Path, default=None, metavar="DIR",
                        help="keep each run's outputs under DIR/<run index>/")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two --keep directories and exit")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.keep is not None and args.keep.exists() and (
            not args.keep.is_dir() or any(args.keep.iterdir())):
        print(f"--keep: {args.keep} exists and is not an empty directory",
              file=sys.stderr)
        return 2
    runs = list(bundled_runs())
    if args.bench_seed is not None:
        runs += bench_runs(args.bench_seed)
    for index, (label, run_argv, doc, check) in enumerate(runs):
        keep = None
        if args.keep is not None:
            keep = args.keep.resolve() / str(index)
            keep.mkdir(parents=True)
            (keep / "label").write_text(label, encoding="utf-8")
        print(label, digest_run(run_argv, doc, keep, check), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
