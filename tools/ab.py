#!/usr/bin/env python3
"""Paired benchmark runs of a git revision against the working tree.

    python3 tools/ab.py REV [--workload W] [--pairs 10] [--label L]

Exports REV with ``git archive`` into a temporary directory (no worktree,
no network) and runs the benchmark command of ``BENCHMARK.json``,
``python3 bench/run.py --workload W --seed 1 --seconds <run_seconds>``,
there (the parent) and in the working tree (the change).  Every run is a
fresh process; the two sides alternate, odd pairs running the parent
first.  Without ``--workload`` each workload of ``BENCHMARK.json`` takes
its turn, in the listed order, against the one export; each gets its own
pairs, printed summary and recorded round.  ``bench/`` is only run,
never changed.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (``statistics.quantiles``, exclusive method), the
median of the per-pair ratios change/parent, the pairs the change won
(better in the metric's ``better`` direction; ties count for neither),
each side's interquartile range as a fraction of the parent's median
beside the metric's ``bound``, which is a fraction of the parent's
value, and a verdict:

- ``worse`` when the change's median is worse than the parent's by
  more than ``bound`` times the parent's median;
- else ``unresolved`` when either side's interquartile fraction exceeds
  ``bound``, unless every change run beats every parent run;
- else ``held``.

With ``--label L`` it also appends a round to ``BENCH_L.json`` at the
root of the working tree.  ``rounds`` maps each workload to its list of
rounds, one per run of this command: the command and machine, each
pair's metrics and failed-job count per side and which side ran first
(``pairs``), the printed numbers (``summary``) and ``change_src``, a
sha256 over the sorted relative paths and bytes of the working tree's
``src/`` (``__pycache__`` left out), which is also printed, so a round
names the tree it measured.  One file collects every workload and every
re-run against one revision; no round is replaced.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class ABError(Exception):
    """A revision, a run or a record that the comparison cannot use."""


def _git(*args):
    r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if r.returncode != 0:
        raise ABError(f"git {' '.join(args)}: "
                      f"{r.stderr.decode(errors='replace').strip()}")
    return r.stdout


def export(rev, dest):
    """The committed files of ``rev`` under ``dest``; its full hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(dest)
    return commit


def src_hash(root):
    """sha256 over the sorted relative paths and bytes of ``root/src``."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        for part in (path.relative_to(src).as_posix().encode(),
                     path.read_bytes()):
            digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def run_once(root, argv):
    """One benchmark run in checkout ``root``: (metrics, failed, env line)."""
    r = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise ABError(f"{' '.join(argv)} in {root} exited {r.returncode}: "
                      f"{r.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    env = next((line for line in lines if line.startswith("env: ")), "")
    return metrics, result["failed"], env


def run_pairs(run_side, n):
    """``n`` pairs of ``run_side(side)``, odd pairs (from 1) parent first."""
    pairs = []
    for k in range(1, n + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        pair = {side: run_side(side) for side in order}
        pair["first"] = order[0]
        pairs.append(pair)
    return pairs


def run_workload(roots, argv_run, n):
    """``n`` pairs of ``argv_run`` in ``roots``: (pairs, env lines seen)."""
    envs = set()

    def run_side(side):
        metrics, failed, env = run_once(roots[side], argv_run)
        envs.add(env)
        print(f"{side}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        return {**metrics, "failed": failed}

    return run_pairs(run_side, n), envs


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summarize(pairs, end_to_end):
    """Per metric: medians, quartiles, ratio, wins, spreads and verdict."""
    summary = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        ratios = [c / p if p else (1.0 if c == p else float("inf"))
                  for p, c in zip(sides["parent"], sides["change"])]
        base = statistics.median(sides["parent"])
        row = {}
        for side, xs in sides.items():
            q1, q3 = _quartiles(xs)
            row[f"{side}_median"] = statistics.median(xs)
            row[f"{side}_quartiles"] = [q1, q3]
            row[f"{side}_iqr_frac"] = (q3 - q1) / base if base else 0.0
        row["ratio_median"] = statistics.median(ratios)
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(sides["parent"], sides["change"]))
        row["change_better_in"] = f"{wins}/{len(pairs)}"
        row["bound"] = bound = spec["bound"]
        if sign * (row["change_median"] - base) > bound * abs(base):
            row["verdict"] = "worse"
        elif (max(row["parent_iqr_frac"], row["change_iqr_frac"]) > bound
              and max(sign * c for c in sides["change"])
              >= min(sign * p for p in sides["parent"])):
            row["verdict"] = "unresolved"
        else:
            row["verdict"] = "held"
        summary[name] = row
    return summary


def report_lines(summary):
    """The printed table of ``summarize``'s result."""
    lines = [f"{'metric':<12} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} {'ratio':>7} {'wins':>6} "
             f"{'parent iqr':>10} {'change iqr':>10} {'bound':>6} verdict"]
    for name, row in summary.items():
        cells = [f"{row[f'{s}_median']:.6g} [{row[f'{s}_quartiles'][0]:.6g}, "
                 f"{row[f'{s}_quartiles'][1]:.6g}]" for s in SIDES]
        lines.append(
            f"{name:<12} {cells[0]:<34} {cells[1]:<34} "
            f"{row['ratio_median']:>7.4f} {row['change_better_in']:>6} "
            f"{row['parent_iqr_frac']:>10.4f} {row['change_iqr_frac']:>10.4f} "
            f"{row['bound']:>6g} {row['verdict']}")
    return lines


def record(path, label, commit, command, machine, workload, pairs, summary,
           change_src=None):
    """Append one round of ``workload`` to ``BENCH_<label>.json``."""
    doc = {"label": label, "parent_commit": commit, "rounds": {}}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("parent_commit") != commit:
            raise ABError(f"{path.name} holds runs against "
                          f"{doc.get('parent_commit')}, not {commit}")
    round_ = {"command": command, "machine": machine, "pairs": pairs,
              "summary": summary}
    if change_src is not None:
        round_["change_src"] = change_src
    doc["rounds"].setdefault(workload, []).append(round_)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision compared against")
    ap.add_argument("--workload", default=None,
                    help="only this workload (default: each in turn)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--label", default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = ([args.workload] if args.workload is not None
                 else [w["name"] for w in bench["workloads"]])
    rest = ["--seed", "1", "--seconds", str(bench["run_seconds"])]
    command = (" ".join([*bench["command"], "--workload <workload>", *rest])
               + ", parent and change alternating, odd pairs parent first, "
               "each a fresh process")
    try:
        with tempfile.TemporaryDirectory() as parent_root:
            commit = export(args.rev, parent_root)
            roots = {"parent": parent_root, "change": ROOT}
            for workload in workloads:
                change_src = src_hash(ROOT)
                pairs, envs = run_workload(
                    roots, [*bench["command"], "--workload", workload, *rest],
                    args.pairs)
                summary = summarize(pairs, bench["end_to_end"])
                print(f"{workload}, {args.pairs} pairs: "
                      f"{commit[:12]} (parent) against the working tree "
                      "(change)")
                print(f"change src/ sha256 {change_src}")
                print("\n".join(report_lines(summary)), flush=True)
                if args.label is not None:
                    record(ROOT / f"BENCH_{args.label}.json", args.label,
                           commit, command, "; ".join(sorted(envs)),
                           workload, pairs, summary, change_src)
    except ABError as e:
        print(f"ab: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
