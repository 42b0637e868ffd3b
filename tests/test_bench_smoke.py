"""Smoke test of the benchmark's job generators and output checks.

Runs the smallest jobs of block 0 of each workload in ``bench/`` through
``hjreduce.cli.main``, as ``bench/run.py`` does, and requires each to
exit 0 and pass the check its generator attached.
"""

import sys
from pathlib import Path

import pytest

from hjreduce import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

SEED = 1


def _smallest_jobs():
    quadrature = workloads.make_jobs("quadrature", SEED, 1)
    pipeline = workloads.make_jobs("pipeline", SEED, 1)
    many_body = workloads.make_jobs("many-body", SEED, 1)
    tables = [j for j in pipeline
              if j.cmd == "solve-hj" and j.name.startswith("p000_")]
    return [
        next(j for j in quadrature if j.cmd == "verify"),
        next(j for j in quadrature if j.cmd == "equilibrium"),
        next(j for j in pipeline if j.cmd == "reduce"),
        min(tables, key=lambda j: j.doc["solve"]["n_nodes"]),
        *(j for j in many_body if j.name.startswith("m000_n06_")),
    ]


JOBS = _smallest_jobs()


@pytest.mark.parametrize("job", JOBS, ids=[f"{j.cmd}-{j.name}" for j in JOBS])
def test_job_passes_its_check(job, tmp_path):
    [scenario] = workloads.write_scenarios([job], tmp_path / "scenarios")
    out = tmp_path / "out"
    assert cli.main(job.argv(scenario, out)) == 0
    assert job.check(out) is None
