"""``tools/output_digest.py --compare`` on two small kept directories."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import output_digest  # noqa: E402


def kept(root, index, label, rc, stdout, stderr, files):
    """One run as ``--keep`` writes it."""
    run = root / str(index)
    (run / "out").mkdir(parents=True)
    for name, text in (("label", label), ("exit", str(rc)),
                       ("stdout", stdout), ("stderr", stderr)):
        (run / name).write_text(text, encoding="utf-8")
    for name, text in files.items():
        (run / "out" / name).write_text(text, encoding="utf-8")


def report(residual, values, note="ok"):
    return json.dumps({"residual": residual, "rows": [{"v": v} for v in values],
                       "note": note, "n": 3})


def test_compare_prints_each_difference(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    one = 1.0
    up = math.nextafter(math.nextafter(one, 2.0), 2.0)  # 2 ulp above 1
    csv_a = "t,q1\n0,1\n0.5,0.25\n"
    csv_b = "t,q1\n0,1\n0.5,0.25000000000000006\n"  # 1 ulp
    kept(a, 0, "solve-hj s tol=default", 0, "PASS\n", "",
         {"s_solve.json": report(1e-16, [one, 2.0]), "s_table.csv": csv_a})
    kept(b, 0, "solve-hj s tol=default", 0, "PASS\n", "",
         {"s_solve.json": report(1e-16, [up, 2.0]), "s_table.csv": csv_b})
    kept(a, 1, "verify s tol=1e-30", 1, "FAIL\n", "residual failure\n",
         {"s_verify.json": report(0.5, [], note="x")})
    kept(b, 1, "verify s tol=1e-30", 3, "", "numeric failure\n",
         {"s_verify.json": report(0.25, [], note="y")})
    kept(a, 2, "reduce s tol=default", 0, "", "", {"s.json": "{}"})
    kept(b, 2, "reduce s tol=default", 0, "", "", {"s.json": "{}"})
    output_digest.compare(a, b)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "0 solve-hj s tol=default s_solve.json $.rows[*].v: "
        "max |change| 4.44e-16, max ulp 2",
        "0 solve-hj s tol=default s_table.csv q1: "
        "max |change| 5.55e-17, max ulp 1",
        "1 verify s tol=1e-30: exit 1 -> 3",
        "1 verify s tol=1e-30: stdout differs",
        "1 verify s tol=1e-30: stderr differs",
        "1 verify s tol=1e-30 s_verify.json $.residual: "
        "max |change| 0.25, max ulp 4503599627370496",
        "1 verify s tol=1e-30 s_verify.json $.note: not comparable",
        "largest change per command and field:",
        "  solve-hj .csv q1: max |change| 5.55e-17, max ulp 1",
        "  solve-hj .json $.rows[*].v: max |change| 4.44e-16, max ulp 2",
        "  verify .json $.note: not comparable",
        "  verify .json $.residual: max |change| 0.25, max ulp 4503599627370496",
        "runs that differ: 2 of 3",
    ]


def test_identical_runs_print_only_the_count(tmp_path, capsys):
    for side in ("a", "b"):
        kept(tmp_path / side, 0, "reduce s tol=default", 0, "x\n", "",
             {"s.json": report(0.0, [-0.0, 1.5])})
    output_digest.compare(tmp_path / "a", tmp_path / "b")
    assert capsys.readouterr().out == "runs that differ: 0 of 1\n"


def test_runs_that_differ_in_bytes_alone_are_counted(tmp_path, capsys):
    # equal as numbers, so no field is listed; and a run only in one tree
    for side, zero in (("a", 0.0), ("b", -0.0)):
        kept(tmp_path / side, 0, "reduce s tol=default", 0, "", "",
             {"s.json": report(zero, [1.5])})
    kept(tmp_path / "b", 1, "verify s tol=default", 0, "", "", {})
    output_digest.compare(tmp_path / "a", tmp_path / "b")
    assert capsys.readouterr().out.splitlines() == [
        "0 reduce s tol=default: s.json differs in bytes only",
        f"1: only in {tmp_path / 'b'}",
        "runs that differ: 2 of 2",
    ]


@pytest.mark.parametrize("content", ["file", "dir"])
def test_keep_refuses_a_non_empty_directory(tmp_path, capsys, content):
    keep = tmp_path / "keep"
    if content == "file":
        keep.write_text("x")
    else:
        (keep / "0").mkdir(parents=True)
    assert output_digest.main(["--keep", str(keep)]) == 2
    assert capsys.readouterr() == (
        "", f"--keep: {keep} exists and is not an empty directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["keep"]


def test_ulp_distance_crosses_zero():
    tiny = math.ulp(0.0)
    assert output_digest._ordered(-0.0) == output_digest._ordered(0.0) == 0
    assert output_digest._ordered(tiny) - output_digest._ordered(-tiny) == 2


def test_keep_holds_what_the_digest_hashes(tmp_path):
    keep = tmp_path / "0"
    keep.mkdir()
    line = output_digest.digest_run(["reduce", "calogero", "--out", "out"],
                                    keep=keep)
    assert (keep / "exit").read_text() == "0"
    assert "check=" not in line  # a bundled run has no job check
    files = sorted(p.name for p in (keep / "out").iterdir())
    assert files and all(f"{name}=" in line for name in files)
    stdout = (keep / "stdout").read_text(encoding="utf-8").encode()
    assert f"stdout={output_digest._sha(stdout)}" in line


@pytest.mark.parametrize("argv, verdict, reason", [
    pytest.param(["reduce", "calogero"], None, None, id="passes"),
    pytest.param(["reduce", "calogero"], "pass is False", "pass is False",
                 id="check-fails"),
    pytest.param(["reduce", "no_such_scenario"], None, "exit code 2",
                 id="exit-nonzero"),
])
def test_a_job_check_ends_the_line(capsys, argv, verdict, reason):
    seen = []

    def check(out_dir):
        seen.append(sorted(p.name for p in out_dir.iterdir()))
        return verdict

    line = output_digest.digest_run([*argv, "--out", "out"], check=check)
    assert line.endswith(" check=ok" if reason is None else " check=FAIL")
    err = capsys.readouterr().err
    if reason is None:
        assert err == ""
    else:
        assert err == f"check failed: {' '.join(argv)} --out out: {reason}\n"
    # the check reads the run's own outputs, and only after exit 0
    assert seen == ([] if "exit" in (reason or "") else
                    [["calogero_reduced.json"]])
