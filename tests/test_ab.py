"""``tools/ab.py``'s pairing, summary and record on canned runs."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab  # noqa: E402

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.24},
              {"name": "ok_frac", "better": "higher", "bound": 0.01}]


def run(wall, ok=1.0):
    return {"wall_s": wall, "ok_frac": ok, "failed": 0}


PAIRS = [
    {"parent": run(2.0), "change": run(1.9), "first": "parent"},
    {"parent": run(2.2), "change": run(2.2), "first": "change"},
    {"parent": run(2.4), "change": run(2.6, 0.9), "first": "parent"},
    {"parent": run(2.0), "change": run(1.8), "first": "change"},
]


def test_odd_pairs_run_the_parent_first():
    calls = []

    def side(name):
        calls.append(name)
        return run(float(len(calls)))

    pairs = ab.run_pairs(side, 3)
    assert calls == ["parent", "change", "change", "parent",
                     "parent", "change"]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    assert [(p["parent"]["wall_s"], p["change"]["wall_s"]) for p in pairs] \
        == [(1.0, 2.0), (4.0, 3.0), (5.0, 6.0)]


def test_summary_of_canned_runs():
    summary = ab.summarize(PAIRS, END_TO_END)
    wall = summary["wall_s"]
    # parent 2.0, 2.0, 2.2, 2.4 and change 1.8, 1.9, 2.2, 2.6; the tie
    # (pair 2) counts for neither side
    assert wall["parent_median"] == pytest.approx(2.1)
    assert wall["parent_quartiles"] == pytest.approx([2.0, 2.35])
    assert wall["change_median"] == pytest.approx(2.05)
    assert wall["change_quartiles"] == pytest.approx([1.825, 2.5])
    assert wall["ratio_median"] == pytest.approx(0.975)
    assert wall["change_better_in"] == "2/4"
    assert wall["parent_iqr_frac"] == pytest.approx(0.35 / 2.1)
    assert wall["change_iqr_frac"] == pytest.approx(0.675 / 2.1)
    # higher is better: the lower ok_frac of pair 3 is a loss, not a win
    assert summary["ok_frac"]["change_better_in"] == "0/4"
    assert ab.report_lines(summary) == [
        "metric       parent median [q1, q3]             "
        "change median [q1, q3]               ratio   wins "
        "parent iqr change iqr  bound verdict",
        "wall_s       2.1 [2, 2.35]                      "
        "2.05 [1.825, 2.5]                   0.9750    2/4 "
        "    0.1667     0.3214   0.24 unresolved",
        "ok_frac      1 [1, 1]                           "
        "1 [0.925, 1]                        1.0000    0/4 "
        "    0.0000     0.0750   0.01 unresolved",
    ]


@pytest.mark.parametrize("parent, change, ok, verdicts", [
    # the median 2.6 is 0.6 above 2.0, beyond 0.24 * 2.0
    ([2.0, 2.0, 2.0, 2.0], [2.6, 2.6, 2.6, 2.6], 1.0, ("worse", "held")),
    # higher is better: ok_frac 0.9 is 0.1 below 1.0, beyond 0.01
    ([2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0], 0.9, ("held", "worse")),
    # the parent's interquartile range is 2.0 / 3.2 of its median
    ([2.0, 2.8, 3.6, 4.4], [2.2, 3.0, 3.4, 4.0], 1.0,
     ("unresolved", "held")),
    # as wide, but every change run beats every parent run
    ([2.0, 2.8, 3.6, 4.4], [1.0, 1.2, 1.4, 1.9], 1.0, ("held", "held")),
    # within the bound and both spreads at most the bound
    ([2.0, 2.1, 2.2, 2.3], [2.2, 2.3, 2.4, 2.5], 1.0, ("held", "held")),
])
def test_verdict_per_metric(parent, change, ok, verdicts):
    pairs = [{"parent": run(p), "change": run(c, ok), "first": "parent"}
             for p, c in zip(parent, change)]
    summary = ab.summarize(pairs, END_TO_END)
    assert (summary["wall_s"]["verdict"],
            summary["ok_frac"]["verdict"]) == verdicts
    assert ab.report_lines(summary)[1].endswith(" " + verdicts[0])


def test_record_collects_workloads_of_one_revision(tmp_path):
    path = tmp_path / "BENCH_x.json"
    summary = ab.summarize(PAIRS, END_TO_END)
    for workload in ("quadrature", "pipeline"):
        ab.record(path, "x", "abc", "cmd", "env", workload, PAIRS, summary)
    doc = json.loads(path.read_text())
    assert sorted(doc["rounds"]) == ["pipeline", "quadrature"]
    assert doc["rounds"]["pipeline"] == [
        {"command": "cmd", "machine": "env", "pairs": PAIRS,
         "summary": summary}]
    assert (doc["label"], doc["parent_commit"]) == ("x", "abc")
    # a re-run of a recorded workload is another round; the first stays
    recheck = ab.summarize(PAIRS[:2], END_TO_END)
    ab.record(path, "x", "abc", "cmd", "env2", "quadrature", PAIRS[:2],
              recheck)
    rounds = json.loads(path.read_text())["rounds"]["quadrature"]
    assert [(r["machine"], r["pairs"], r["summary"]) for r in rounds] == [
        ("env", PAIRS, summary), ("env2", PAIRS[:2], recheck)]
    with pytest.raises(ab.ABError, match="holds runs against abc, not def"):
        ab.record(path, "x", "def", "cmd", "env", "many-body", PAIRS, summary)


def test_every_workload_in_one_command(tmp_path, monkeypatch, capsys):
    """Without --workload each workload of BENCHMARK.json runs its pairs in
    the listed order against one export; --workload narrows the run."""
    bench = {"command": ["python3", "bench/run.py"], "run_seconds": 3,
             "workloads": [{"name": w} for w in ("quadrature", "pipeline",
                                                  "many-body")],
             "end_to_end": END_TO_END}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    exports, calls = [], []

    def export(rev, dest):
        exports.append(rev)
        return "f" * 40

    def run_once(root, argv):
        side = "change" if root == tmp_path else "parent"
        workload = argv[argv.index("--workload") + 1]
        calls.append((workload, side))
        wall = len(calls) + (0.5 if side == "change" else 0.0)
        return {"wall_s": wall, "ok_frac": 1.0}, 0, f"env: {workload}"

    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main(["HEAD", "--pairs", "2", "--label", "all"]) == 0
    assert exports == ["HEAD"]
    assert calls == [(w, side) for w in ("quadrature", "pipeline", "many-body")
                     for side in ("parent", "change", "change", "parent")]
    out = capsys.readouterr().out.splitlines()
    heads = [line for line in out if " pairs: " in line]
    assert heads == [f"{w}, 2 pairs: ffffffffffff (parent) against the "
                     "working tree (change)"
                     for w in ("quadrature", "pipeline", "many-body")]
    doc = json.loads((tmp_path / "BENCH_all.json").read_text())
    assert list(doc["rounds"]) == ["many-body", "pipeline", "quadrature"]
    for w, rounds in doc["rounds"].items():
        assert len(rounds) == 1 and rounds[0]["machine"] == f"env: {w}"
        assert [p["first"] for p in rounds[0]["pairs"]] == ["parent",
                                                            "change"]
    many_body = doc["rounds"]["many-body"][0]["pairs"]
    assert [(p["parent"]["wall_s"], p["change"]["wall_s"])
            for p in many_body] == [(9.0, 10.5), (12.0, 11.5)]
    calls.clear()
    assert ab.main(["HEAD", "--pairs", "1", "--workload", "pipeline"]) == 0
    assert calls == [("pipeline", "parent"), ("pipeline", "change")]


@pytest.mark.skipif(not (ab.ROOT / ".git").exists(),
                    reason="needs a git checkout to export from")
def test_export_writes_the_committed_files(tmp_path):
    # a real archive of this checkout's HEAD, extracted without the
    # warning that an unfiltered extraction gives on Python 3.12+
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        commit = ab.export("HEAD", tmp_path)
    path = "tools/ab.py"
    committed = subprocess.run(["git", "show", f"HEAD:{path}"], cwd=ab.ROOT,
                               capture_output=True, check=True).stdout
    assert (tmp_path / path).read_bytes() == committed
    assert commit == subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ab.ROOT, capture_output=True,
        text=True, check=True).stdout.strip()


def tree(root, files):
    """``files`` (relative path: bytes) written under ``root/src``."""
    for rel, data in files.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_src_hash_names_the_tree(tmp_path):
    files = {"pkg/a.py": b"x = 1\n", "pkg/b.json": b"{}"}
    one = ab.src_hash(tree(tmp_path / "one", files))
    assert ab.src_hash(tree(tmp_path / "same", files)) == one
    assert ab.src_hash(tree(tmp_path / "bytes",
                            {**files, "pkg/a.py": b"x = 2\n"})) != one
    renamed = {"pkg/c.py": files["pkg/a.py"], "pkg/b.json": files["pkg/b.json"]}
    assert ab.src_hash(tree(tmp_path / "renamed", renamed)) != one
    # compiled caches are not part of the tree
    tree(tmp_path / "same", {"pkg/__pycache__/a.cpython-311.pyc": b"\0"})
    assert ab.src_hash(tmp_path / "same") == one


def test_each_round_records_the_measured_tree(tmp_path, monkeypatch, capsys):
    bench = {"command": ["python3", "bench/run.py"], "run_seconds": 3,
             "workloads": [{"name": "pipeline"}], "end_to_end": END_TO_END}
    (tree(tmp_path, {"pkg/a.py": b"x = 1\n"}) / "BENCHMARK.json").write_text(
        json.dumps(bench))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "export", lambda rev, dest: "f" * 40)
    monkeypatch.setattr(ab, "run_once", lambda root, argv: (
        {"wall_s": 2.0, "ok_frac": 1.0}, 0, "env: x"))
    assert ab.main(["HEAD", "--pairs", "1", "--label", "src"]) == 0
    digest = ab.src_hash(tmp_path)
    assert f"change src/ sha256 {digest}" in capsys.readouterr().out
    doc = json.loads((tmp_path / "BENCH_src.json").read_text())
    assert doc["rounds"]["pipeline"][0]["change_src"] == digest
