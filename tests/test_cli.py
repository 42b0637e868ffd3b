import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hjreduce import _linalg, cli, hj
from hjreduce.cli import (SCENARIO_SCHEMA, ScenarioError, emit_trajectory,
                          load_scenario, read_trajectory)
from hjreduce.expr import DomainError
from hjreduce.phase_space import Trajectory
from hjreduce.symmetry import TranslationAction


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "hjreduce", *args],
                          capture_output=True, text=True, cwd=cwd)


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadScenario:
    def test_bundled_names(self):
        for name in ("calogero", "heavytop", "freeparticle", "oscillator",
                     "magnetic_synthetic"):
            doc = load_scenario(name)
            assert doc["name"] == name

    def test_bundled_with_extension(self):
        assert load_scenario("calogero.json")["name"] == "calogero"

    def test_missing(self):
        with pytest.raises(ScenarioError):
            load_scenario("no_such_scenario")

    def test_schema_rejects_unknown_field(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "x", "coords": ["q"],
                                         "hamiltonian": "p", "bogus": 1})
        with pytest.raises(ScenarioError) as ei:
            load_scenario(path)
        assert "bogus" in str(ei.value)

    def test_schema_rejects_bad_branch(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "x", "coords": ["q"], "hamiltonian": "0.5*p^2",
            "solve": {"range": [0, 1], "branch": 2}})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_schema_is_strict(self):
        assert SCENARIO_SCHEMA["additionalProperties"] is False


class TestTrajectoryCSV:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tr = Trajectory(np.linspace(0, 1, 7),
                        rng.normal(size=(7, 2)) * np.pi,
                        rng.normal(size=(7, 2)) / 3.0)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_trajectory(tr, str(p1))
        back = read_trajectory(str(p1))
        np.testing.assert_array_equal(back.times, tr.times)
        np.testing.assert_array_equal(back.qs, tr.qs)
        np.testing.assert_array_equal(back.ps, tr.ps)
        emit_trajectory(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header(self, tmp_path):
        tr = Trajectory([0.0, 1.0], [[1], [2]], [[3], [4]])
        path = tmp_path / "t.csv"
        emit_trajectory(tr, str(path))
        assert path.read_text().splitlines()[0] == "t,q1,p1"

    def test_text_matches_the_per_value_format(self):
        # the per-value formatter the block writer replaced is the oracle
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([-0.0, 0.0, tiny, -5e-324, 2.2250738585072014e-308,
                           1e300, -1e300, 1.0, -3.0, 2.0 ** 53, 1e16, 0.1,
                           1 / 3, np.pi, 123456789.0, 1e-5])
        rng = np.random.default_rng(3)
        columns = [np.resize(values, 2500), rng.normal(size=(2500, 2)) * 1e3]
        table = np.column_stack(columns)
        expected = "a,b,c\n" + "".join(
            ",".join(f"{float(v):.17g}" for v in row) + "\n" for row in table)
        assert cli._csv_text(["a", "b", "c"], columns) == expected
        assert cli._csv_text(["y"], [np.array([-0.0, tiny, 4.0])]) == \
            "y\n-0\n4.9406564584124654e-324\n4\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_rejected(self, bad):
        columns = [np.arange(3.0), np.array([1.0, bad, 2.0])]
        with pytest.raises(DomainError) as ei:
            cli._csv_text(["a", "b"], columns)
        assert str(ei.value) == "CSV column 'b' is not finite"

    def test_reject_malformed(self, tmp_path):
        for name, text in (("bad.csv", "a,b\n1,2\n"), ("empty.csv", "")):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError, match="not a trajectory CSV"):
                read_trajectory(str(path))


class TestExitCodes:
    def test_ok(self, tmp_path):
        r = run_cli("reduce", "calogero", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr

    def test_scenario_error(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "x", "coords": ["q"]})
        r = run_cli("simulate", path)
        assert r.returncode == 2
        assert "scenario error" in r.stderr

    def test_parse_error_in_hamiltonian(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "x", "coords": ["q"],
                                         "hamiltonian": "0.5*p^2+"})
        r = run_cli("simulate", path)
        assert r.returncode == 2

    RUNS = [
        ("solve-hj", "calogero", "solve-hj: max node residual ",
         ["calogero_table.csv", "calogero_solve.json"]),
        ("verify", "calogero", "verify[reduction]:", ["calogero_verify.json"]),
        ("reconstruct", "calogero", "reconstruct: sup dev ",
         ["calogero_reconstructed.csv", "calogero_reconstruct.json"]),
        ("integrate", "oscillator", "integrate: defect ",
         ["oscillator_scheme.csv", "oscillator_scheme.json"]),
        ("equilibrium", "oscillator", "equilibrium: max variation ",
         ["oscillator_equilibrium.csv", "oscillator_equilibrium.json"]),
        ("reduce", "calogero", "reduce: ", ["calogero_reduced.json"]),
        ("simulate", "oscillator", "simulate: ",
         ["oscillator_trajectory.csv", "oscillator_simulate.json"]),
    ]

    @pytest.mark.parametrize("command, scenario, summary, files", RUNS,
                             ids=[f"{c}-{s}" for c, s, _, _ in RUNS])
    def test_residual_failure(self, tmp_path, capsys, command, scenario,
                              summary, files):
        # a command with a verdict fails at --tol 1e-30, still writes all
        # its files and says why in one line; one without a verdict passes
        out = tmp_path / "out"
        rc = cli.main([command, scenario, "--tol", "1e-30",
                       "--out", str(out)])
        cap = capsys.readouterr()
        *wrote, last = cap.out.splitlines()
        assert wrote == [f"wrote {out / f}" for f in files]
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        assert last.startswith(summary)
        if command in ("reduce", "simulate"):
            assert (rc, cap.err) == (0, "")
            assert not last.endswith((" PASS", " FAIL"))
        else:
            assert rc == cli.EXIT_RESIDUAL == 1
            assert last.endswith(" FAIL")
            assert cap.err.startswith("residual failure: ")
            assert cap.err.count("\n") == 1 and cap.err.endswith("\n")

    def test_numeric_failure(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "turning", "coords": ["q"], "momenta": ["p"],
            "hamiltonian": "0.5*(p^2+q^2)", "energy": 0.5,
            "solve": {"range": [-2, 2], "n_nodes": 51}})
        r = run_cli("solve-hj", path, "--out", str(tmp_path))
        assert r.returncode == 3
        assert "numeric failure" in r.stderr

    def test_parser_is_built_once(self, tmp_path, capsys):
        cli._parser.cache_clear()
        for _ in range(2):
            assert cli.main(["reduce", "calogero", "--out",
                             str(tmp_path)]) == 0
        assert cli._parser.cache_info().misses == 1
        with pytest.raises(SystemExit) as ei:
            cli.main(["reduce", "calogero", "--grid", "many"])
        assert ei.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err

    def test_unknown_command(self):
        r = run_cli("frobnicate", "calogero")
        assert r.returncode == 2

    def test_non_finite_literal(self, tmp_path):
        # 1e400 would be inf; the trajectory would fill with nan
        path = write_scenario(tmp_path, {
            "name": "inf", "coords": ["q"], "momenta": ["p"],
            "hamiltonian": "0.5*p^2+1e400*q^2",
            "z0": {"q": [0.0], "p": [0.5]}, "t_end": 0.01, "dt": 0.005})
        out = tmp_path / "out"
        r = run_cli("simulate", path, "--out", str(out))
        assert r.returncode == 2
        assert r.stderr == ("scenario error: $.hamiltonian: number '1e400' "
                            "is out of range (offset 8)\n")
        assert not out.exists()

    def test_unsamplable_domain_is_numeric(self, tmp_path):
        # sqrt(q1-q2-100) is undefined on the whole sampling box
        path = write_scenario(tmp_path, {
            "name": "far", "coords": ["q1", "q2"], "action": [[1, 1]],
            "hamiltonian": "0.5*(p1^2+p2^2)+sqrt(q1-q2-100)"})
        r = run_cli("reduce", path, "--out", str(tmp_path))
        assert r.returncode == 3
        assert r.stderr == ("numeric failure: PreconditionError: could not "
                            "draw enough domain-valid samples\n")

    def test_out_is_an_existing_file(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        r = run_cli("reduce", "calogero", "--out", str(blocker))
        assert r.returncode == 2
        assert r.stderr.startswith("i/o error: [Errno 17] File exists")
        assert r.stderr.count("\n") == 1

    def test_unreadable_scenario_path(self, tmp_path):
        r = run_cli("reduce", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.startswith("i/o error:")
        assert "Traceback" not in r.stderr

    def test_internal_error(self, tmp_path, monkeypatch, capsys):
        def broken(doc):
            raise TypeError("unexpected operand")

        monkeypatch.setattr(cli, "build_system", broken)
        code = cli.main(["simulate", "calogero", "--out", str(tmp_path)])
        assert code == cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.endswith("TypeError: unexpected operand\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "solve-hj"])
    def test_too_deep_expression(self, tmp_path, command):
        # a 600-term sum nests 600 levels, past the recursion limit of
        # the expression walkers: a scenario error, not a residual failure
        path = write_scenario(tmp_path, {
            "name": "deep", "coords": ["q"], "momenta": ["p"],
            "hamiltonian": "0.5*p^2+" + "+".join(["0.001*q^2"] * 599),
            "energy": 1.0, "z0": {"q": [0.2], "p": [0.5]},
            "t_end": 0.01, "dt": 0.001,
            "solve": {"range": [0.1, 0.5], "n_nodes": 11}})
        r = run_cli(command, path, "--out", str(tmp_path))
        assert r.returncode == 2
        assert "scenario error: expression nests too deeply" in r.stderr
        assert "Traceback" not in r.stderr

    def test_non_finite_report_field(self, tmp_path):
        # 1e200*1e200 folds to inf, and inf*q is NaN at q = 0, so the
        # energy drift is NaN: bare NaN is not JSON, so no report is written
        doc = load_scenario("oscillator")
        doc["hamiltonian"] = "1e200*1e200*q+0.5*p^2"
        path = write_scenario(tmp_path, doc)
        r = run_cli("integrate", path, "--out", str(tmp_path))
        assert r.returncode == 3
        assert r.stderr == ("numeric failure: DomainError: report field "
                            "'max_energy_drift' is not finite\n")
        assert not (tmp_path / "oscillator_scheme.json").exists()

    def test_non_finite_nested_value_names_its_field(self):
        with pytest.raises(DomainError) as ei:
            cli._json_text({"a": 1.0, "b": {"c": np.array([0.5, -np.inf])}})
        assert str(ei.value) == "report field 'b' is not finite"


class TestNonFiniteInputs:
    """NaN and the infinities are refused before any run: one scenario
    error line, exit 2, no output written."""

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "inf"), ("--dt", "nan"), ("--t-end", "inf"),
        ("--t-end", "nan")])
    def test_time_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert cli.main(["simulate", "oscillator", flag, value,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"scenario error: {flag}: must be finite, got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, name, field, token", [
        ("solve-hj", "calogero", "energy", "NaN"),
        ("simulate", "oscillator", "dt", "Infinity"),
        ("simulate", "oscillator", "t_end", "-Infinity"),
        ("simulate", "oscillator", "dt", "1e400")])
    def test_scenario_tokens(self, tmp_path, capsys, command, name, field,
                             token):
        # json.loads reads the first three, which JSON does not have, and
        # the last, a JSON number, as an infinity
        doc = load_scenario(name)
        text = json.dumps(doc).replace(
            f'"{field}": {json.dumps(doc[field])}', f'"{field}": {token}')
        assert token in text
        path = tmp_path / "scn.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"scenario error: number '{token}' is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, name, field", [
        ("solve-hj", "calogero", "energy"), ("simulate", "oscillator", "dt")])
    def test_integer_literal_beyond_double_range(self, tmp_path, capsys,
                                                 command, name, field):
        # json.loads keeps an integer literal as an exact int, which no
        # double holds; the number field names it at its JSON path
        doc = load_scenario(name)
        doc[field] = 10 ** 400
        out = tmp_path / "out"
        assert cli.main([command, write_scenario(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"scenario error: $.{field}: the 401-digit integer is "
            "beyond the double range\n")
        assert not out.exists()

    def test_integer_literals_keep_their_value(self, tmp_path):
        # a nested number field is named by its path; an integer field
        # keeps an exact int beyond the double range, and a number field
        # an int within it
        doc = load_scenario("oscillator")
        doc["z0"]["q"] = [0.5, -10 ** 309]
        with pytest.raises(ScenarioError, match=r"^\$\.z0\.q\[1\]: the "
                           "310-digit integer is beyond the double range$"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = load_scenario("calogero")
        doc["seed"], doc["energy"] = 10 ** 400, 3
        loaded = load_scenario(write_scenario(tmp_path, doc))
        assert loaded["seed"] == 10 ** 400
        assert type(loaded["energy"]) is int and loaded["energy"] == 3


class TestOversizedInputs:
    """Sizes that no machine can allocate are scenario errors, not bugs.

    Every size here is at least 10^18 elements, so the allocation is
    refused at once instead of being tried.
    """

    def run(self, tmp_path, capsys, argv, doc=None):
        out = tmp_path / "out"
        scenario = argv[1] if doc is None else write_scenario(tmp_path, doc)
        rc = cli.main([argv[0], scenario, *argv[2:], "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("scenario error: ")
        assert err.count("\n") == 1
        assert not out.exists()
        return err

    def test_step_count_beyond_memory(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["simulate", "calogero",
                                          "--t-end", "1e9", "--dt", "1e-9"])
        assert err.startswith("scenario error: input too large: ")

    def test_step_count_beyond_floats(self, tmp_path, capsys):
        doc = load_scenario("oscillator")
        doc.update(t_end=1e300, dt=1e-300)
        err = self.run(tmp_path, capsys, ["simulate"], doc)
        assert err == ("scenario error: t_end and dt give inf steps, not a "
                       "finite count\n")


class TestQuadratureSize:
    """``complete_solution.n_quad`` is still checked, and changes nothing:
    the running integral is one fixed rule."""

    def test_every_valid_size_gives_the_same_run(self, tmp_path, capsys):
        def run(value):
            doc = load_scenario("oscillator")
            doc["complete_solution"]["n_quad"] = value
            where = tmp_path / str(len(runs))
            where.mkdir()
            out = where / "out"
            rc = cli.main(["equilibrium", write_scenario(where, doc),
                           "--out", str(out)])
            files = ({p.name: p.read_bytes() for p in out.iterdir()}
                     if out.exists() else {})
            runs.append((rc, capsys.readouterr().err, files))
            return runs[-1]

        runs = []
        first = run(8)
        assert first[0] == 0 and len(first[2]) == 2
        assert run(200) == first
        assert run(10 ** 18) == first
        field = "scenario error: $.complete_solution.n_quad: "
        assert run(7) == (2, field + "7 is less than the minimum of 8\n", {})
        assert run(1.5) == (2, field + "1.5 is not of type 'integer'\n", {})
        assert run("200") == (2, field + "'200' is not of type 'integer'\n",
                              {})


class TestNamedFields:
    """Inputs that cannot work exit 2 naming the field at fault."""

    @pytest.mark.parametrize("scenario", ["magnetic_synthetic", "oscillator",
                                          "calogero"])
    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one(self, tmp_path, capsys, scenario, grid):
        rc = cli.main(["verify", scenario, "--grid", grid,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"scenario error: --grid: must be at least 1, got {grid}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, code, err", [
        pytest.param("--tol", "inf", 2, "scenario error: --tol: must be "
                     "finite and non-negative, got inf\n", id="tol-inf"),
        pytest.param("--tol", "nan", 2, "scenario error: --tol: must be "
                     "finite and non-negative, got nan\n", id="tol-nan"),
        pytest.param("--tol", "-1", 2, "scenario error: --tol: must be "
                     "finite and non-negative, got -1.0\n", id="tol-negative"),
        pytest.param("--seed", "-1", 2, "scenario error: --seed: must be "
                     "non-negative, got -1\n", id="seed-negative"),
        pytest.param("--tol", "0", 1, "residual failure: verification "
                     "exceeded tol 0.0e+00\n", id="tol-zero"),
        pytest.param("--seed", "0", 0, "", id="seed-zero")])
    def test_tol_and_seed(self, tmp_path, capsys, flag, value, code, err):
        out = tmp_path / "out"
        assert cli.main(["verify", "calogero", flag, value,
                         "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert out.exists() == (code != 2)

    @pytest.mark.parametrize("command, scenario, grid", [
        ("solve-hj", "calogero", "2"), ("verify", "calogero", "1"),
        ("reconstruct", "calogero", "2"), ("verify", "heavytop", "2")])
    def test_grid_below_three_on_a_quadrature_solve(self, tmp_path, capsys,
                                                    command, scenario, grid):
        out = tmp_path / "out"
        rc = cli.main([command, scenario, "--grid", grid, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "scenario error: --grid: must be at least 3 for a quadrature "
                f"solve, got {grid}\n")
        assert not out.exists()

    @pytest.mark.parametrize("warnings", [None, "error::RuntimeWarning"])
    def test_generators_whose_gram_matrix_overflows(self, tmp_path, warnings):
        # a subprocess, so that a numpy warning would reach its stderr and
        # the warning filter applies from the start
        doc = load_scenario("magnetic_synthetic")
        doc["action"] = [[0, 1e200, 1]]
        out = tmp_path / "out"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        if warnings:
            env["PYTHONWARNINGS"] = warnings
        r = subprocess.run([sys.executable, "-m", "hjreduce", "reduce",
                            write_scenario(tmp_path, doc), "--out", str(out)],
                           capture_output=True, text=True, env=env)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "scenario error: $.action: generators too large: their "
                   "Gram matrix G^T G overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("warnings_as_errors", [False, True])
    @pytest.mark.parametrize("command", ["reduce", "verify"])
    @pytest.mark.parametrize("gens", [
        [[0, 0, 1e-200]], [[0, 0, 1e-160]],
        [[1, 0, 0], [1.0000000000001, 1e-13, 0]],
        [[1, 0, 0], [1, 2e-12, 0]]])
    def test_generators_without_a_chart(self, tmp_path, capsys, command,
                                        gens, warnings_as_errors):
        doc = load_scenario("magnetic_synthetic")
        doc["action"] = gens
        out = tmp_path / "out"
        with warnings.catch_warnings():
            if warnings_as_errors:
                warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main([command, write_scenario(tmp_path, doc),
                           "--out", str(out)])
        assert (rc, *capsys.readouterr()) == (
            2, "", "scenario error: $.action: generators are linearly "
                   "dependent\n")
        assert not out.exists()

    @pytest.mark.parametrize("names, where", [
        ({"coords": ["q", "q"]}, "$.coords"),
        ({"coords": ["q", "p"]}, "$.coords"),
        ({"coords": ["q1", "q2"], "momenta": ["p", "p"]}, "$.momenta"),
        ({"coords": ["q1", "q2"], "momenta": ["p1", "q1"]}, "$.momenta"),
        ({"coords": ["q1", "q2"], "momenta": ["p1"]}, "$.momenta"),
        ({"coords": ["t"], "hamiltonian": "0.5*p_t^2+0.5*t^2"}, "$.coords"),
        ({"coords": ["t"], "momenta": ["p"]}, "$.coords"),
        ({"coords": ["q1", "q2"], "momenta": ["p1", "t"]}, "$.momenta")])
    def test_colliding_names(self, tmp_path, capsys, names, where):
        doc = {"name": "names", "hamiltonian": "0.5*q1^2", **names}
        path = write_scenario(tmp_path, doc)
        assert cli.main(["reduce", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"scenario error: {where}: ")


    @pytest.mark.parametrize("command", ["verify", "equilibrium"])
    @pytest.mark.parametrize("q_range", [[0.95, -0.95], [0.5, 0.5]])
    def test_empty_quadrature_range(self, tmp_path, capsys, command, q_range):
        doc = load_scenario("oscillator")
        doc["complete_solution"]["q_range"] = q_range
        out = tmp_path / "out"
        assert cli.main([command, write_scenario(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "scenario error: $.complete_solution.q_range: empty range "
                f"[{q_range[0]}, {q_range[1]}]\n")
        assert not out.exists()

    @pytest.mark.parametrize("range_", [[5, 0.8], [2, 2]])
    def test_empty_solve_range(self, tmp_path, capsys, range_):
        doc = load_scenario("calogero")
        doc["solve"]["range"] = range_
        out = tmp_path / "out"
        assert cli.main(["solve-hj", write_scenario(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"scenario error: $.solve.range: empty range "
                f"[{range_[0]}, {range_[1]}]\n")
        assert not out.exists()


def edited(name, drop=(), **fields):
    """A bundled scenario without the ``drop`` sections, ``fields`` set.

    A field named ``a__b`` sets ``doc[a][b]``.
    """
    doc = load_scenario(name)
    for key in drop:
        parent, _, key = key.rpartition("__")
        del (doc[parent] if parent else doc)[key]
    for key, value in fields.items():
        parent, _, key = key.rpartition("__")
        (doc[parent] if parent else doc)[key] = value
    return doc


def document(command, label, doc, message):
    """A case whose scenario is a document, with its id fixed by ``label``.

    pytest would name a document by its position in the table, so that
    inserting a case renamed every later one.  The labels here are those
    positional names, kept as they were printed; a new case takes any
    label not yet used.
    """
    return pytest.param(command, doc, message,
                        id=f"{command}-{label}-{message}")


class TestScenarioErrors:
    """Each scenario error exits 2 with its one-line message, writing no file.

    A case is the command, the scenario (a bundled name, a document, or
    the text of the scenario file) and the message.
    """

    @pytest.mark.parametrize("command, scenario, message", [
        ("reduce", "no_such_scenario", "scenario not found: no_such_scenario"),
        ("reduce", "", "not valid JSON: Expecting value: line 1 column 1 "
                       "(char 0)"),
        document("reduce", "scenario2", {"name": "twice", "coords": ["q", "q"],
                                         "hamiltonian": "0.5*q^2"},
                 "$.coords: coordinate names must be distinct"),
        document("reduce", "scenario3",
                 edited("calogero", action=[[1, 1], [1, 0, 1]]),
                 "$.action[1]: generator has 3 entries, expected 2"),
        document("reduce", "scenario4", edited("calogero", drop=["action"]),
                 "$.mu: mu given without an action"),
        document("reduce", "scenario5", edited("calogero", mu=[0, 0]),
                 "$.mu: expected 1 entries, got 2"),
        document("simulate", "scenario6", edited("oscillator", drop=["z0"]),
                 "this command needs a 'z0' section"),
        document("simulate", "scenario7",
                 edited("oscillator", z0={"q": [0, 1], "p": [1, 0]}),
                 "$.z0: q and p must each have 1 entries"),
        ("simulate", "calogero", "this command needs t_end and dt "
                                 "(scenario fields or --t-end/--dt)"),
        ("reduce", "oscillator", "this command needs an 'action' section"),
        ("solve-hj", "oscillator", "this command needs a 'solve' section"),
        ("reconstruct", "oscillator",
         "this command needs a 'reconstruct' section"),
        ("integrate", "freeparticle",
         "this command needs an 'integrator' section"),
        document("solve-hj", "scenario13", edited("calogero", drop=["energy"]),
                 "$.solve: no energy given (solve.energy or top-level "
                 "energy)"),
        document("solve-hj", "scenario14",
                 edited("magnetic_synthetic", solve={"range": [0.5, 1],
                                                     "energy": 1}),
                 "the reduced problem is not one-dimensional"),
        document("solve-hj", "scenario15",
                 edited("calogero", drop=["action", "mu"]),
                 "solve-hj needs an action, a cyclic list, or a "
                 "one-dimensional system"),
        document("verify", "scenario16",
                 edited("calogero", complete_solution={"q_range": [-1, 1]}),
                 "$.complete_solution: quadrature families need a "
                 "one-dimensional system"),
        document("verify", "scenario17",
                 edited("magnetic_synthetic", drop=["action", "mu"]),
                 "magnetic verification needs an 'action'"),
        document("verify", "scenario18",
                 edited("magnetic_synthetic", magnetic__alpha_mu=["0", "y1"]),
                 "$.magnetic.alpha_mu: one component per coordinate"),
        document("verify", "scenario19",
                 edited("magnetic_synthetic", magnetic__gamma_tilde=["2*y1"]),
                 "$.magnetic.gamma_tilde: one component per reduced "
                 "coordinate"),
        # a magnetic form reads only its own coordinates, not the time;
        # d(gamma_tilde) would drop an undeclared w and pass
        document("verify", "alpha-mu-name",
                 edited("magnetic_synthetic",
                        magnetic__alpha_mu=["0", "y1+w", "1.5"]),
                 "$.magnetic.alpha_mu[1]: uses undeclared variables: ['w']"),
        document("verify", "alpha-mu-time",
                 edited("magnetic_synthetic",
                        magnetic__alpha_mu=["t*y1", "y1", "1.5"]),
                 "$.magnetic.alpha_mu[0]: uses undeclared variables: ['t']"),
        document("verify", "gamma-tilde-name",
                 edited("magnetic_synthetic",
                        magnetic__gamma_tilde=["2*y1+w", "-y1+2*y2"]),
                 "$.magnetic.gamma_tilde[0]: uses undeclared variables: "
                 "['w']"),
        document("verify", "gamma-tilde-group",
                 edited("magnetic_synthetic",
                        magnetic__gamma_tilde=["2*y1", "x-y1+2*y2"]),
                 "$.magnetic.gamma_tilde[1]: uses undeclared variables: "
                 "['x']"),
        document("verify", "scenario20", edited("calogero", drop=["verify"]),
                 "this scenario has no verify.grid section"),
        ("verify", "freeparticle",
         "nothing to verify: need 'magnetic', 'complete_solution', a cyclic "
         "solve, or an action pipeline"),
        document("reconstruct", "scenario22",
                 edited("oscillator", solve={"range": [-0.5, 0.5]},
                        reconstruct={"y0": [0]}),
                 "reconstruction needs an 'action' section"),
        document("equilibrium", "scenario23",
                 edited("freeparticle", generating_function__kind="typeII"),
                 "$.generating_function: equilibrium transforms use a typeI "
                 "family"),
        document("equilibrium", "scenario24",
                 edited("oscillator", drop=["complete_solution"]),
                 "equilibrium needs a 'generating_function' or "
                 "'complete_solution' section"),
        # checked before the solve, which fails on this range
        document("reconstruct", "scenario25",
                 edited("oscillator", solve={"range": [-3, 3]},
                        reconstruct={"y0": [0]}),
                 "reconstruction needs an 'action' section"),
        # checked beside y0, before the reduced flow runs
        document("reconstruct", "g0-length",
                 edited("calogero", reconstruct__g0=[0, 1, 2]),
                 "g0 must have 1 entries"),
        # a map needs one new variable per coordinate
        document("integrate", "one-param",
                 edited("calogero", integrator__params=["b1"],
                        integrator__s="q1*b1+q2*b1"),
                 "the generating function must have one parameter per "
                 "coordinate"),
        document("integrate", "three-params",
                 edited("calogero", integrator__params=["b1", "b2", "b3"],
                        integrator__s="q1*b1+q2*b2+t*(0.5*(b1^2+b2^2+b3^2)"
                                      "+1/(q1-q2)^2)"),
                 "the generating function must have one parameter per "
                 "coordinate"),
    ])
    def test_message(self, tmp_path, capsys, command, scenario, message):
        if isinstance(scenario, dict):
            scenario = write_scenario(tmp_path, scenario)
        elif scenario == "":
            (tmp_path / "empty.json").write_text("")
            scenario = str(tmp_path / "empty.json")
        out = tmp_path / "out"
        assert cli.main([command, scenario, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"scenario error: {message}\n")
        assert not out.exists()


class TestIntegralFloats:
    """JSON Schema counts 7.0 as an integer, so an integer field may hold
    it: the run is that of the int, outputs and exit code included."""

    CASES = [("reduce", "calogero", ("seed",), 7),
             ("integrate", "oscillator", ("integrator", "n_steps"), 5),
             ("verify", "calogero", ("verify", "grid", "counts"), 7),
             ("verify", "oscillator", ("complete_solution", "n_quad"), 16)]

    @staticmethod
    def scenario(where, name, path, value):
        doc = load_scenario(name)
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        where.mkdir()
        return write_scenario(where, doc)

    @pytest.mark.parametrize("command, name, path, value", CASES)
    def test_runs_as_the_integer(self, tmp_path, capsys, command, name, path,
                                 value):
        runs = []
        for v in (value, float(value)):
            where = tmp_path / type(v).__name__
            rc = cli.main([command, self.scenario(where, name, path, v),
                           "--out", str(where / "out")])
            files = {p.name: p.read_bytes() for p in (where / "out").iterdir()}
            runs.append((rc, capsys.readouterr().err, files))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("command, name, path, value", CASES)
    def test_loaded_as_an_int(self, tmp_path, command, name, path, value):
        node = load_scenario(self.scenario(tmp_path / "s", name, path,
                                           float(value)))
        for key in path:
            node = node[key]
        assert type(node) is int and node == value

    def test_counts_list_inside_any_of(self, tmp_path):
        doc = load_scenario(self.scenario(tmp_path / "s", "calogero",
                                          ("verify", "grid", "counts"),
                                          [6.0, 5.0]))
        assert [type(c) for c in doc["verify"]["grid"]["counts"]] == [int, int]
        assert type(doc["solve"]["range"][0]) is float


class TestTypeIScheme:
    def test_integrate_with_a_type1_function(self, tmp_path, capsys):
        """The oscillator's scheme function read as typeI: each step is
        the rotation (q, p) -> (c, -dS/dc) of the solved c."""
        out = tmp_path / "out"
        doc = edited("oscillator", integrator__kind="typeI")
        assert cli.main(["integrate", write_scenario(tmp_path, doc),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "oscillator_scheme.csv").read_text().splitlines()
        assert rows[:3] == ["t,q1,p1", "0,0,1",
                            "0.10000000000000001,1,-0.10000000000000001"]


class TestTimeVariable:
    """A quadrature equation must not read the time 't'."""

    @pytest.mark.parametrize("command, code", [
        ("solve-hj", 3), ("verify", 3), ("reconstruct", 3), ("reduce", 0),
        ("simulate", 0)])
    def test_quadrature_equation_reading_the_time(self, tmp_path, capsys,
                                                  command, code):
        doc = load_scenario("calogero")
        doc["hamiltonian"] += "+1e-9*sin(t)"
        doc.update(t_end=0.1, dt=0.01)
        out = tmp_path / "out"
        assert cli.main([command, write_scenario(tmp_path, doc),
                         "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (
                "numeric failure: PreconditionError: dW: the equation reads "
                "'t', which is neither an argument ['q'] nor the momentum "
                "'p'\n")
            assert not out.exists()
        else:
            assert err == ""


class TestCyclicReconstruct:
    """A reconstruction after a cyclic solve lifts at the level beta."""

    @pytest.mark.parametrize("action", [
        pytest.param({"action": [[1, 1]], "mu": [0.3]}, id="with-action"),
        pytest.param({}, id="without-action")])
    def test_lifts_through_the_cyclic_chart(self, tmp_path, capsys, action):
        doc = {"name": "cyc", "coords": ["q1", "q2"],
               "momenta": ["p1", "p2"],
               "hamiltonian": "0.5*(p1^2+p2^2)+0.5*q1^2",
               "solve": {"range": [-0.5, 0.5], "cyclic": ["q2"],
                         "beta": [0.3], "energy": 1.0},
               "reconstruct": {"y0": [0.0], "t_end": 0.3, "dt": 0.01},
               **action}
        out = tmp_path / "out"
        assert cli.main(["reconstruct", write_scenario(tmp_path, doc),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "cyc_reconstruct.json").read_text())
        assert report["sup_dev_vs_projected"] <= 1e-12


class TestOutputsOnFailure:
    """An exit 3 writes no file; an exit 1 writes its CSV and its report."""

    def run(self, tmp_path, command, doc):
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        return cli.main([command, path, "--out", str(out)]), out

    def test_non_finite_report_writes_no_csv(self, tmp_path, capsys):
        doc = load_scenario("oscillator")
        doc["hamiltonian"] = "1e200*1e200*q+0.5*p^2"
        rc, out = self.run(tmp_path, "integrate", doc)
        assert rc == 3
        assert "report field 'max_energy_drift' is not finite" \
            in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_diverging_flow_writes_no_trajectory(self, tmp_path, capsys):
        doc = load_scenario("oscillator")
        doc["hamiltonian"] = "1e300*q*q*q*q+0.5*p^2"
        doc["z0"]["q"] = [1e10]
        with np.errstate(all="ignore"):
            rc, out = self.run(tmp_path, "simulate", doc)
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_flow_prints_one_line(self, tmp_path):
        # a subprocess, so that a numpy warning would reach its stderr
        doc = load_scenario("oscillator")
        doc["hamiltonian"] = "1e300*q*q*q*q+0.5*p^2"
        doc["z0"]["q"] = [1e10]
        out = tmp_path / "out"
        r = run_cli("simulate", write_scenario(tmp_path, doc),
                    "--out", str(out))
        assert r.returncode == 3
        assert r.stderr.startswith("numeric failure: DomainError: RK4 step "
                                   "from t=0.0: ")
        assert r.stderr.count("\n") == 1
        assert not out.exists()

    def test_non_finite_csv_column_is_named(self, tmp_path):
        tr = Trajectory([0.0, 0.1], [[1.0], [2.0]], [[0.5], [np.nan]])
        path = tmp_path / "t.csv"
        with pytest.raises(DomainError) as ei:
            emit_trajectory(tr, str(path))
        assert str(ei.value) == "CSV column 'p1' is not finite"
        assert not path.exists()

    def test_failed_report_write_removes_the_new_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "oscillator_simulate.json").mkdir(parents=True)
        assert cli.main(["simulate", "oscillator", "--out", str(out)]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("i/o error: [Errno 21] Is a directory")
        assert cap.err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["oscillator_simulate.json"]
        assert not any((out / "oscillator_simulate.json").iterdir())

    def test_failed_report_write_keeps_an_earlier_csv(self, tmp_path,
                                                      capsys):
        # a file replaced from an earlier run is not restored, but a file
        # this run did not create is not deleted either
        out = tmp_path / "out"
        assert cli.main(["simulate", "oscillator", "--out", str(out)]) == 0
        (out / "oscillator_simulate.json").unlink()
        (out / "oscillator_simulate.json").mkdir()
        assert cli.main(["simulate", "oscillator", "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == [
            "oscillator_simulate.json", "oscillator_trajectory.csv"]

    def test_residual_failure_still_writes(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["integrate", "oscillator", "--tol", "1e-30",
                       "--out", str(out)])
        assert rc == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "oscillator_scheme.csv", "oscillator_scheme.json"]
        rep = json.loads((out / "oscillator_scheme.json").read_text())
        assert rep["pass"] is False


class TestFileModes:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)],
                             ids=["umask022", "umask002"])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            rc = cli.main(["solve-hj", "calogero", "--out", str(tmp_path)])
        finally:
            os.umask(old)
        assert rc == 0
        modes = {p.name: stat.S_IMODE(p.stat().st_mode)
                 for p in tmp_path.iterdir()}
        assert modes == {"calogero_table.csv": mode,
                         "calogero_solve.json": mode}


class TestReduceCommand:
    def test_emits_valid_scenario(self, tmp_path):
        r = run_cli("reduce", "calogero", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        out = tmp_path / "calogero_reduced.json"
        doc = load_scenario(str(out))
        assert doc["coords"] == ["q"]
        assert doc["momenta"] == ["p"]
        # the reduced scenario can be solved directly
        r2 = run_cli("solve-hj", str(out), "--out", str(tmp_path))
        assert r2.returncode == 0, r2.stderr
        rep = json.loads((tmp_path / "calogero_reduced_solve.json")
                         .read_text())
        assert rep["max_node_residual"] <= 1e-10

    def test_reduced_hamiltonian_value(self, tmp_path):
        run_cli("reduce", "calogero", "--out", str(tmp_path))
        doc = json.loads((tmp_path / "calogero_reduced.json").read_text())
        from hjreduce.expr import evaluate, parse
        h = parse(doc["hamiltonian"])
        assert evaluate(h, {"q": 2.0, "p": 1.0}) == 1.0 + 0.25


class TestOneChartPerRun:
    """A run builds one action, and that action its one chart."""

    @pytest.mark.parametrize("command, scenario", [
        ("reduce", "calogero"), ("verify", "calogero"),
        ("reconstruct", "calogero"), ("verify", "magnetic_synthetic")])
    def test_one_action_and_one_echelon_form(self, tmp_path, monkeypatch,
                                             command, scenario):
        counts = {"actions": 0, "rref": 0}
        init, rref = TranslationAction.__init__, _linalg.rref

        def counted_init(self, *args, **kwargs):
            counts["actions"] += 1
            init(self, *args, **kwargs)

        def counted_rref(a):
            counts["rref"] += 1
            return rref(a)

        monkeypatch.setattr(TranslationAction, "__init__", counted_init)
        monkeypatch.setattr(_linalg, "rref", counted_rref)
        assert cli.main([command, scenario, "--out", str(tmp_path)]) == 0
        assert counts == {"actions": 1, "rref": 1}


class TestSolveCommand:
    def test_table_and_report(self, tmp_path):
        r = run_cli("solve-hj", "calogero", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "calogero_table.csv").read_text().splitlines()
        assert lines[0] == "y,W,dW"
        assert len(lines) == 2002
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.8 and first[1] == 0.0
        rep = json.loads((tmp_path / "calogero_solve.json").read_text())
        assert rep["pass"] is True
        assert rep["energy"] == 2.0

    def test_grid_override(self, tmp_path):
        r = run_cli("solve-hj", "calogero", "--grid", "11",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "calogero_table.csv").read_text().splitlines()
        assert len(lines) == 12


class TestVerifyCommand:
    def test_reduction_mode(self, tmp_path):
        r = run_cli("verify", "calogero", "--grid", "12",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "calogero_verify.json").read_text())
        assert rep["mode"] == "reduction"
        assert rep["pass"] is True
        assert rep["hj_max_dev"] <= 1e-8
        assert rep["momentum_dev"] <= 1e-12

    def test_magnetic_mode(self, tmp_path):
        r = run_cli("verify", "magnetic_synthetic", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "magnetic_synthetic_verify.json")
                         .read_text())
        assert rep["mode"] == "magnetic"
        assert rep["beta"] == {"dy1^dy2": "1.0"}
        assert rep["magnetic_residual"] == 0.0

    @pytest.mark.parametrize("n_ranges", [1, 3])
    def test_magnetic_grid_of_the_wrong_width(self, tmp_path, capsys,
                                              n_ranges):
        doc = load_scenario("magnetic_synthetic")
        doc["magnetic"]["grid"]["bounds"] = [[-2, 2]] * n_ranges
        path = write_scenario(tmp_path, doc)
        assert cli.main(["verify", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: $.magnetic.grid.bounds: ")
        assert not (tmp_path / "magnetic_synthetic_verify.json").exists()

    @pytest.mark.parametrize("scenario, section, counts", [
        ("calogero", "verify", [7]), ("calogero", "verify", [7, 7, 7]),
        ("magnetic_synthetic", "magnetic", [15]),
        ("magnetic_synthetic", "magnetic", [15, 15, 15])])
    def test_grid_counts_of_the_wrong_length(self, tmp_path, capsys,
                                             scenario, section, counts):
        doc = load_scenario(scenario)
        doc[section]["grid"]["counts"] = counts
        path = write_scenario(tmp_path, doc)
        assert cli.main(["verify", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: $.{section}.grid.counts: ")
        assert not (tmp_path / f"{scenario}_verify.json").exists()

    @pytest.mark.parametrize("scenario, section, axis, index, pair", [
        ("calogero", "verify", "y", 0, [3, 3]),
        ("calogero", "verify", "y", 0, [5, 1]),
        ("calogero", "verify", "x", 0, [2, -2]),
        ("magnetic_synthetic", "magnetic", "bounds", 1, [2, -2]),
        ("magnetic_synthetic", "magnetic", "bounds", 0, [0.5, 0.5])])
    def test_empty_grid_range(self, tmp_path, capsys, scenario, section,
                              axis, index, pair):
        doc = load_scenario(scenario)
        doc[section]["grid"][axis][index] = pair
        out = tmp_path / "out"
        assert cli.main(["verify", write_scenario(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"scenario error: $.{section}.grid.{axis}[{index}]: empty "
                f"range [{pair[0]}, {pair[1]}]\n")
        assert not out.exists()

    def test_family_mode(self, tmp_path):
        r = run_cli("verify", "oscillator", "--grid", "40",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "oscillator_verify.json").read_text())
        assert rep["mode"] == "complete_solution"
        assert rep["min_abs_det"] >= 1e-6

    def test_cyclic_mode(self, tmp_path):
        r = run_cli("verify", "heavytop", "--grid", "40",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "heavytop_verify.json").read_text())
        assert rep["mode"] == "cyclic"
        assert rep["max_offnode_residual"] <= 1e-8

    def test_cyclic_mode_uses_the_solved_branch(self, tmp_path, monkeypatch):
        doc = cli.load_scenario("heavytop")
        doc["solve"]["branch"] = -1
        branches = []
        real = cli.cyclic_complete_solution

        def recording(*args, **kwargs):
            branches.append(kwargs.get("branch", 1))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "cyclic_complete_solution", recording)
        assert cli.main(["verify", write_scenario(tmp_path, doc), "--grid",
                         "40", "--out", str(tmp_path)]) == 0
        assert branches == [-1]

    def test_cyclic_mode_samples_cyclicity_once(self, tmp_path, monkeypatch):
        seeds = []
        real = hj.cyclic_ansatz

        def recording(sys_, cyclic_vars, betas, seed=42):
            seeds.append(seed)
            return real(sys_, cyclic_vars, betas, seed=seed)

        monkeypatch.setattr(cli, "cyclic_ansatz", recording)
        monkeypatch.setattr(hj, "cyclic_ansatz", recording)
        assert cli.main(["verify", "heavytop", "--grid", "40", "--seed", "7",
                         "--out", str(tmp_path)]) == 0
        assert seeds == [7]


class TestCyclicSolveInputs:
    """The cyclic solve path's input errors on heavytop, solve and verify."""

    @staticmethod
    def run(tmp_path, command, cyclic, beta):
        doc = load_scenario("heavytop")
        doc["solve"].update(cyclic=cyclic, beta=beta)
        out = tmp_path / "out"
        rc = cli.main([command, write_scenario(tmp_path, doc),
                       "--out", str(out)])
        assert not out.exists()
        return rc

    @pytest.mark.parametrize("command", ["solve-hj", "verify"])
    @pytest.mark.parametrize("cyclic, beta, message", [
        (["phi", "chi"], [0.3, 0.2],
         "'chi' is not a coordinate of the system"),
        (["phi", "psi"], [0.3],
         "$.solve.beta: need one beta per cyclic variable"),
        (["phi"], [0.3], "$.solve.cyclic: exactly one non-cyclic "
                         "coordinate is needed for quadrature"),
        (["phi", "phi"], [0.3, 0.2],
         "cyclic variables listed more than once: ['phi']"),
    ], ids=["unknown-name", "beta-count", "two-left", "repeated-name"])
    def test_scenario_errors(self, tmp_path, capsys, command, cyclic, beta,
                             message):
        assert self.run(tmp_path, command, cyclic, beta) == 2
        assert capsys.readouterr() == ("", f"scenario error: {message}\n")

    @pytest.mark.parametrize("command", ["solve-hj", "verify"])
    def test_non_cyclic_variable(self, tmp_path, capsys, command):
        assert self.run(tmp_path, command, ["theta", "phi"], [0.3, 0.2]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: PreconditionError: the "
                              "hamiltonian is not cyclic in ['theta', 'phi'] "
                              "(witness: {'point': ")


class TestPipelineCommands:
    def test_reconstruct(self, tmp_path):
        r = run_cli("reconstruct", "calogero", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "calogero_reconstruct.json")
                         .read_text())
        assert rep["sup_dev_vs_projected"] <= 1e-6
        assert rep["graph_relatedness_dev"] <= 1e-6
        tr = read_trajectory(str(tmp_path / "calogero_reconstructed.csv"))
        assert len(tr) == 1001
        np.testing.assert_allclose(tr.qs[0], [1.0, -1.0], atol=1e-14)

    def test_reconstruct_zero_span(self, tmp_path, capsys):
        # one sample: the midpoint sweeps run on zero rows
        assert cli.main(["reconstruct", "calogero", "--t-end", "0",
                         "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "calogero_reconstruct.json")
                         .read_text())
        assert rep["sup_dev_vs_projected"] == 0.0
        tr = read_trajectory(str(tmp_path / "calogero_reconstructed.csv"))
        assert len(tr) == 1

    def test_simulate(self, tmp_path):
        r = run_cli("simulate", "freeparticle", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        tr = read_trajectory(str(tmp_path / "freeparticle_trajectory.csv"))
        np.testing.assert_allclose(tr.qs[-1], [5.0], atol=1e-12)
        rep = json.loads((tmp_path / "freeparticle_simulate.json")
                         .read_text())
        assert rep["max_energy_drift"] <= 1e-12

    def test_simulate_flag_overrides(self, tmp_path):
        r = run_cli("simulate", "freeparticle", "--t-end", "0.5", "--dt",
                    "0.05", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        tr = read_trajectory(str(tmp_path / "freeparticle_trajectory.csv"))
        assert len(tr) == 11
        assert tr.times[-1] == pytest.approx(0.5)

    def test_integrate(self, tmp_path):
        r = run_cli("integrate", "oscillator", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "oscillator_scheme.json").read_text())
        assert rep["symplecticity_defect"] <= 1e-9
        assert rep["pass"] is True

    def test_integrate_momentum(self, tmp_path):
        r = run_cli("integrate", "calogero", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "calogero_scheme.json").read_text())
        assert rep["max_momentum_drift"] <= 1e-10

    def test_equilibrium(self, tmp_path):
        r = run_cli("equilibrium", "freeparticle", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "freeparticle_equilibrium.json")
                         .read_text())
        assert rep["max_variation"] <= 1e-8
        np.testing.assert_allclose(rep["alpha0"], [3.0], atol=1e-12)
        np.testing.assert_allclose(rep["beta0"], [-2.0], atol=1e-12)
        lines = (tmp_path / "freeparticle_equilibrium.csv").read_text()
        assert lines.splitlines()[0] == "t,alpha1,beta1"


class TestTableRootSolves:
    """A root with an anchor table runs Newton once per distinct argument."""

    @pytest.mark.parametrize("command, scenario, solves, runs", [
        ("verify", "calogero", 20017, 152),
        ("reconstruct", "calogero", 17024, 5015),
        ("verify", "heavytop", 217, 215)])
    def test_bundled_counts(self, tmp_path, capsys, monkeypatch, command,
                            scenario, solves, runs):
        # calls: the _chain calls each solve on a table root makes
        calls, chained = [], []
        solve, chain = hj.ImplicitBranchRoot.solve, hj.ImplicitBranchRoot._chain

        def counting_solve(self, args):
            before = len(chained)
            p = solve(self, args)
            if self._anchors is not None:
                calls.append(len(chained) - before)
            return p

        def counting_chain(self, args, guess):
            if self._anchors is not None:
                chained.append(tuple(map(float, args)))
            return chain(self, args, guess)

        monkeypatch.setattr(hj.ImplicitBranchRoot, "solve", counting_solve)
        monkeypatch.setattr(hj.ImplicitBranchRoot, "_chain", counting_chain)
        assert cli.main([command, scenario, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (len(calls), sum(calls), max(calls)) == (solves, runs, 1)
        assert len(chained) == len(set(chained)) == runs


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        for d in (d1, d2):
            d.mkdir()
            r = run_cli("verify", "calogero", "--grid", "10",
                        "--out", str(d))
            assert r.returncode == 0, r.stderr
        assert ((d1 / "calogero_verify.json").read_bytes()
                == (d2 / "calogero_verify.json").read_bytes())

    def test_reconstruct_byte_identical(self, tmp_path):
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        for d in (d1, d2):
            d.mkdir()
            r = run_cli("reconstruct", "calogero", "--dt", "0.01",
                        "--out", str(d))
            assert r.returncode == 0, r.stderr
        assert ((d1 / "calogero_reconstructed.csv").read_bytes()
                == (d2 / "calogero_reconstructed.csv").read_bytes())


class TestReadmeCommands:
    def test_every_command_line_exits_zero(self, tmp_path):
        # the sh block under "## Command line" in README.md
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        lines = [ln.split("#", 1)[0].split()
                 for ln in block.split("```", 1)[0].splitlines()
                 if ln.startswith("hjreduce ")]
        assert len(lines) == 7
        for argv in lines:
            argv[argv.index("--out") + 1] = str(tmp_path)
            assert cli.main(argv[1:]) == 0, " ".join(argv)
