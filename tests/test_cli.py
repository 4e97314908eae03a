import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from srpowers.cli import main
from srpowers.complexes import complex_from_json, cycle
from srpowers.fixtures import parse_complex_spec, parse_input
from srpowers.ideals import MonomialIdeal, ideal_from_json, symbolic_power

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, stdin_text=None, module="srpowers.cli"):
    """The CLI in a fresh interpreter on this checkout's sources, with no
    time budget from the environment."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SRPL_BUDGET_SECONDS", None)
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        env=env,
    )
    return proc


def test_parse_complex_specs():
    assert parse_complex_spec("five-cycle") == cycle(5)
    assert parse_complex_spec("cycle:5") == cycle(5)
    assert parse_complex_spec("uniform:4:1") == parse_complex_spec("complete:4")
    j = parse_complex_spec("join:complete:3+complete:3")
    assert j.n == 6 and j.minimal_nonfaces() == ((1, 2, 3), (4, 5, 6))
    ex = parse_complex_spec("example-4-10")
    assert ex.n == 5
    literal = parse_complex_spec('{"n": 3, "facets": [[1,2],[2,3]]}')
    assert literal.facet_sets() == ((1, 2), (2, 3))
    with pytest.raises(ValueError):
        parse_complex_spec("no-such-thing")


def test_analyze_exit_codes_and_json():
    r = run_cli("analyze", "five-cycle", "--kind", "sr-symbolic", "--m", "3", "--property", "cm")
    assert r.returncode == 1
    data = json.loads(r.stdout)
    assert data["verdict"] == "fails"
    assert "exchange fails" in data["witness"]

    r = run_cli("analyze", "uniform:6:2", "--kind", "cover", "--m", "5", "--property", "cm")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "holds"

    r = run_cli("analyze", "five-cycle", "--kind", "sr-symbolic", "--m", "2", "--property", "cm")
    assert r.returncode == 2
    assert json.loads(r.stdout)["verdict"] == "oracle_only"

    r = run_cli(
        "analyze", "example-4-10", "--kind", "sr-symbolic", "--m", "2",
        "--property", "cm", "--oracle",
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["verdict"] == "oracle_only"
    assert data["oracle"]["ran"] and data["oracle"]["result"] is True


def test_usage_and_data_errors():
    r = run_cli("analyze", "five-cycle", "--kind", "nope", "--m", "3", "--property", "cm")
    assert r.returncode == 64
    r = run_cli("analyze", "no-such-fixture", "--kind", "cover", "--m", "3", "--property", "cm")
    assert r.returncode == 64
    r = run_cli("depth", '{"n": 3, "facets"')
    assert r.returncode == 65
    assert "line" in r.stderr


def test_malformed_json_exits_65(tmp_path, capsys):
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    for text in (
        '{"n": 3}',
        '{"facets": [[1, 2]]}',
        '{"gens": [[1, 1]]}',
        str(listing),
        '{"n": 2.5, "facets": [[1, 2]]}',
        '{"n": "3", "facets": [[1, 2]]}',
        '{"n": 3, "facets": [1, 2]}',
        '{"n": 3, "facets": [[1.5, 2]]}',
        '{"n": 3, "facets": [[true, 2]]}',
        '{"n": 2, "gens": [[1.5, 1], [0, 2]]}',
        '{"n": 2, "gens": [[1, 1, 1]]}',
        '{"n": 2, "gens": [[true, 1]]}',
    ):
        assert main(["depth", text]) == 65, text
        assert "malformed input" in capsys.readouterr().err
    assert main(["analyze", '{"n": 3}', "--kind", "cover", "--m", "3", "--property", "cm"]) == 65


def test_oracle_refuses_a_vertex_in_no_facet(capsys):
    # the Stanley-Reisner ideal would hold the variable x4; the theorem
    # needs no ideal, the oracle does
    args = ["analyze", '{"n":4,"facets":[[1,2],[2,3]]}', "--kind", "sr-symbolic", "--m", "3",
            "--property", "cm"]
    assert main(args + ["--oracle"]) == 64
    assert "vertices [4] lie in no facet" in capsys.readouterr().err
    assert main(args) == 0


def test_oracle_refuses_a_power_past_16(capsys):
    args = ["analyze", "uniform:5:2", "--kind", "cover", "--m", "17", "--property", "cm", "--oracle"]
    assert main(args) == 64
    assert "power must lie in 1..16" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["ordinary", "symbolic"])
@pytest.mark.parametrize("m", ["0", "17"])
@pytest.mark.parametrize("ideal", ['{"n":2,"gens":[]}', '{"n":2,"gens":[[0,0]]}'])  # zero, unit
def test_power_out_of_range_exits_64_for_zero_and_unit_ideals(kind, m, ideal, capsys):
    assert main(["power", ideal, "--m", m, "--kind", kind]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: power must lie in 1..16\n"


@pytest.mark.parametrize("command", [["analyze", "--kind", "cover", "--m", "3", "--property", "cm"], ["depth"]])
def test_unreadable_input_path_exits_64(command, tmp_path, capsys):
    # a path that exists but cannot be read as a file
    assert main([command[0], str(tmp_path), *command[1:]]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(tmp_path) in err


def test_power_and_depth_pipeline():
    r = run_cli("power", "example-4-10", "--m", "2", "--kind", "symbolic")
    assert r.returncode == 0
    ideal = ideal_from_json(json.loads(r.stdout))
    assert ideal == symbolic_power(parse_complex_spec("example-4-10"), 2)

    r2 = run_cli("depth", "-", stdin_text=r.stdout)
    assert r2.returncode == 0
    rep = json.loads(r2.stdout)
    assert rep["is_cm"] is True

    r = run_cli("power", "five-cycle", "--m", "3", "--kind", "ordinary")
    r2 = run_cli("depth", "-", stdin_text=r.stdout)
    rep = json.loads(r2.stdout)
    assert rep["is_cm"] is False
    assert rep["depth"] < rep["dim"]


def test_depth_of_a_cube_with_twins_is_pinned():
    # every vertex of uniform:6:3 is a twin of every other, so the scans
    # read one box row per orbit; the report is the full box's, byte for byte
    r = run_cli("power", "uniform:6:3", "--m", "3", "--kind", "ordinary")
    assert r.returncode == 0
    r2 = run_cli("depth", "-", stdin_text=r.stdout)
    assert r2.returncode == 0
    assert r2.stdout == (
        '{"depth": 2, "dim": 4, "is_cm": false, "field": "Q", "witnesses": ['
        '{"i": 2, "a": [0, 0, 2, 2, 2, 2], "cohomology_dim": 1}, '
        '{"i": 3, "a": [0, 0, 0, 1, 2, 2], "cohomology_dim": 1}]}\n'
    )


def test_depth_of_a_twin_free_cube_is_pinned():
    # cycle:6 has no twins, so the scan of its I^(3) reads every box row,
    # each by the generator reader's table reads; the report byte for byte
    r = run_cli("power", "cycle:6", "--m", "3", "--kind", "symbolic")
    assert r.returncode == 0
    r2 = run_cli("depth", "-", stdin_text=r.stdout)
    assert r2.returncode == 0
    assert r2.stdout == (
        '{"depth": 1, "dim": 2, "is_cm": false, "field": "Q", "witnesses": ['
        '{"i": 1, "a": [0, 0, 1, 0, 0, 2], "cohomology_dim": 1}]}\n'
    )


def test_depth_of_named_complex():
    r = run_cli("depth", "five-cycle")
    rep = json.loads(r.stdout)
    assert (rep["depth"], rep["dim"], rep["is_cm"]) == (2, 2, True)
    assert rep["field"] == "Q"


def test_depth_field_flag():
    rp2 = {"n": 6, "facets": [[1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
                              [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6]]}
    r = run_cli("depth", json.dumps(rp2))
    assert json.loads(r.stdout)["is_cm"] is True
    r = run_cli("depth", json.dumps(rp2), "--field", "F2")
    assert json.loads(r.stdout)["is_cm"] is False


@pytest.mark.parametrize("value, reason", [
    ("F4", "4 is not prime"), ("F1", "1 is not prime"), ("R", "use Q or Fp"), ("F", "use Q or Fp"),
])
@pytest.mark.parametrize("command", [
    ["depth", "uniform:4:2"],
    ["analyze", "uniform:4:2", "--kind", "sr-symbolic", "--m", "3", "--property", "cm", "--oracle"],
    ["sweep", "--check", "sym-cube-cm", "--n-max", "3"],
])
def test_a_refused_field_says_why(command, value, reason, capsys):
    assert main([*command, "--field", value]) == 64
    captured = capsys.readouterr()
    assert "argument --field: " in captured.err and reason in captured.err, captured.err
    assert "parse_field" not in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_emitted_json_reparses():
    r = run_cli("power", "five-cycle", "--m", "2", "--kind", "symbolic")
    ideal = ideal_from_json(json.loads(r.stdout))
    assert ideal.to_json() == json.loads(r.stdout)
    c = cycle(5)
    assert complex_from_json(json.loads(json.dumps(c.to_json()))) == c


def test_sweep_small():
    r = run_cli("sweep", "--check", "matroid-pair-criterion", "--n-max", "4")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "complex_signature,check_id,theorem_verdict,oracle_verdict,seconds"
    assert "disagreements=0" in lines[-1]


def _rows(text):
    """Columns 1-4 of the CSV rows of a sweep, without the header and the
    comment lines."""
    return [",".join(line.split(",")[:4]) for line in text.strip().splitlines()[1:] if not line.startswith("#")]


ORACLE_CHECKS = "sym-cube-cm,sym-cube-s2,ord-cube-cm,sym-cube-gcm,ord-cube-gcm,cover-cube-cm,facet-cube-cm"
COMBINATORIAL_CHECKS = ("matroid-pair-criterion,graph-4-cycle-criterion,matroid-local-connected,"
                        "local-matroid-components,ci-local-connected,matroid-complement-duality")


@pytest.mark.parametrize("checks, field, digest", [
    (ORACLE_CHECKS, "Q", "14606cabd26e2578752346aaecc0efc0"),
    (ORACLE_CHECKS, "F2", "14606cabd26e2578752346aaecc0efc0"),
    (ORACLE_CHECKS, "F3", "14606cabd26e2578752346aaecc0efc0"),
    (COMBINATORIAL_CHECKS, "Q", "9ec3588cd3aebd5ffe608cb51c06e605"),
], ids=["oracle-Q", "oracle-F2", "oracle-F3", "combinatorial"])
def test_sweep_verdicts_are_pinned(checks, field, digest, capsys, monkeypatch):
    # the md5 of stdout cut to CSV columns 1-4 (as ``cut -d, -f1-4``), the
    # timing column left out: every verdict of every complex on <= 5
    # vertices, the header and the closing count
    monkeypatch.delenv("SRPL_BUDGET_SECONDS", raising=False)
    assert main(["sweep", "--check", checks, "--n-max", "5", "--field", field]) == 0
    cut = "".join(",".join(line.split(",")[:4]) + "\n" for line in capsys.readouterr().out.splitlines())
    assert hashlib.md5(cut.encode()).hexdigest() == digest


def test_sweep_dim_filter_and_parallel_determinism():
    base = run_cli("sweep", "--check", "graph-4-cycle-criterion", "--n-max", "5",
                   "--dim-filter", "1")
    par = run_cli("sweep", "--check", "graph-4-cycle-criterion", "--n-max", "5",
                  "--dim-filter", "1", "--parallel", "2")
    assert base.returncode == par.returncode == 0
    assert _rows(base.stdout) == _rows(par.stdout)


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_parallel_sweep_rows_do_not_depend_on_the_start_method(method):
    # the pool takes the platform's default start method (forkserver from
    # Python 3.14 on Linux), so every method must give the serial rows
    sweep = ["sweep", "--check", "sym-cube-cm", "--n-max", "4"]
    serial = run_cli(*sweep)
    script = ("import multiprocessing, sys\n"
              "multiprocessing.set_start_method(sys.argv[1], force=True)\n"
              "from srpowers.cli import main\n"
              "code = main(sys.argv[2:])\n"
              "assert multiprocessing.get_start_method() == sys.argv[1]\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SRPL_BUDGET_SECONDS", None)
    par = subprocess.run([sys.executable, "-c", script, method, *sweep, "--parallel", "2"],
                         capture_output=True, text=True, env=env)
    assert serial.returncode == par.returncode == 0, par.stderr
    assert len(_rows(serial.stdout)) == 24
    assert _rows(par.stdout) == _rows(serial.stdout)
    assert par.stdout.strip().splitlines()[-1] == "# processed=28 disagreements=0"


def test_sweep_budget_resume_token():
    # a budget no family fits; the first complex is exempt, so the token moves
    r = run_cli("sweep", "--check", "sym-cube-cm", "--n-max", "5", "--dim-filter", ">=2",
                "--budget-seconds", "1e-6")
    assert r.returncode == 3
    assert "# resume-token:" in r.stdout
    token = int(r.stdout.rsplit("# resume-token:", 1)[1].strip())
    assert token >= 1


def test_sweep_n7_needs_a_sample():
    r = run_cli("sweep", "--check", "matroid-pair-criterion", "--n-max", "7")
    assert r.returncode == 64
    assert "--sample" in r.stderr


def test_sweep_unreachable_sample_exits_64():
    r = run_cli("sweep", "--check", "matroid-pair-criterion", "--n-max", "3", "--sample", "10")
    assert r.returncode == 64
    assert "reached 3 of the 10" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("option, value", [
    ("--n-max", "0"), ("--n-max", "-2"), ("--sample", "0"), ("--sample", "-5"),
    ("--parallel", "0"), ("--parallel", "-1"), ("--resume-token", "-1"),
    ("--dim-filter", "abc"), ("--dim-filter", ">=x"), ("--dim-filter", "2.5"),
])
def test_sweep_refuses_bad_sizes(option, value, capsys):
    code = main(["sweep", "--check", "matroid-pair-criterion", "--n-max", "3", option, value])
    assert code == 64
    captured = capsys.readouterr()
    assert option in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_sweep_unknown_check():
    r = run_cli("sweep", "--check", "no-such-check", "--n-max", "4")
    assert r.returncode == 64


def test_budget_env_var_default():
    proc = subprocess.run(
        [sys.executable, "-m", "srpowers.cli", "sweep", "--check", "sym-cube-cm",
         "--n-max", "5", "--dim-filter", ">=2"],
        capture_output=True,
        text=True,
        env={"SRPL_BUDGET_SECONDS": "1e-6", "PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 3
    assert "# resume-token:" in proc.stdout


def test_oracle_past_the_budget_exits_3():
    r = run_cli("analyze", "uniform:7:4", "--kind", "sr-symbolic", "--m", "3", "--property", "cm",
                "--oracle", "--budget-seconds", "1e-9")
    assert r.returncode == 3
    assert "budget" in r.stderr and "Traceback" not in r.stderr


def test_budget_from_the_environment_is_checked():
    env = dict(os.environ, PYTHONPATH=str(SRC), SRPL_BUDGET_SECONDS="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "srpowers", "analyze", "five-cycle", "--kind", "sr-symbolic",
         "--m", "3", "--property", "cm"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 64
    assert "budget" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["nan", "0", "inf", "-1", "abc"])
def test_budget_must_be_a_finite_number_above_zero(value, capsys):
    code = main(["analyze", "five-cycle", "--kind", "sr-symbolic", "--m", "3", "--property", "cm",
                 "--oracle", "--budget-seconds", value])
    assert code == 64
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err


def test_main_callable_directly(capsys):
    code = main(["analyze", "complete:4", "--kind", "cover", "--m", "3", "--property", "cm"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "holds"


def test_fixture_names_come_before_files(tmp_path, monkeypatch, capsys):
    # a file named like a fixture or a family does not shadow it
    monkeypatch.chdir(tmp_path)
    full = json.dumps({"n": 5, "facets": [[1, 2, 3, 4, 5]]})
    (tmp_path / "five-cycle").write_text(full)
    (tmp_path / "cycle:5").write_text(full)
    for spec in ("five-cycle", "cycle:5"):
        assert parse_complex_spec(spec) == cycle(5)
        code = main(["analyze", spec, "--kind", "sr-symbolic", "--m", "3", "--property", "cm"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "fails"
    (tmp_path / "full.json").write_text(full)
    assert parse_complex_spec("full.json").facet_sets() == ((1, 2, 3, 4, 5),)


def test_one_grammar_for_complexes_and_ideals(tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"n": 3, "gens": [[1, 1, 0], [0, 1, 1]]}))
    assert parse_input(str(path)) == MonomialIdeal.from_generators(3, [(1, 1, 0), (0, 1, 1)])
    with pytest.raises(ValueError, match="ideal"):
        parse_complex_spec(str(path))
    assert parse_input("join:cycle:3+simplex:1").minimal_nonfaces() == ((1, 2, 3),)
    assert main(["analyze", str(path), "--kind", "cover", "--m", "3", "--property", "cm"]) == 64
    assert "ideal" in capsys.readouterr().err
    assert main(["depth", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2


def test_desk_scale_limit_exits_3():
    big = json.dumps({"n": 12, "gens": [[4] * 12]})
    r = run_cli("depth", big)
    assert r.returncode == 3
    assert "244140625" in r.stderr and str(1 << 22) in r.stderr
    r = run_cli("depth", '{"n": 2, "gens": [[40000, 1], [0, 2]]}')
    assert r.returncode == 3
    assert "40000" in r.stderr and "32767" in r.stderr
    # a 4-point box whose radical complex has 2^68 faces
    r = run_cli("depth", json.dumps({"n": 70, "gens": [[1] + [0] * 69, [0, 1] + [0] * 68]}))
    assert r.returncode == 3
    assert str(1 << 68) in r.stderr and str(1 << 22) in r.stderr
    r = run_cli("power", json.dumps({"n": 12, "gens": [[1, 1] + [0] * 10]}),
                "--m", "4", "--kind", "symbolic")
    assert r.returncode == 3
    assert "desk-scale limit" in r.stderr


def test_minimal_nonfaces_at_desk_scale_answer(capsys):
    # two disjoint facets on 22 vertices: the transversal search is a
    # bitset over 2^22 sets, at the limit; the 121 minimal nonfaces cross
    spec = json.dumps({"n": 22, "facets": [list(range(1, 12)), list(range(12, 23))]})
    assert main(["analyze", spec, "--kind", "sr-ordinary", "--m", "3", "--property", "cm"]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == "minimal nonfaces (1, 12) and (2, 12) share a vertex"


def test_minimal_nonfaces_past_desk_scale_exit_3(capsys):
    # two disjoint facets on 24 vertices: the transversal search would be a
    # bitset over 2^24 sets, the submasks of their complements' union
    spec = json.dumps({"n": 24, "facets": [list(range(1, 13)), list(range(13, 25))]})
    assert main(["analyze", spec, "--kind", "sr-ordinary", "--m", "3", "--property", "cm"]) == 3
    err = capsys.readouterr().err
    assert str(1 << 24) in err and str(1 << 22) in err


def test_gcm_reads_the_boxes_of_the_intersections_of_facets(capsys):
    # gCM has no whole-box guard: each localization's box is guarded as it
    # is scanned, and I^(m) is walked only at the intersections of facets.
    # Two disjoint 12-vertex simplices have none with 0 < |G| < 12, so no
    # box is read; CM and S2 still refuse the 4^24-point box of I^(3).
    args = ["--kind", "sr-symbolic", "--m", "3", "--oracle", "--property"]
    apart = json.dumps({"n": 24, "facets": [list(range(1, 13)), list(range(13, 25))]})
    assert main(["analyze", apart, *args, "gcm"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "holds"
    for prop in ("cm", "s2"):
        assert main(["analyze", apart, *args, prop]) == 3
        assert str(1 << 48) in capsys.readouterr().err
    # two 13-vertex simplices sharing vertex 1: the box at G = {1}, the
    # symbolic cube of two disjoint 12-vertex simplices, has 4^24 points
    glued = json.dumps({"n": 25, "facets": [list(range(1, 14)), [1, *range(14, 26)]]})
    assert main(["analyze", glued, *args, "gcm"]) == 3
    err = capsys.readouterr().err
    assert str(1 << 48) in err and str(1 << 22) in err


def test_package_runs_as_a_module():
    args = ("analyze", "five-cycle", "--kind", "sr-symbolic", "--m", "3", "--property", "cm", "--oracle")
    as_module = run_cli(*args, module="srpowers")
    direct = run_cli(*args)

    def report(proc):  # the oracle's wall time is the one field that may differ
        out = json.loads(proc.stdout)
        del out["oracle"]["seconds"]
        return proc.returncode, out

    assert report(as_module) == report(direct)
    assert as_module.returncode == 1


def test_the_package_entry_reports_a_failed_exchange():
    r = run_cli("analyze", "path:4", "--kind", "sr-symbolic", "--m", "3", "--property", "cm", module="srpowers")
    assert r.returncode == 1
    assert "exchange fails" in json.loads(r.stdout)["witness"]


@pytest.mark.parametrize("spec", ["cycle:5:2", "uniform:5"])
def test_a_spec_with_the_wrong_arity_exits_64(spec, capsys):
    assert main(["analyze", spec, "--kind", "sr-symbolic", "--m", "3", "--property", "cm"]) == 64
    assert f"cannot interpret input '{spec}'" in capsys.readouterr().err


def test_sampled_sweep_reaches_low_dimensions():
    r = run_cli("sweep", "--check", "matroid-pair-criterion", "--n-max", "5", "--sample", "5",
                "--seed", "1", "--dim-filter", "<=1")
    assert r.returncode == 0, r.stderr
    rows = [line for line in r.stdout.strip().splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 5
    for line in rows:
        # a signature n5:12+34 lists facets as digit strings (vertices <= 5)
        facets = line.split(",")[0].split(":")[1].split("+")
        assert max(len(f) for f in facets) - 1 <= 1, line


def test_no_numpy_is_loaded():
    # a fresh interpreter answers an oracle query, a power piped into depth
    # and a small enumeration without importing numpy
    script = """
import contextlib, io, sys
from srpowers.cli import main
from srpowers.enumeration import distinct_complexes

def run(args, stdin=""):
    out = io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()

code, _ = run(["analyze", "uniform:6:3", "--kind", "sr-symbolic", "--m", "3", "--property", "cm", "--oracle"])
assert code == 0, code
code, power = run(["power", "cycle:6", "--m", "3", "--kind", "symbolic"])
assert code == 0, code
code, depth = run(["depth", "-"], power)
assert code == 0 and '"depth": 1' in depth, (code, depth)
assert sum(1 for _ in distinct_complexes(4)) == 28
assert "numpy" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SRPL_BUDGET_SECONDS", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
