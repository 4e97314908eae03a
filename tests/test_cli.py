import json
import subprocess
import sys

import pytest

from srpowers.cli import main
from srpowers.complexes import complex_from_json, cycle
from srpowers.fixtures import parse_complex_spec, parse_input
from srpowers.ideals import MonomialIdeal, ideal_from_json, symbolic_power


def run_cli(*args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "srpowers.cli", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
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


def test_sweep_dim_filter_and_parallel_determinism():
    base = run_cli("sweep", "--check", "graph-4-cycle-criterion", "--n-max", "5",
                   "--dim-filter", "1")
    par = run_cli("sweep", "--check", "graph-4-cycle-criterion", "--n-max", "5",
                  "--dim-filter", "1", "--parallel", "2")
    assert base.returncode == par.returncode == 0

    def strip_seconds(text):
        rows = []
        for line in text.strip().splitlines()[1:]:
            if line.startswith("#"):
                continue
            rows.append(",".join(line.split(",")[:4]))
        return rows

    assert strip_seconds(base.stdout) == strip_seconds(par.stdout)


def test_sweep_budget_resume_token():
    r = run_cli("sweep", "--check", "sym-cube-cm", "--n-max", "5", "--dim-filter", ">=2",
                "--budget-seconds", "0.05")
    assert r.returncode == 3
    assert "# resume-token:" in r.stdout
    token = int(r.stdout.rsplit("# resume-token:", 1)[1].strip())
    assert token >= 1


def test_sweep_n7_needs_a_sample():
    r = run_cli("sweep", "--check", "matroid-pair-criterion", "--n-max", "7")
    assert r.returncode == 64
    assert "--sample" in r.stderr


def test_sweep_unknown_check():
    r = run_cli("sweep", "--check", "no-such-check", "--n-max", "4")
    assert r.returncode == 64


def test_budget_env_var_default():
    proc = subprocess.run(
        [sys.executable, "-m", "srpowers.cli", "sweep", "--check", "sym-cube-cm",
         "--n-max", "5", "--dim-filter", ">=2"],
        capture_output=True,
        text=True,
        env={"SRPL_BUDGET_SECONDS": "0.05", "PATH": "/usr/bin:/bin", "PYTHONPATH": "src"},
    )
    assert proc.returncode == 3
    assert "# resume-token:" in proc.stdout


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
    r = run_cli("power", json.dumps({"n": 12, "gens": [[1, 1] + [0] * 10]}),
                "--m", "4", "--kind", "symbolic")
    assert r.returncode == 3
    assert "desk-scale limit" in r.stderr
