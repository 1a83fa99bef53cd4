import json

import pytest

from commdiff.cli import main
from commdiff.families import FamilySpec, build_case
from commdiff.numcore import get_precision, mpf_to_str


def run(argv):
    return main(argv)


def report_files(outdir):
    return sorted(p for p in outdir.iterdir() if p.suffix == ".json")


def test_verify_geom_passes(tmp_path):
    out = tmp_path / "reports"
    code = run([
        "verify", "--family", "geom", "--g", "1", "--a", "2", "--beta", "1",
        "--window", "-12", "12", "--out", str(out),
    ])
    assert code == 0
    (path,) = report_files(out)
    doc = json.loads(path.read_text())
    assert doc["pass"] is True
    assert doc["report"]["w_sign"] == 1


def test_verify_report_matches_build_case(tmp_path):
    out = tmp_path / "reports"
    code = run([
        "verify", "--family", "poly", "--g", "2", "--a2", "1", "--a0", "0", "--a1", "0.5",
        "--window", "-12", "12", "--out", str(out),
    ])
    assert code == 0
    (path,) = report_files(out)
    report = json.loads(path.read_text())["report"]
    spec = FamilySpec("poly", 2, {"a2": "1", "a0": "0", "a1": "0.5"})
    _L2, _partner, state, extras = build_case(spec, (-12, 12))
    assert report["curve"] == [mpf_to_str(c) for c in state.curve.c]
    assert report["ansatz_residual_rel"] == extras["ansatz_residual_rel"]


def test_verify_usage_errors(tmp_path):
    out = str(tmp_path / "r")
    assert run(["verify", "--family", "trig", "--g", "0", "--r1", "1", "--out", out]) == 2
    assert run(["verify", "--family", "poly", "--g", "1", "--a2", "0", "--out", out]) == 2
    assert run(["verify", "--family", "trig", "--g", "1", "--out", out]) == 2  # missing r1
    assert run(["verify", "--family", "trig", "--g", "1", "--r1", "1",
                "--tolerance", "-1", "--out", out]) == 2


def test_verify_check_failure_exits_one(tmp_path):
    # an unreachable tolerance turns residual checks into failures: exit 1
    out = tmp_path / "reports"
    code = run([
        "verify", "--family", "poly", "--g", "1", "--a2", "1", "--a0", "0",
        "--window", "-8", "8", "--tolerance", "1e-40", "--out", str(out),
    ])
    assert code == 1
    (path,) = report_files(out)
    assert json.loads(path.read_text())["pass"] is False


def test_verify_fails_non_monic_partner(tmp_path):
    # the partner's lead is within the pair rule's 1e-6 of 1 but not within
    # is_monic's 1e-12: every residual passes, the verdict must not
    out = tmp_path / "reports"
    code = run([
        "verify", "--family", "geom", "--g", "2", "--a", "1.764235", "--beta", "0.895178",
        "--out", str(out),
    ])
    assert code == 1
    (path,) = report_files(out)
    doc = json.loads(path.read_text())
    assert doc["pass"] is False
    assert doc["report"]["partner_monic"] is False
    assert float(doc["report"]["commutator_residual_rel"]) <= 1e-9


def test_curve_quartic(tmp_path):
    out = tmp_path / "reports"
    code = run([
        "curve", "--family", "poly", "--g", "1", "--a2", "1", "--a0", "0",
        "--window", "-10", "10", "--out", str(out),
    ])
    assert code == 0
    (path,) = report_files(out)
    doc = json.loads(path.read_text())
    curve = [float(c) for c in doc["report"]["spectral"]["curve"]]
    assert abs(curve[0] - 1 / 16) <= 1e-8
    assert abs(curve[1] - 9 / 16) <= 1e-8
    assert abs(curve[2] - 3 / 2) <= 1e-8


def test_partner_writes_operator(tmp_path):
    out = tmp_path / "reports"
    code = run([
        "partner", "--family", "elliptic", "--g", "1",
        "--window", "-8", "8", "--out", str(out),
    ])
    assert code == 0
    ops = [p for p in out.iterdir() if p.name.startswith("partner-op-")]
    assert len(ops) == 1
    from commdiff.opalg import op_from_json

    op = op_from_json(ops[0].read_text())
    assert op.order == 3
    assert op.is_monic()


def test_rank2_command(tmp_path):
    out = tmp_path / "reports"
    assert run(["rank2", "--out", str(out)]) == 0


def test_lame_command(tmp_path):
    out = tmp_path / "reports"
    code = run(["lame", "--eps", "0.1", "0.05", "--g-list", "1", "--out", str(out)])
    assert code == 0
    (path,) = report_files(out)
    doc = json.loads(path.read_text())
    assert float(doc["report"]["independence"]["cross_eps_curve_deviation"]) <= 1e-4


def test_lame_broken_operator_fails_the_check(tmp_path, monkeypatch):
    # A_1 off by 0.01: the closed-form parameters miss the genus-1 chain
    # (chain residuals near 7e-5 and 2e-5), so each step reports its chain
    # residual without a curve and the run exits 1, not 2
    from mpmath import mpf

    from commdiff import lame

    ag_build = lame.ag_build

    def bumped(ctx, g, eps):
        a = ag_build(ctx, g, eps)
        return lambda x: a(x) + mpf("0.01")

    monkeypatch.setattr(lame, "ag_build", bumped)
    out = tmp_path / "reports"
    code = run(["lame", "--g-list", "--eps", "0.1", "0.05", "--x0", "0.73",
                "--out", str(out)])
    assert code == 1
    (path,) = report_files(out)
    doc = json.loads(path.read_text())
    assert doc["pass"] is False
    per_eps = doc["report"]["independence"]["per_eps"]
    assert [float(e["newton_residual"]) > 1e-8 for e in per_eps] == [True, True]
    assert all(e["curve_monic"] is None for e in per_eps)


def test_lame_has_one_bracket_reading(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["lame", "--a2-interpretation", "full", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2


def test_reports_deterministic_and_rerun(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["verify", "--family", "poly", "--g", "1", "--a2", "1", "--a0", "0",
            "--window", "-8", "8"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    (p1,) = report_files(out1)
    (p2,) = report_files(out2)
    assert p1.name == p2.name
    assert p1.read_bytes() == p2.read_bytes()
    # existing report is preserved without --rerun
    before = p1.read_bytes()
    assert run(argv + ["--out", str(out1)]) == 0
    assert p1.read_bytes() == before
    assert run(argv + ["--out", str(out1), "--rerun"]) == 0
    assert p1.read_bytes() == before  # deterministic rewrite


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a2": "1", "a0": "0"}))
    out = tmp_path / "reports"
    code = run([
        "verify", "--family", "poly", "--g", "1", "--config", str(cfg),
        "--window", "-8", "8", "--out", str(out),
    ])
    assert code == 0


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert run(["rank2", "--config", str(missing), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lame_rejects_removed_inputs(tmp_path):
    out = str(tmp_path / "r")
    # --g-list is the one genus input, and --eps takes space-separated steps
    with pytest.raises(SystemExit) as exc:
        run(["lame", "--g", "1", "--out", out])
    assert exc.value.code == 2
    assert run(["lame", "--eps", "0.1,0.05", "--out", out]) == 2


def test_lame_genus_zero_is_a_domain_error(tmp_path):
    assert run(["lame", "--g-list", "0", "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("invariants", [
    ["--g2", "10", "--g3", "2", "--x0", "0.91"],
    ["--g2", "4", "--g3", "0", "--x0", "1.27"],
])
def test_lame_closed_form_steps(tmp_path, invariants):
    # two configs on which a fitted recovery of the genus-1 parameters stalls
    out = tmp_path / "reports"
    code = run(["lame", "--g-list", "1", "--eps", "0.1", "0.0125", *invariants,
                "--out", str(out)])
    assert code == 0
    (path,) = report_files(out)
    indep = json.loads(path.read_text())["report"]["independence"]
    assert float(indep["cross_eps_curve_deviation"]) <= 1e-15
    assert all(float(e["newton_residual"]) <= 1e-30 for e in indep["per_eps"])


def test_precision_zero_is_a_usage_error(tmp_path):
    assert run(["lame", "--g-list", "1", "--precision", "0",
                "--out", str(tmp_path / "r")]) == 2


def test_precision_is_scoped_to_the_call(tmp_path):
    before = get_precision()
    out = tmp_path / "reports"
    assert run(["rank2", "--precision", "60", "--out", str(out)]) == 0
    assert get_precision() == before
    (path,) = report_files(out)
    assert json.loads(path.read_text())["config"]["precision_bits"] == 60


def test_config_file_sets_options_with_builtin_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    out = tmp_path / "verify"
    assert run(["verify", "--family", "elliptic", "--g", "1", "--window", "-8", "8",
                "--config", str(cfg), "--out", str(out)]) == 0
    (path,) = report_files(out)
    assert json.loads(path.read_text())["config"]["seed"] == 7

    cfg.write_text(json.dumps({"g-list": [1], "eps": ["0.1"]}))
    out = tmp_path / "lame"
    assert run(["lame", "--config", str(cfg), "--out", str(out)]) == 0
    (path,) = report_files(out)
    doc = json.loads(path.read_text())
    assert doc["config"]["lame"]["g_list"] == [1]
    assert doc["config"]["lame"]["eps"] == ["0.1"]
    assert list(doc["report"]["continuum"]) == ["1"]
    # a flag beats the config file
    out = tmp_path / "flag"
    assert run(["lame", "--config", str(cfg), "--eps", "0.05", "--out", str(out)]) == 0
    (path,) = report_files(out)
    assert json.loads(path.read_text())["config"]["lame"]["eps"] == ["0.05"]


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"z-interval": [-4, 4]}))
    assert run(["rank2", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "z-interval" in capsys.readouterr().err


def test_malformed_config_value_is_a_usage_error(tmp_path, capsys):
    # config values are parsed like the flags: --window takes two integers
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": 5}))
    with pytest.raises(SystemExit) as exc:
        run(["rank2", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--window" in err
    assert "Traceback" not in err


def test_config_values_are_typed_like_flags(tmp_path):
    # "1", 1 and the flag --g-list 1 are one run, with one report name
    names = set()
    for i, g_list in enumerate((["1"], [1])):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"g_list": g_list, "eps": ["0.1", "0.05"]}))
        out = tmp_path / f"r{i}"
        assert run(["lame", "--config", str(cfg), "--out", str(out)]) == 0
        names.add(report_files(out)[0].name)
    out = tmp_path / "flags"
    assert run(["lame", "--g-list", "1", "--eps", "0.1", "0.05", "--out", str(out)]) == 0
    names.add(report_files(out)[0].name)
    assert len(names) == 1


def test_family_and_genus_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "poly", "g": 1, "a2": "1"}))
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert run(["verify", "--family", "poly", "--g", "1", "--a2", "1",
                "--out", str(tmp_path / "flags")]) == 0
    (from_file,) = report_files(tmp_path / "file")
    (from_flags,) = report_files(tmp_path / "flags")
    assert from_file.name == from_flags.name
    assert from_file.read_bytes() == from_flags.read_bytes()
    # missing from both the flags and the file: a usage error naming both
    cfg.write_text(json.dumps({"a2": "1"}))
    capsys.readouterr()
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "--family" in err and "--g" in err


@pytest.mark.parametrize("argv", [
    ["--family", "trig", "--g", "4", "--r1", "1", "--window", "-3", "3"],
    ["--family", "poly", "--g", "3", "--a2", "1", "--a0", "0", "--a1", "0.5",
     "--window", "-6", "6"],
    ["--family", "poly", "--g", "5", "--a2", "1", "--a0", "0", "--a1", "0.5",
     "--window", "-1", "1"],
    ["--family", "trig", "--g", "1", "--r1", "1", "--window", "30", "40"],
])
def test_verify_windows_off_the_sampled_grid(tmp_path, argv):
    # the sampled solve reads U and W on |n| <= basis size + 4, which these
    # windows do not cover
    out = tmp_path / "reports"
    assert run(["verify", *argv, "--out", str(out)]) == 0
    (path,) = report_files(out)
    assert json.loads(path.read_text())["pass"] is True
