import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

import commdiff
from commdiff import cli
from commdiff.cli import main
from commdiff.families import FamilySpec, build_case
from commdiff.numcore import get_precision, mpf_to_str, scalar
from commdiff.opalg import CoeffSeq


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
    assert report["ansatz_residual_rel"] == mpf_to_str(extras["ansatz_residual_rel"])


def test_verify_usage_errors(tmp_path):
    out = str(tmp_path / "r")
    assert run(["verify", "--family", "trig", "--g", "0", "--r1", "1", "--out", out]) == 2
    assert run(["verify", "--family", "poly", "--g", "1", "--a2", "0", "--out", out]) == 2
    assert run(["verify", "--family", "trig", "--g", "1", "--out", out]) == 2  # missing r1
    assert run(["verify", "--family", "trig", "--g", "1", "--r1", "1",
                "--tolerance", "-1", "--out", out]) == 2
    # the commands that take --tolerance and --window check them
    assert run(["partner", "--family", "trig", "--g", "1", "--r1", "1",
                "--tolerance", "0", "--out", out]) == 2
    assert run(["curve", "--family", "trig", "--g", "1", "--r1", "1",
                "--window", "5", "0", "--out", out]) == 2


def test_python_dash_m_commdiff_runs_the_cli(tmp_path):
    src = str(Path(commdiff.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def exit_code(*argv):
        proc = subprocess.run([sys.executable, "-m", "commdiff", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        return proc.returncode

    assert exit_code("verify", "--family", "elliptic", "--g", "1", "--out", "r") == 0
    assert exit_code("verify", "--family", "trig", "--g", "1", "--out", "r") == 2  # no --r1
    assert exit_code("no-such-command") == 2


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


@pytest.mark.parametrize("command, monic_key, residual_keys", [
    ("verify", "partner_monic",
     ("master_residual_rel", "linear_residual_rel", "commutator_residual_rel")),
    ("partner", "monic", ("commutator_residual_rel",)),
], ids=("verify", "partner"))
def test_verify_fails_non_monic_partner(tmp_path, monkeypatch, command, monic_key, residual_keys):
    # a partner that is non-monic by construction: the geom case's partner
    # times 1 + 1e-9.  Scaling leaves the relative commutator residual as it
    # is, so every residual passes and the verdict must not
    def scaled_case(spec, window):
        L2, partner, state, extras = build_case(spec, window)
        factor = CoeffSeq.constant(1 + mpf("1e-9"), partner.window)
        return L2, partner.scale_left(factor), state, extras

    monkeypatch.setattr(cli, "build_case", scaled_case)
    out = tmp_path / "reports"
    code = run([
        command, "--family", "geom", "--g", "1", "--a", "2", "--beta", "1",
        "--out", str(out),
    ])
    assert code == 1
    (path,) = (p for p in report_files(out) if not p.name.startswith("partner-op-"))
    doc = json.loads(path.read_text())
    assert doc["pass"] is False
    report = doc["report"]
    assert report[monic_key] is False
    for key in residual_keys:
        assert float(report[key]) <= 1e-9
    if command == "verify":
        assert report["commutator_window_covers"] is True


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


@pytest.mark.parametrize("window, n0, spans", [
    ((0, 0), 0, "needs L_base on [0, 7] and L_act on [0, 4]; "
                "the pair's windows are [-5, 8] and [-1, 3]"),
    ((-1, 1), 1, "needs L_base on [1, 8] and L_act on [1, 5]; "
                 "the pair's windows are [-5, 9] and [-2, 4]"),
], ids=("window-0-0", "window-1-1"))
def test_curve_on_a_short_window_names_the_extraction_stage(tmp_path, capsys, window, n0, spans):
    # the pair built on these windows is too short for the action matrix at
    # one of the base points -1, 0, 1; -2 2 is the shortest symmetric window
    # that passes
    argv = ["curve", "--family", "trig", "--g", "2", "--r1", "1", "--out", str(tmp_path)]
    code = run(argv + ["--window", str(window[0]), str(window[1])])
    assert code == 2
    assert f"error: curve extraction at base point n0={n0} {spans}" in capsys.readouterr().err
    assert run(argv + ["--window", "-2", "2"]) == 0


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


@pytest.mark.parametrize("bits", [113, 160])
def test_partner_report_state_reads_back_exactly(tmp_path, bits):
    out = tmp_path / "reports"
    code = run([
        "partner", "--family", "geom", "--g", "2", "--a", "2", "--beta", "1",
        "--window", "-8", "8", "--precision", str(bits), "--out", str(out),
    ])
    assert code == 0
    (path,) = [p for p in report_files(out) if not p.name.startswith("partner-op-")]
    doc = json.loads(path.read_text())["report"]["state"]
    with mp.workprec(bits):
        spec = FamilySpec("geom", 2, {"a": "2", "beta": "1"})
        _L2, _partner, state, _extras = build_case(spec, (-8, 8))
        lo, hi = state.window

        def read(values):
            return tuple(scalar(v) for v in values)

        assert doc["window"] == [lo, hi] and doc["g"] == 2
        assert read(doc["curve"]) == state.curve.c
        assert [read(cs) for cs in doc["S"]] == [state.s(n).coeffs for n in range(lo, hi + 1)]
        assert [read(cs) for cs in doc["Q"]] == [state.q(n).coeffs for n in range(lo + 1, hi + 1)]
        assert read(doc["U"]) == tuple(state.U.at(n) for n in range(lo, hi + 1))
        assert read(doc["W"]) == tuple(state.W.at(n) for n in range(lo, hi + 1))


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
    assert [scalar(e) for e in doc["config"]["lame"]["eps"]] == [mpf("0.1")]
    assert list(doc["report"]["continuum"]) == ["1"]
    # a flag beats the config file
    out = tmp_path / "flag"
    assert run(["lame", "--config", str(cfg), "--eps", "0.05", "--out", str(out)]) == 0
    (path,) = report_files(out)
    eps = json.loads(path.read_text())["config"]["lame"]["eps"]
    assert [scalar(e) for e in eps] == [mpf("0.05")]


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
        run(["curve", "--family", "trig", "--g", "1", "--r1", "1",
             "--config", str(cfg), "--out", str(tmp_path / "r")])
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


@pytest.mark.parametrize("argv, key", [
    (["curve", "--family", "trig", "--g", "1", "--r1", "1"], "tolerance"),
    (["lame"], "tolerance"),
    (["lame"], "window"),
    (["rank2"], "tolerance"),
    (["rank2"], "window"),
], ids=("curve-tolerance", "lame-tolerance", "lame-window", "rank2-tolerance", "rank2-window"))
def test_options_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv, key):
    # a command takes only the options it reads: as a flag, as a config key
    value = ["-1"] if key == "tolerance" else ["5", "0"]
    with pytest.raises(SystemExit) as exc:
        run([*argv, f"--{key}", *value, "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "1e-9" if key == "tolerance" else [-8, 8]}))
    capsys.readouterr()
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()


@pytest.mark.parametrize("spellings", [
    [["verify", "--family", "trig", "--g", "1", "--r1", "1", "--window", "-8", "8",
      "--tolerance", t] for t in ("1e-9", "1.0e-9", "0.000000001")]
    + [["verify", "--family", "trig", "--g", "1", "--r1", "1", "--window", "-8", "8",
        "--config", {"tolerance": 1e-9}]],
    [["lame", "--g-list", "1", "--eps", *eps, "--x0", x0]
     for eps, x0 in ((["0.1", "0.05"], "0.73"), (["0.10", "0.050"], "0.730"))]
    + [["lame", "--config", {"g-list": [1], "eps": [0.1, 0.05], "x0": 0.73}]],
], ids=("verify-tolerance", "lame-eps-x0"))
def test_one_run_has_one_report_name(tmp_path, spellings):
    # the config block holds parsed values, so every spelling of one value
    # names the same report, and the second run finds it in place
    out = tmp_path / "reports"
    for i, argv in enumerate(spellings):
        if isinstance(argv[-1], dict):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(argv[-1]))
            argv = [*argv[:-1], str(cfg)]
        assert run([*argv, "--out", str(out)]) == 0
        assert len(report_files(out)) == 1


@pytest.mark.parametrize("bits", [113, 160])
def test_config_decimals_read_back_to_the_parsed_inputs(tmp_path, bits):
    out = tmp_path / "reports"
    assert run(["verify", "--family", "trig", "--g", "1", "--r1", "1.3", "--window", "-8", "8",
                "--tolerance", "3e-9", "--precision", str(bits), "--out", str(out)]) == 0
    assert run(["lame", "--g-list", "1", "--eps", "0.1", "0.0125", "--x0", "0.91",
                "--g2", "10", "--g3", "-0.3", "--precision", str(bits), "--out", str(out)]) == 0
    lame, verify = (json.loads(p.read_text())["config"] for p in report_files(out))
    with mp.workprec(bits):
        assert scalar(verify["tolerance"]) == mpf("3e-9")
        assert scalar(verify["family"]["params"]["r1"]) == mpf("1.3")
        assert verify["window"] == [-8, 8]
        cfg = lame["lame"]
        assert [scalar(e) for e in cfg["eps"]] == [mpf("0.1"), mpf("0.0125")]
        assert (scalar(cfg["x0"]), scalar(cfg["g2"]), scalar(cfg["g3"])) == (
            mpf("0.91"), mpf(10), mpf("-0.3"))
    assert "tolerance" not in lame and "window" not in lame


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
    # the pin fit reads U on |n| <= basis size + 2, which these windows do
    # not cover
    out = tmp_path / "reports"
    assert run(["verify", *argv, "--out", str(out)]) == 0
    (path,) = report_files(out)
    assert json.loads(path.read_text())["pass"] is True


@pytest.mark.parametrize("command", ["verify", "curve", "partner"])
@pytest.mark.parametrize("family, key, value", [
    (["--family", "trig", "--g", "1", "--r1", "1"], "a2", "5"),
    (["--family", "trig", "--g", "1", "--r1", "1"], "beta", "3"),
    (["--family", "poly", "--g", "1", "--a2", "1"], "r1", "1"),
    (["--family", "geom", "--g", "1", "--a", "2", "--beta", "1"], "c2", "0"),
    (["--family", "elliptic", "--g", "1"], "a1", "0.5"),
    (["--family", "trig", "--g", "1", "--r1", "1"], "seed", "1234"),
    (["--family", "poly", "--g", "1", "--a2", "1"], "seed", "7"),
    (["--family", "geom", "--g", "1", "--a", "2", "--beta", "1"], "seed", "1234"),
], ids=("trig-a2", "trig-beta", "poly-r1", "geom-c2", "elliptic-a1",
        "trig-seed", "poly-seed", "geom-seed"))
def test_options_the_family_does_not_read_are_usage_errors(
        tmp_path, capsys, command, family, key, value):
    # each family takes only its own parameters, and only the elliptic
    # family a seed: as a flag and as a config key, exit 2 and no report
    argv = [command, *family, "--window", "-4", "4"]
    expected = "takes no seed" if key == "seed" else f"has no parameter [{key!r}]"
    assert run([*argv, f"--{key}", value, "--out", str(tmp_path / "flag")]) == 2
    assert expected in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: int(value) if key == "seed" else value}))
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()


def test_elliptic_default_seed_finds_the_default_report(tmp_path, capsys):
    out = tmp_path / "reports"
    argv = ["verify", "--family", "elliptic", "--g", "1", "--window", "-8", "8"]
    assert run([*argv, "--out", str(out)]) == 0
    (path,) = report_files(out)
    before = path.read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1234}))
    for extra in (["--seed", "1234"], ["--config", str(cfg)]):
        capsys.readouterr()
        assert run([*argv, *extra, "--out", str(out)]) == 0
        assert "report exists" in capsys.readouterr().out
        assert report_files(out) == [path] and path.read_bytes() == before


@pytest.mark.parametrize("argv, config, named", [
    (["--g-list", "--eps", "0.1"], None, ("--g-list", "--eps")),
    ([], {"g-list": [], "eps": ["0.1"]}, ("--g-list", "--eps")),
    (["--g-list", "--eps", "0.1", "0.10"], None, ("--eps", "distinct")),
    ([], {"g-list": [], "eps": ["0.1", 0.1]}, ("--eps", "distinct")),
], ids=("flags", "config", "repeated-eps-flags", "repeated-eps-config"))
def test_lame_with_nothing_to_check_is_a_usage_error(tmp_path, capsys, argv, config, named):
    # no genus for the continuum check and one step for the independence
    # check, or one step given twice: a run that checked nothing must not pass
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)]
    assert run(["lame", *argv, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named)
    assert not (tmp_path / "r").exists()


def test_verify_omits_the_skew_without_a_mirror_pair(tmp_path):
    # the state starts at n = 3, so no pair (n, -n-1) is compared
    out = tmp_path / "reports"
    assert run(["verify", "--family", "trig", "--g", "1", "--r1", "1", "--window", "5", "10",
                "--out", str(out)]) == 0
    (path,) = report_files(out)
    report = json.loads(path.read_text())["report"]
    assert "skew_residual_rel" not in report
    assert "master_residual_rel" in report
