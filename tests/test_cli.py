import json

import pytest

from commdiff.cli import main
from commdiff.families import FamilySpec, build_case
from commdiff.numcore import mpf_to_str, set_precision


@pytest.fixture(autouse=True)
def restore_precision():
    yield
    set_precision(113)


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
    assert doc["report"]["a2_interpretation"] == "full"
    assert float(doc["report"]["independence"]["cross_eps_curve_deviation"]) <= 1e-4


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


def test_precision_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("COMMDIFF_PRECISION_BITS", "160")
    out = tmp_path / "reports"
    code = run([
        "verify", "--family", "poly", "--g", "1", "--a2", "1", "--a0", "0",
        "--window", "-6", "6", "--out", str(out),
    ])
    assert code == 0
    from commdiff.numcore import get_precision

    assert get_precision() == 160
