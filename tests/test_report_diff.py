import copy
import sys
from decimal import Decimal
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import report_diff  # noqa: E402
from report_diff import compare, diff_report  # noqa: E402

VERIFY = "verify --family trig --g 2 --r1 1"
PARTNER = "partner --family geom --g 1 --a 2 --beta 1"


def _run():
    """A hand-made collect() result: two runs and their three files."""
    return {
        "runs": [[VERIFY, 0, "verify-a.json"], [PARTNER, 1, "partner-b.json"]],
        "reports": {
            "verify-a.json": {
                "config": {"command": "verify", "precision_bits": 113},
                "pass": True,
                "report": {"master_residual_rel": "6.6e-34", "linear_residual_rel": "2.9e-34",
                           "partner_monic": True, "curve": ["0.25", "1.5"]},
            },
            "partner-b.json": {
                "config": {"command": "partner", "precision_bits": 53},
                "pass": False,
                "report": {"commutator_residual_rel": "1e-12", "monic": False,
                           "defects": ["0.04", "0.02"]},
            },
            "partner-op-b.json": {"order": 3, "terms": {"0": ["1.0", "2.0"]}},
        },
        "errors": {},
    }


def test_identical_runs_print_no_change():
    lines, counts = compare(_run(), _run())
    assert lines[-1] == "no change"
    assert lines[0].startswith("summary: 2 runs, 3 files")
    # both residuals of the verify report, one of the partner report and its
    # two defects
    assert counts["residuals compared"] == 5
    assert counts["residuals changed"] == counts["other fields changed"] == 0
    assert "  largest residual growth: none" in lines


def test_exit_changes_flips_and_residuals_are_listed():
    new = _run()
    new["runs"][1][1] = 0
    rep = new["reports"]["partner-b.json"]
    rep["pass"], rep["report"]["monic"] = True, True
    rep["report"]["commutator_residual_rel"] = "1e-17"
    new["reports"]["verify-a.json"]["report"]["master_residual_rel"] = "1.32e-33"
    lines, counts = compare(_run(), new)
    text = "\n".join(lines)
    assert f"exit 1 -> 0: {PARTNER}" in lines
    assert "  flip pass: false -> true" in lines and "  flip report/monic: false -> true" in lines
    assert f"partner-b.json ({PARTNER})" in lines
    # 1e-17 is below 2^-53 but 1e-12 is not; both verify values lie above 2^-113
    assert "  report/commutator_residual_rel: 1e-12 -> 1e-17  ratio 1e-05" \
           "  both below 2^-p: no" in lines
    assert "  report/master_residual_rel: 6.6e-34 -> 1.32e-33  ratio 2" \
           "  both below 2^-p: no" in lines
    assert counts["exit changes"] == 1 and counts["verdict flips"] == 2
    assert (counts["residuals changed"], counts["smaller"], counts["larger"]) == (2, 1, 1)
    assert lines[-1] == "reports changed" and text.index("summary") > text.index("flip")
    # the commutator residual fell; the master residual's 2x is the largest growth
    assert lines[-2] == f"  largest residual growth: ratio 2, report/master_residual_rel in " \
        f"verify-a.json ({VERIFY}): 6.6e-34 -> 1.32e-33, both below 2^-p: no"


def test_below_precision_other_fields_and_lone_files():
    base, new = _run(), _run()
    # both below 2^-113 = 9.6e-35
    base["reports"]["verify-a.json"]["report"]["linear_residual_rel"] = "5e-35"
    new["reports"]["verify-a.json"]["report"]["linear_residual_rel"] = "1e-35"
    new["reports"]["verify-a.json"]["report"]["curve"][1] = "1.25"
    del new["reports"]["partner-op-b.json"]
    new["reports"]["curve-c.json"] = {"config": {"precision_bits": 113}}
    lines, counts = compare(base, new)
    assert "  report/linear_residual_rel: 5e-35 -> 1e-35  ratio 0.2" \
           "  both below 2^-p: yes" in lines
    assert "  1 other fields changed" in lines
    assert "partner-op-b.json: only in base" in lines and "curve-c.json: only in new" in lines
    assert counts["files only in base"] == counts["files only in new"] == 1


def test_largest_growth_is_the_largest_ratio_across_reports():
    # a 3x rise in one report beats a 2x rise in another; below 2^-p is
    # judged at each report's precision, and a value rising from 0 is the
    # largest growth of all
    base, new = _run(), _run()
    new["reports"]["verify-a.json"]["report"]["linear_residual_rel"] = "5.8e-34"
    new["reports"]["partner-b.json"]["report"]["defects"][1] = "0.06"
    lines, _counts = compare(base, new)
    assert lines[-2] == "  largest residual growth: ratio 3, report/defects/1 in " \
        f"partner-b.json ({PARTNER}): 0.02 -> 0.06, both below 2^-p: no"
    base["reports"]["partner-b.json"]["report"]["commutator_residual_rel"] = "0"
    lines, _counts = compare(base, new)
    assert lines[-2].startswith("  largest residual growth: ratio inf, "
                                "report/commutator_residual_rel in partner-b.json")
    # a file that no run named keeps its bare name
    base, new = _run(), _run()
    base["reports"]["partner-op-b.json"]["mismatch"] = "1e-40"
    new["reports"]["partner-op-b.json"]["mismatch"] = "4e-40"
    lines, _counts = compare(base, new)
    assert lines[-2] == "  largest residual growth: ratio 4, mismatch in partner-op-b.json: " \
        "1e-40 -> 4e-40, both below 2^-p: ?"


def test_diff_report_is_pure_and_handles_zero_and_missing_precision():
    base = {"report": {"closure_defect": "0.0", "mismatch": ["0.0", "2e-3"]}}
    new = {"report": {"closure_defect": "3e-40", "mismatch": ["0.0", "1e-3"]}}
    frozen = copy.deepcopy((base, new))
    d = diff_report(base, new)
    assert (base, new) == frozen
    (zero, half) = d["residuals"]
    assert zero[3] == Decimal("Infinity") and zero[4] is None
    assert half[3] == Decimal("0.5") and d["compared"] == 3


def test_listings_must_match():
    new = _run()
    new["runs"][0][0] = "rank2"
    with pytest.raises(ValueError):
        compare(_run(), new)


@pytest.mark.parametrize("new_errors, status", [({}, 0), ({VERIFY: "error: boom"}, 1)])
def test_only_a_new_exit_two_fails_the_tool(monkeypatch, capsys, new_errors, status):
    changed = _run()
    changed["reports"]["verify-a.json"]["pass"] = False
    changed["errors"] = new_errors
    docs = iter([_run(), changed])
    monkeypatch.setattr(report_diff, "collect", lambda src, tmp: next(docs))
    assert report_diff.main(["--base", "old", "--new", "new"]) == status
    out = capsys.readouterr().out
    assert "flip pass: true -> false" in out
    assert ("error: boom" in out) == bool(status)


def test_largest_growth_not_both_below_precision_is_named_apart():
    # a 5x rise below 2^-113 leads the overall line; the 1.5x rise above
    # 2^-53 leads the line of residuals not both below 2^-p, and a value
    # rising from below 2^-p to above it counts there too
    base, new = _run(), _run()
    base["reports"]["verify-a.json"]["report"]["linear_residual_rel"] = "1e-36"
    new["reports"]["verify-a.json"]["report"]["linear_residual_rel"] = "5e-36"
    new["reports"]["partner-b.json"]["report"]["commutator_residual_rel"] = "1.5e-12"
    lines, _counts = compare(base, new)
    assert lines[-3] == "  largest residual growth not both below 2^-p: ratio 1.5, " \
        f"report/commutator_residual_rel in partner-b.json ({PARTNER}): 1e-12 -> 1.5e-12, " \
        "both below 2^-p: no"
    assert lines[-2].startswith("  largest residual growth: ratio 5, "
                                "report/linear_residual_rel in verify-a.json")
    new["reports"]["verify-a.json"]["report"]["linear_residual_rel"] = "2e-34"
    lines, _counts = compare(base, new)
    assert lines[-3] == lines[-2].replace("growth:", "growth not both below 2^-p:")
    assert "ratio 200, report/linear_residual_rel" in lines[-2]
    # with no rise above 2^-p that line reads none
    lines, _counts = compare(_run(), _run())
    assert lines[-3] == "  largest residual growth not both below 2^-p: none"
