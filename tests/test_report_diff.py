"""``tools/report_diff.py`` on synthetic reports."""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import report_diff  # noqa: E402


def _report(ids, residuals=None, wall=0.0, passed=None):
    residuals = residuals or {}
    passed = passed or {}
    reps = [{"relation_id": rid, "equation": "Eq. (7c)", "params": {"alpha": 0},
             "projector": "identity", "residual": residuals.get(rid, 1e-16), "tol": 1e-10,
             "passed": passed.get(rid, True), "applicable": True, "expect_fail": False,
             "informational": False, "wall_time": wall}
            for rid in ids]
    return {"config_hash": "h", "all_ok": all(r["passed"] for r in reps),
            "counts": {"total": len(reps)}, "suites": {"quantum": {"reports": reps}}}


IDS = ["eq7a[0,0]", "eq7b[0,0,+]", "eq7c[0,0]", "eq7d[0,+]"]


def _run(tmp_path, old, new, *flags):
    paths = []
    for name, rep in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump(rep, fh)
    return report_diff.main([*paths, *flags])


def test_equal_reports_differ_in_nothing_but_wall_time(tmp_path, capsys):
    assert _run(tmp_path, _report(IDS), _report(IDS, wall=3.0)) == 0
    assert "0 differences" in capsys.readouterr().out


@pytest.mark.parametrize("bound", ["0", "1e-15"])
def test_each_change_is_listed(tmp_path, capsys, bound):
    """An added id, a moved id and a verdict change count at every bound."""
    moved = [IDS[1], IDS[0], *IDS[2:]]
    cases = {
        "added eq7e[0]": _report(IDS + ["eq7e[0]"]),
        "moved eq7a[0,0] 0 -> 1": _report(moved),
        "eq7c[0,0] verdict pass -> FAIL": _report(IDS, passed={"eq7c[0,0]": False}),
    }
    for line, new in cases.items():
        assert _run(tmp_path, _report(IDS), new, "--bound", bound) == 1, line
        assert line in capsys.readouterr().out


def test_a_one_ulp_residual_move_counts_only_at_bound_zero(tmp_path, capsys):
    ulp = {"eq7c[0,0]": math.nextafter(1e-16, 1.0)}
    assert _run(tmp_path, _report(IDS), _report(IDS, ulp)) == 1
    out = capsys.readouterr().out
    assert "eq7c[0,0] residual" in out and "1 differences" in out
    assert _run(tmp_path, _report(IDS), _report(IDS, ulp), "--bound", "1e-15") == 0
    out = capsys.readouterr().out
    assert "0 differences, 1 residual moves within bound" in out


def test_suite_key_order_and_exit_codes(tmp_path):
    old, new = _report(IDS), _report(IDS)
    old["suites"]["serre"] = new["suites"]["serre"] = {"reports": []}
    new["suites"] = dict(reversed(list(new["suites"].items())))
    diffs, _ = report_diff.diff_reports(old, new, exit_codes=(0, 1))
    assert diffs == ["exit code: 0 -> 1",
                     "suites: order ['quantum', 'serre'] -> ['serre', 'quantum']"]
