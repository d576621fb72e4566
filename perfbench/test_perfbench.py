"""Tests of the benchmark itself: seed independence of the verdicts, exact
repetition of traced counts, the calibration bursts, and the output check.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import shutil
import sys
import tempfile
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    parent = os.path.join(run.ROOT, ".perfbench-work")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_two_seeds_give_the_pinned_verdicts(workdir):
    flags = {}
    for seed in (3, 4):
        r = run.workload_run(workdir, "desk-sweep", seed, traced=False)
        assert r["errors"] == []
        assert r["attempted"] == len(workloads.WORKLOADS["desk-sweep"])
        flags[seed] = [f for _, f in workloads.invocations("desk-sweep", seed)]
    assert flags[3] != flags[4]


def test_nu_is_drawn_from_the_seed_inside_the_positivity_window():
    for name in workloads.WORKLOADS:
        for seed in range(20):
            pairs = workloads.invocations(name, seed)
            assert [f for _, f in pairs] == [
                f for _, f in workloads.invocations(name, seed)]
            for inv, flags in pairs:
                if inv.real_q:
                    assert "--nu" not in flags
                    continue
                nu = float(flags[flags.index("--nu") + 1])
                assert workloads.NU_LO <= nu <= workloads.NU_HI_FRAC / inv.n_max
                assert nu < 1 / inv.n_max


def test_traced_counts_repeat_exactly(workdir):
    inv, flags = workloads.invocations("desk-sweep", 0)[0]
    first = run.run_invocation(workdir, inv, flags, traced=True)
    second = run.run_invocation(workdir, inv, flags, traced=True)
    assert first["error"] is None and second["error"] is None
    counts = {k: v for k, v in first["layers"].items()
              if k.endswith(run.COUNT_SUFFIXES)}
    assert counts["fock.q_number.calls"] > 0
    assert counts["report.check.calls"] > 0
    assert counts == {k: second["layers"][k] for k in counts}


def test_pacer_times_its_bursts():
    pacer = pace.Pacer()
    pacer.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * pace.INTERVAL_S:
            pass
    finally:
        pacer.stop()
    assert len(pacer.bursts) >= 3
    assert pacer.spent == pytest.approx(sum(pacer.bursts))
    assert pacer.spent < time.perf_counter() - t0
    assert pace.speed([2 * pace.REF_BURST_S]) == pytest.approx(0.5)


def _report(residuals, tol=1e-10, expect_fail=()):
    reps = [{"relation_id": rid, "residual": res, "tol": tol,
             "passed": res <= tol, "applicable": True, "informational": False,
             "expect_fail": rid in expect_fail}
            for rid, res in residuals]
    return {"suites": {"s": {"reports": reps}}}


def test_check_report_catches_each_mismatch():
    inv = workloads.Invocation("x", ("--nmax", "1"), 1, 3, {"bad": 1})
    ok = _report([("a", 0.0), ("bad", 1.0), ("ctl", 1.0)], expect_fail={"ctl"})
    assert workloads.check_report(inv, 1, ok) is None
    assert "crash" in workloads.check_report(inv, 1, None)
    assert "exit code" in workloads.check_report(inv, 0, ok)
    assert "relations" in workloads.check_report(
        inv, 1, _report([("a", 0.0), ("bad", 1.0)]))
    # a new failure, a fixed pinned failure, a control that passes
    for residuals in ([("a", 1.0), ("bad", 1.0), ("ctl", 1.0)],
                      [("a", 0.0), ("bad", 0.0), ("ctl", 1.0)],
                      [("a", 0.0), ("bad", 1.0), ("ctl", 0.0)]):
        assert "unsatisfied" in workloads.check_report(
            inv, 1, _report(residuals, expect_fail={"ctl"}))
    # the verdict is recomputed from the residual, not read from the flag
    lying = _report([("a", 1.0), ("bad", 1.0), ("ctl", 1.0)], expect_fail={"ctl"})
    lying["suites"]["s"]["reports"][0]["passed"] = True
    assert workloads.check_report(inv, 1, lying) is not None
