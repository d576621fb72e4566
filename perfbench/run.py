#!/usr/bin/env python3
"""Benchmark of `anyonrep verify`: end-to-end timings and per-layer traces.

    python3 perfbench/run.py --workload {boson-65k,qsweep-4k,desk-sweep}
        [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports the package from its
``src/``.  One workload run is the workload's list of `verify` invocations,
each in a fresh child process (``child.py``), one at a time; workload runs
repeat while another one still fits in ``--seconds``.  Every invocation's
output is checked against the pinned expectation in ``workloads.py``; a
mismatch or crash counts as a failed operation.

Times are paced seconds (see ``pace.py``): each child runs a fixed
calibration burst every 50 ms, and a workload run's wall time without the
bursts is multiplied by the mean over its bursts of the reference burst time
over the burst's time, which cancels the drift of the shared host's
per-core speed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over workload runs.  ``--trace 1`` makes one untraced workload run, then
traced ones, and reports the per-layer metrics: counts of the first traced
run (they must repeat exactly in every traced run), times as medians.
``trace.overhead_s`` is traced minus untraced ``verify_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import pace  # noqa: E402
import workloads  # noqa: E402

AS_LIMIT_MIB = 3072  # per child: a full-dimension dense matrix fails fast
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
COUNT_SUFFIXES = (".calls", ".nnz", ".nnz_in", ".bytes_computed")

PROBE = """
import json, os, platform, sys
sys.path.insert(0, sys.argv[1])
import anyonrep.cli, numpy, scipy
assert os.path.realpath(anyonrep.__file__).startswith(os.path.realpath(sys.argv[1]))
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "anyonrep": anyonrep.__version__}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_invocation(workdir: str, inv, flags: list, traced: bool) -> dict:
    """Spawn one verify child, wait for it, check its output."""
    out = os.path.join(workdir, "child.json")
    report = os.path.join(workdir, "report.json")
    for path in (out, report):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--out", out,
           "--src", SRC, "--as-limit-mib", str(AS_LIMIT_MIB)]
    if traced:
        cmd.append("--trace")
    cmd += ["--"] + flags + ["--quiet", "--report", report]
    with open(os.path.join(workdir, "child.log"), "ab") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, cwd=workdir,
                                env=child_env())
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"maxrss_mib": rusage.ru_maxrss / 1024, "setup_s": 0.0,
           "relations": 0, "layers": {}, "bursts": [], "paced_s": 0.0}
    child = None
    if proc.returncode == 0 and os.path.exists(out):
        with open(out) as fh:
            child = json.load(fh)
    rep = None
    if os.path.exists(report):
        with open(report) as fh:
            rep = json.load(fh)
    if child is None:
        res["error"] = f"child exited with {proc.returncode}, no result"
        return res
    res["error"] = workloads.check_report(inv, child["exit"], rep)
    if res["error"] and child.get("error"):
        res["error"] += "\n" + child["error"]
    res["setup_s"] = child.get("setup_s", 0.0)
    res["bursts"] = child["bursts"]
    res["paced_s"] = child["paced_s"]
    res["layers"] = child.get("layers", {})
    if rep is not None:
        res["relations"] = workloads.applicable_relations(rep)
    return res


def workload_run(workdir: str, workload: str, seed: int, traced: bool) -> dict:
    """One run of every invocation of the workload; sums over its children.

    Times are paced seconds: wall time without the calibration bursts,
    scaled by ``pace.speed`` of all the run's bursts."""
    pairs = workloads.invocations(workload, seed)
    t0 = time.perf_counter()
    results = [run_invocation(workdir, inv, flags, traced) for inv, flags in pairs]
    wall_s = time.perf_counter() - t0
    bursts = [b for r in results for b in r["bursts"]]
    # without bursts every child crashed, and the run is failed already
    host_speed = pace.speed(bursts) if bursts else 1.0
    verify_s = (wall_s - sum(r["paced_s"] for r in results)) * host_speed
    errors = [f"{inv.label} {' '.join(flags)}: {r['error']}"
              for (inv, flags), r in zip(pairs, results) if r["error"]]
    setup_s = sum(r["setup_s"] for r in results) * host_speed
    relations = sum(r["relations"] for r in results)
    layers = {}
    for r in results:
        for k, v in r["layers"].items():
            layers[k] = layers.get(k, 0) + v
    return {
        "wall_s": wall_s,
        "host_speed": host_speed,
        "verify_s": verify_s,
        "setup_s": setup_s,
        "relations": relations,
        "relations_per_s": relations / (verify_s - setup_s),
        "peak_rss_mib": max(r["maxrss_mib"] for r in results),
        "attempted": len(results),
        "errors": errors,
        "layers": layers,
    }


def repeat(workdir, workload, seed, traced, deadline) -> list:
    """Workload runs until the next one would end after ``deadline``."""
    runs = []
    while True:
        t0 = time.perf_counter()
        runs.append(workload_run(workdir, workload, seed, traced))
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return runs


def describe(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    return (f"{name:<34} {med:>14.6g} {unit:<6} median of {len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def main() -> int:
    # on SIGTERM unwind normally, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "anyonrep", "cli.py")):
        print(f"no package source at {SRC}/anyonrep", file=sys.stderr)
        return 2
    probe = subprocess.run([sys.executable, "-c", PROBE, SRC], env=child_env(),
                           capture_output=True, text=True)
    if probe.returncode != 0:
        print(f"anyonrep does not import:\n{probe.stderr}", file=sys.stderr)
        return 2
    versions = json.loads(probe.stdout)
    print(f"host: nproc {os.cpu_count()}, python {versions['python']}, "
          f"numpy {versions['numpy']}, scipy {versions['scipy']}, "
          f"anyonrep {versions['anyonrep']}; children pinned to 1 BLAS/OpenMP "
          f"thread, RLIMIT_AS {AS_LIMIT_MIB} MiB")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: "
          + "; ".join(" ".join(f) for _, f in
                      workloads.invocations(args.workload, args.seed)))

    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-work"))
    deadline = time.perf_counter() + args.seconds
    try:
        if args.trace:
            plain = workload_run(workdir, args.workload, args.seed, False)
            traced = repeat(workdir, args.workload, args.seed, True, deadline)
            runs = [plain] + traced
        else:
            runs = repeat(workdir, args.workload, args.seed, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    for e in errors:
        print(f"FAILED {e}")
    correct = not errors
    metrics = {}
    if args.trace:
        defs = bench["per_layer"]
        first = traced[0]["layers"]
        for r in traced[1:]:
            drift = sorted(k for k in first if k.endswith(COUNT_SUFFIXES)
                           and r["layers"].get(k) != first[k])
            if drift:
                print(f"counts differ between traced runs: {drift}")
                correct = False
        traced_s = statistics.median(r["verify_s"] for r in traced)
        derived = {"trace.verify_s": [traced_s],
                   "trace.overhead_s": [traced_s - plain["verify_s"]]}
        for d in defs:
            name = d["name"]
            if name in derived:
                values = derived[name]
            elif name.endswith(COUNT_SUFFIXES):
                values = [first.get(name, 0)]
            else:
                # a crashed child leaves no layers; the run is already failed
                values = [r["layers"].get(name, 0.0) for r in traced]
            metrics[name] = (values, d["unit"])
    else:
        for d in bench["end_to_end"]:
            metrics[d["name"]] = ([r[d["name"]] for r in runs], d["unit"])

    for i, r in enumerate(runs):
        print(f"workload run {i}: wall {r['wall_s']:.4f} s, host speed "
              f"{r['host_speed']:.4f}, verify_s {r['verify_s']:.4f}, setup_s "
              f"{r['setup_s']:.4f}, {r['relations']} relations, peak_rss_mib "
              f"{r['peak_rss_mib']:.1f}" + (", traced" if args.trace and i else ""))
    print(f"{len(runs)} workload runs, operations: {attempted} attempted, "
          f"{len(errors)} failed")
    for name, (values, unit) in metrics.items():
        print(describe(name, values, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
