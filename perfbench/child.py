"""One `anyonrep verify` invocation, run as a fresh child process.

    python3 perfbench/child.py --out RESULT.json --src SRC_DIR
        --as-limit-mib N [--trace] -- <verify flags...>

Caps its own address space, runs the host-speed calibration bursts of
``pace.Pacer`` from its first line to the end of the verify run, times the
cold set-up (importing ``anyonrep.cli``, then the basis and both generator
sets of the invocation's base config, built through the same config path the
CLI uses so that ``cli.main`` finds them in the cache), runs
``cli.main(["verify", ...])`` and writes exit code, set-up seconds (without
the bursts that ran during set-up), the burst durations, their total and,
with ``--trace``, the per-layer metrics to RESULT.json.  Thread counts of the
BLAS libraries are pinned by the parent through the environment, before
numpy is imported here.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import pace

T_START = time.perf_counter()
PACER = pace.Pacer()
PACER.start()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--as-limit-mib", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("verify_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = ["verify"] + [a for a in opts.verify_args if a != "--"]

    limit = opts.as_limit_mib * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, opts.src)
    result = {"exit": None, "error": None}

    t0 = time.perf_counter()
    import anyonrep
    import anyonrep.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.realpath(anyonrep.__file__).startswith(os.path.realpath(opts.src)):
        raise SystemExit(f"anyonrep imported from {anyonrep.__file__}, not {opts.src}")

    tracer = None
    if opts.trace:
        import tracing
        suite_keys = {name: f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                      for name, fn in anyonrep.verify.SUITES.items()}
        tracer = tracing.Tracer()
        tracer.record("cli.import", import_s)
        tracer.install(anyonrep)

    from anyonrep.algebra import cached_basis, cached_generators

    try:
        run = cli.run_config_from(cli.build_parser().parse_args(argv))
        cfg, corruption = run.lattice, run.corruption
        cached_basis(cfg)
        cached_generators(cfg, True, corruption)
        cached_generators(cfg, False, corruption)
        result["setup_s"] = time.perf_counter() - T_START - PACER.spent
        result["exit"] = cli.main(argv)
    except Exception:
        # a crash is an operation failure, told apart by the missing report
        result["exit"] = 1
        result["error"] = traceback.format_exc(limit=-3)
    PACER.stop()
    result["bursts"] = PACER.bursts
    result["paced_s"] = PACER.spent
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(suite_keys)
    with open(opts.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
