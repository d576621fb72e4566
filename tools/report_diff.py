#!/usr/bin/env python3
"""Compare two `anyonrep verify` JSON reports.

    python3 tools/report_diff.py OLD.json NEW.json [--bound B] [--exit OLD NEW]

Lists, one line each:
- suite keys added or removed, and a change of their order;
- relation ids added, removed or moved within a suite key;
- changes of a report's verdict (its status), label (projector), equation,
  tol or params, and of the report's ``config_hash``, ``all_ok`` and
  ``counts``, and of the exit codes given with ``--exit``;
- each residual move, with its size.

``wall_time`` is ignored.  Exits 0 when nothing differs beyond ``--bound``,
1 otherwise, 2 when a report cannot be read.  The default bound 0 means
equal by ``float.hex``; a residual move of at most the bound is listed but
does not count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

FIELDS = ("equation", "projector", "tol", "params")
TOP = ("config_hash", "all_ok", "counts")


def status(r: dict) -> str:
    """The verdict of a report dict, as ``RelationReport.status`` names it."""
    if not r["applicable"]:
        return "n/a"
    if r["informational"]:
        return "info"
    if r["expect_fail"]:
        return "UNEXPECTED-PASS" if r["passed"] else "fails-as-expected"
    return "pass" if r["passed"] else "FAIL"


def _keyed(reports: list) -> dict:
    """Reports by (relation id, occurrence), in order."""
    seen, out = {}, {}
    for r in reports:
        n = seen[r["relation_id"]] = seen.get(r["relation_id"], 0) + 1
        out[(r["relation_id"], n)] = r
    return out


def _name(key) -> str:
    rid, n = key
    return rid if n == 1 else f"{rid}#{n}"


def _hex(x) -> str:
    return float(x).hex()


def diff_reports(old: dict, new: dict, bound: float = 0.0, exit_codes=None):
    """(differences, residual moves within the bound) between two reports,
    each a list of lines."""
    diffs, within = [], []
    for key in TOP:
        if old.get(key) != new.get(key):
            diffs.append(f"{key}: {old.get(key)!r} -> {new.get(key)!r}")
    if exit_codes is not None and exit_codes[0] != exit_codes[1]:
        diffs.append(f"exit code: {exit_codes[0]} -> {exit_codes[1]}")

    a, b = old["suites"], new["suites"]
    diffs += [f"suites: removed {k}" for k in a if k not in b]
    diffs += [f"suites: added {k}" for k in b if k not in a]
    common = [k for k in a if k in b]
    if common != [k for k in b if k in a]:
        diffs.append(f"suites: order {common} -> {[k for k in b if k in a]}")

    for suite in common:
        ra, rb = _keyed(a[suite]["reports"]), _keyed(b[suite]["reports"])
        diffs += [f"{suite}: removed {_name(k)}" for k in ra if k not in rb]
        diffs += [f"{suite}: added {_name(k)}" for k in rb if k not in ra]
        order_a = [k for k in ra if k in rb]
        order_b = [k for k in rb if k in ra]
        pos_b = {k: i for i, k in enumerate(order_b)}
        diffs += [f"{suite}: moved {_name(k)} {i} -> {pos_b[k]}"
                  for i, k in enumerate(order_a) if pos_b[k] != i]
        for k in order_a:
            x, y = ra[k], rb[k]
            if status(x) != status(y):
                diffs.append(f"{suite}: {_name(k)} verdict {status(x)} -> {status(y)}")
            for field in FIELDS:
                if x.get(field) != y.get(field):
                    diffs.append(f"{suite}: {_name(k)} {field} "
                                 f"{x.get(field)!r} -> {y.get(field)!r}")
            if _hex(x["residual"]) != _hex(y["residual"]):
                size = abs(y["residual"] - x["residual"])
                line = (f"{suite}: {_name(k)} residual {x['residual']!r} -> "
                        f"{y['residual']!r} (moved {size:.3g})")
                (within if size <= bound and not math.isnan(size) else diffs).append(line)
    return diffs, within


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--bound", type=float, default=0.0,
                    help="largest residual move that does not count (default 0)")
    ap.add_argument("--exit", type=int, nargs=2, metavar=("OLD", "NEW"),
                    help="the exit codes of the two runs")
    args = ap.parse_args(argv)
    try:
        reports = []
        for path in (args.old, args.new):
            with open(path) as fh:
                reports.append(json.load(fh))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diffs, within = diff_reports(*reports, bound=args.bound, exit_codes=args.exit)
    for line in diffs + within:
        print(line)
    print(f"{len(diffs)} differences, {len(within)} residual moves within bound {args.bound:g}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
