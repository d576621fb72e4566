#!/usr/bin/env python3
"""Show that two git refs give the same reports and exports.

    python3 tools/compare_refs.py OLD_REF NEW_REF [--bound B] [--work DIR]

Extracts a `git archive` copy of each ref, runs every `verify` flag set of
``tools/manifest.json`` on both (one child process at a time, importing the
package from the copy's ``src/``), compares each pair of reports with
``report_diff.diff_reports`` (``wall_time`` ignored, residuals equal by
``float.hex`` unless ``--bound`` is given), and compares each export of the
manifest byte for byte.  Prints every difference and a summary; exits 0 when
nothing differs beyond the bound.  ``--work`` keeps the copies, reports and
exports in DIR; by default they go to a temporary directory that is removed.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from report_diff import diff_reports  # noqa: E402


def checkout(ref: str, dest: str):
    """A `git archive` copy of ``ref`` in ``dest``."""
    archive = dest + ".tar"
    subprocess.run(["git", "-C", ROOT, "archive", "-o", archive, ref], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    os.remove(archive)


def run_anyonrep(tree: str, args: list) -> int:
    """Exit code of `anyonrep ARGS`, run from the copy in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.run([sys.executable, "-m", "anyonrep.cli", *args, "--quiet"],
                          env=env, cwd=tree, stdout=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_ref")
    ap.add_argument("new_ref")
    ap.add_argument("--bound", type=float, default=0.0,
                    help="largest residual move that does not count (default 0)")
    ap.add_argument("--work", help="keep the copies, reports and exports here")
    args = ap.parse_args(argv)
    with open(os.path.join(HERE, "manifest.json")) as fh:
        manifest = json.load(fh)
    flag_sets = manifest["verify"]
    work = args.work or tempfile.mkdtemp(prefix="anyonrep-compare-")
    os.makedirs(work, exist_ok=True)
    sides = {"old": args.old_ref, "new": args.new_ref}
    try:
        trees = {}
        for side, ref in sides.items():
            trees[side] = os.path.join(work, side)
            checkout(ref, trees[side])
            os.makedirs(os.path.join(work, side + "-out"), exist_ok=True)

        total = {"reports": 0, "differences": 0, "within": 0, "exports": 0, "unequal": 0}
        for name, flags in flag_sets.items():
            runs = {}
            for side, tree in trees.items():
                path = os.path.join(work, side + "-out", name + ".json")
                if os.path.exists(path):
                    os.remove(path)
                code = run_anyonrep(tree, ["verify", *flags, "--report", path])
                report = None
                if os.path.exists(path):
                    with open(path) as fh:
                        report = json.load(fh)
                runs[side] = (code, report)
            (code_a, old), (code_b, new) = runs["old"], runs["new"]
            if old is None or new is None:
                diffs = [] if (old, code_a) == (new, code_b) else [
                    f"report written: {old is not None} -> {new is not None}, "
                    f"exit code: {code_a} -> {code_b}"]
                within, count = [], 0
            else:
                diffs, within = diff_reports(old, new, args.bound, (code_a, code_b))
                count = sum(len(s["reports"]) for s in old["suites"].values())
            total["reports"] += count
            total["differences"] += len(diffs)
            total["within"] += len(within)
            print(f"{name}: {count} reports, exit {code_a} -> {code_b}, "
                  f"{len(diffs)} differences, {len(within)} residual moves within bound")
            for line in diffs + within:
                print("  " + line)

        exports = manifest["export"]
        for inst, flags in exports["instances"].items():
            for op_id in exports["ids"]:
                paths = []
                for side, tree in trees.items():
                    safe = op_id.replace(":", "_").replace("+", "p").replace("-", "m")
                    paths.append(os.path.join(work, side + "-out", f"{inst}-{safe}.txt"))
                    if os.path.exists(paths[-1]):
                        os.remove(paths[-1])
                    run_anyonrep(tree, ["export", op_id, *flags, "-o", paths[-1]])
                same = all(map(os.path.exists, paths)) and filecmp.cmp(*paths, shallow=False)
                total["exports"] += 1
                if not same:
                    total["unequal"] += 1
                    print(f"export {op_id} on {inst}: differs")

        print(f"{sides['old']} -> {sides['new']}: {len(flag_sets)} flag sets, "
              f"{total['reports']} reports, {total['differences']} differences, "
              f"{total['within']} residual moves within bound {args.bound:g}; "
              f"{total['exports'] - total['unequal']} of {total['exports']} exports identical")
        return 1 if total["differences"] or total["unequal"] else 0
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
