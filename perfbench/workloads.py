"""Workloads of the `anyonrep verify` benchmark and their pinned outputs.

A workload run is a fixed list of `anyonrep verify` invocations, each run in
a fresh child process, one at a time.  An invocation's ``nu`` is drawn from
the benchmark seed inside the positivity window nu < 1/n_max; the pinned
expectations (exit code, relation count, unsatisfied relation ids) do not
depend on it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

NU_LO = 0.1       # away from the q -> 1 collapse
NU_HI_FRAC = 0.9  # of the positivity bound 1/n_max, away from [n_max]_q = 0


@dataclass(frozen=True)
class Invocation:
    label: str
    flags: tuple            # verify flags without --nu
    exit_code: int
    relations: int          # pinned total relation count in the report
    unsatisfied: dict = field(default_factory=dict)  # relation id -> count

    @property
    def n_max(self) -> int:
        return int(self.flags[self.flags.index("--nmax") + 1])

    @property
    def real_q(self) -> bool:
        """The flags fix a real q; no nu is drawn."""
        return "--q-real" in self.flags

    def argv(self, rng: random.Random) -> list:
        if self.real_q:
            return list(self.flags)
        nu = rng.uniform(NU_LO, NU_HI_FRAC / self.n_max)
        return list(self.flags) + ["--nu", f"{nu:.6f}"]


def _desk(label, extra, relations, exit_code=0, unsatisfied=None, N=1):
    flags = ("--M", "2", "--N", str(N), "--sites", "2", "--nmax", "2") + extra
    return Invocation(label, flags, exit_code, relations, unsatisfied or {})


WORKLOADS = {
    # ROADMAP headline rung: scalar q_number/diagonal/anyon paths and the
    # relation products dominate.  Pinned failures: the sea-ordering S >= 4
    # limit eq7c[0,0] and eq9-alphaM-img[-] at N=2, n_max=1.
    "boson-65k": [
        Invocation("M2 N2 S4 n_max1 sea",
                   ("--M", "2", "--N", "2", "--sites", "4", "--nmax", "1"),
                   1, 951, {"eq7c[0,0]": 1, "eq9-alphaM-img[-]": 1}),
    ],
    # one basis at five q values: generators are reassembled per q while
    # their q-independent parts are rebuilt; peak RSS is set by the dense
    # 4096^2 Z.toarray() of the cocycle check.
    "qsweep-4k": [
        Invocation("M2 N1 S4 n_max1 sea, 4 q samples",
                   ("--M", "2", "--N", "1", "--sites", "4", "--nmax", "1",
                    "--q-samples", "4"),
                   1, 3248, {"eq7c[0,0]": 5}),
    ],
    # many small processes: import and per-relation fixed costs dominate,
    # so work moved into set-up shows here as a loss.
    "desk-sweep": [
        _desk("1D sea (2,1)", (), 316),
        _desk("1D sea (2,2)", (), 541, N=2),
        _desk("1D empty (2,1)", ("--ordering", "empty"), 316),
        _desk("1D sea, real q=1.3", ("--q-real", "1.3"), 313),
        _desk("two sea lines", ("--lines", "2"), 652),
        _desk("sea + empty line", ("--lines", "2", "--ordering", "sea,empty"), 652),
        _desk("control disorder", ("--negative-control", "disorder"), 316, 1, {
            **{f"eq53{x}[k=1,(1, 0.5),(1, -0.5)]": 1
               for x in ("a", "b", "c", "d", "ta", "tb")},
            "eq7d[2,+]": 1, "eq7d[2,-]": 1, "eq8-img[2,1,-]": 1,
            "eq57[0]": 1, "eq57[2]": 1,
            "eq11a-split[2,+]": 1, "eq11a-split[2,-]": 1}),
        _desk("control h0delta", ("--negative-control", "h0delta"), 315, 1,
              {"eq7c[0,0]": 1, "eq2c[0,0]": 1, "eq29-gamma": 1}),
        _desk("control qalpha", ("--negative-control", "qalpha"), 316, 1, {
            "eq57[0]": 1, "eq57[1]": 1, "eq57[2]": 1,
            "eq11a-split[1,+]": 1, "eq11a-split[1,-]": 1,
            "eq11a-split[2,+]": 1, "eq11a-split[2,-]": 1}),
    ],
}

def invocations(workload: str, seed: int) -> list:
    """(Invocation, verify flags) pairs of one workload run at this seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [(inv, inv.argv(rng)) for inv in WORKLOADS[workload]]


def check_report(inv: Invocation, exit_code: int, report: dict | None) -> str | None:
    """None when the invocation's output matches the pinned expectation,
    else the reason it does not."""
    if report is None:
        return "no report written (crash)"
    reps = [r for suite in report["suites"].values() for r in suite["reports"]]
    if len(reps) != inv.relations:
        return f"{len(reps)} relations, expected {inv.relations}"
    bad = Counter()
    for r in reps:
        if not r["applicable"] or r["informational"]:
            continue
        # recompute the verdict from the residual rather than trust the flag
        passed = r["residual"] <= r["tol"]
        if passed != r["passed"] or passed == r["expect_fail"]:
            bad[r["relation_id"]] += 1
    if dict(bad) != inv.unsatisfied:
        return f"unsatisfied {dict(bad)}, expected {inv.unsatisfied}"
    if exit_code != inv.exit_code:
        return f"exit code {exit_code}, expected {inv.exit_code}"
    return None


def applicable_relations(report: dict) -> int:
    return sum(r["applicable"] for suite in report["suites"].values()
               for r in suite["reports"])
