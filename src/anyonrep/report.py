"""Relation reports, the identity-checking primitive, and the catalog of
relation families.

Every verified identity produces one :class:`RelationReport`.  ``passed`` is
always ``residual <= tol``; sensitivity controls that are *expected* to fail
carry ``expect_fail=True`` and count as satisfied when they do fail.

A relation id is a family id, optionally followed by an index in brackets
(``eq7c[0,1]``).  Every family a suite emits is declared once in
:data:`CATALOG`, which is also what ``anyonrep list`` prints; suites emit
through :class:`SuiteReports`, which takes the equation tag from there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import scipy.sparse as sp

from .fock import residual_norm


@dataclass
class RelationReport:
    relation_id: str
    equation: str
    params: dict = field(default_factory=dict)
    projector: str = "identity"
    residual: float = 0.0
    tol: float = 1e-10
    passed: bool = True
    applicable: bool = True
    expect_fail: bool = False
    informational: bool = False
    wall_time: float = 0.0

    @property
    def satisfied(self) -> bool:
        """Whether this report counts as OK for the run outcome."""
        if not self.applicable or self.informational:
            return True
        return (not self.passed) if self.expect_fail else self.passed

    def to_dict(self) -> dict:
        return asdict(self)

    def summary_line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        if not self.applicable:
            mark = "n/a"
        elif self.informational:
            mark = "info"
        elif self.expect_fail:
            mark = "fails-as-expected" if not self.passed else "UNEXPECTED-PASS"
        return (f"{self.relation_id:<34} {self.equation:<12} "
                f"residual={self.residual:.3e}  [{self.projector}]  {mark}")


def check_identity(relation_id: str, equation: str, lhs: sp.spmatrix,
                   rhs: sp.spmatrix, projector: sp.spmatrix | None = None, *,
                   tol: float, params: dict | None = None,
                   projector_desc: str | None = None,
                   projector_side: str = "both",
                   expect_fail: bool = False,
                   informational: bool = False) -> RelationReport:
    """Residual of lhs - rhs, sandwiched (or right-multiplied) by a projector.

    ``projector_side`` is "both" for P (lhs - rhs) P or "right" for
    (lhs - rhs) P, the latter used for identities that annihilate a protected
    subspace outright.
    """
    t0 = time.perf_counter()
    if lhs.shape != rhs.shape:
        raise ValueError(f"operator dimensions differ: {lhs.shape} vs {rhs.shape}")
    diff = (lhs - rhs).tocsr()
    if projector is None:
        desc = "identity"
    else:
        if projector.shape != diff.shape:
            raise ValueError("projector dimension mismatch")
        if projector_side == "both":
            diff = projector @ diff @ projector
            desc = projector_desc or "projected"
        elif projector_side == "right":
            diff = diff @ projector
            desc = (projector_desc or "projected") + ",right"
        else:
            raise ValueError(f"unknown projector_side {projector_side!r}")
    res = residual_norm(diff)
    return RelationReport(
        relation_id=relation_id,
        equation=equation,
        params=dict(params or {}),
        projector=desc,
        residual=res,
        tol=tol,
        passed=res <= tol,
        expect_fail=expect_fail,
        informational=informational,
        wall_time=time.perf_counter() - t0,
    )


def not_applicable(relation_id: str, equation: str, reason: str,
                   params: dict | None = None) -> RelationReport:
    p = dict(params or {})
    p["reason"] = reason
    return RelationReport(relation_id=relation_id, equation=equation, params=p,
                          projector="-", residual=0.0, tol=0.0, passed=True,
                          applicable=False)


def reports_ok(reports) -> bool:
    return all(r.satisfied for r in reports)


# ---------------------------------------------------------------------------
# relation families
# ---------------------------------------------------------------------------

# (suite, family id, equation tag, description)
CATALOG = [
    ("oscillators", "eq20", "Eq. (20)", "fermionic anticommutators, all mode pairs"),
    ("oscillators", "eq21", "Eq. (21)", "bosonic commutators (headroom 1)"),
    ("oscillators", "eq30", "Eq. (30)", "fermion/boson mixed commutativity"),
    ("oscillators", "eq49a", "Eq. (49a)", "q-boson q-commutator, rhs q^-n'"),
    ("oscillators", "eq49b", "Eq. (49b)", "q-boson 1/q-commutator, rhs q^+n'"),
    ("oscillators", "eq49d", "Eq. (49d)", "[n', b] = -b on the same mode"),
    ("oscillators", "eq49e", "Eq. (49e)", "[n', b^dag] = +b^dag"),
    ("oscillators", "eq50a", "Eq. (50)", "b^dag b = [n']_q, full space"),
    ("oscillators", "eq50b", "Eq. (50)", "b b^dag = [n'+1]_q (headroom 1)"),
    ("oscillators", "eq49c", "Eq. (49c)", "q-bosons commute across modes"),
    ("oscillators", "eq49a0", "Eq. (49a)", "[b_1, b_2^dag] = 0 across modes"),
    ("oscillators", "eq49d0", "Eq. (49d)", "[n'_1, b_2] = 0 across modes"),
    ("braiding", "eq42a", "Eq. (42)", "a(x) a(y) + q^-1 a(y) a(x) = 0, x after y"),
    ("braiding", "eq42b", "Eq. (42)", "the same for a^dag a^dag"),
    ("braiding", "eq42c", "Eq. (42)", "a^dag(x) a(y) + q a(y) a^dag(x) = 0"),
    ("braiding", "eq42d", "Eq. (42)", "a(x) a^dag(y) + q a^dag(y) a(x) = 0"),
    ("braiding", "eq42ta", "Eq. (42) q<->1/q", "eq42a for the tilded family"),
    ("braiding", "eq42tb", "Eq. (42) q<->1/q", "eq42b for the tilded family"),
    ("braiding", "eq42tc", "Eq. (42) q<->1/q", "eq42c for the tilded family"),
    ("braiding", "eq42td", "Eq. (42) q<->1/q", "eq42d for the tilded family"),
    ("braiding", "eq44", "Eq. (44)", "{a~(x), a(y)} = 0, x after y"),
    ("braiding", "eq44x", "Eq. (44)", "{a~(y), a(x)} = 0, x after y"),
    ("braiding", "eq44d", "Eq. (44)", "{a~^dag(x), a^dag(y)} = 0"),
    ("braiding", "eq45", "Eq. (45)", "{a~^dag(x), a(y)} = 0, x after y"),
    ("braiding", "eq45x", "Eq. (45)", "{a~^dag(y), a(x)} = 0, x after y"),
    ("braiding", "eq45b", "Eq. (45)", "{a~(x), a^dag(y)} = 0"),
    ("braiding", "eq43", "Eq. (43)", "on-site {a, a^dag} = 1"),
    ("braiding", "eq43n", "Eq. (43)", "a a = 0"),
    ("braiding", "eq43nd", "Eq. (43)", "a^dag a^dag = 0"),
    ("braiding", "eq43t", "Eq. (43) q<->1/q", "on-site {a~, a~^dag} = 1"),
    ("braiding", "eq44s", "Eq. (44)", "on-site {a~, a} = 0"),
    ("braiding", "eq46a", "Eq. (46)", "on-site {a~, a^dag} = q^w, w the string exponent"),
    ("braiding", "eq46b", "Eq. (46)", "on-site {a~^dag, a} = q^-w"),
    ("braiding", "eq47", "Eq. (47)", "a^dag a = n exactly"),
    ("braiding", "eq47t", "Eq. (47)", "a~^dag a~ = n exactly"),
    ("braiding", "eq53a", "Eq. (53)", "A(x) A(y) - q A(y) A(x) = 0, x after y"),
    ("braiding", "eq53b", "Eq. (53)", "the same for A^dag A^dag"),
    ("braiding", "eq53c", "Eq. (53)", "A^dag(x) A(y) - q^-1 A(y) A^dag(x) = 0"),
    ("braiding", "eq53d", "Eq. (53)", "A(x) A^dag(y) - q^-1 A^dag(y) A(x) = 0"),
    ("braiding", "eq53ta", "Eq. (53) q<->1/q", "eq53a for the tilded family"),
    ("braiding", "eq53tb", "Eq. (53) q<->1/q", "eq53b for the tilded family"),
    ("braiding", "eq54a", "Eq. (54)", "A A^dag - q A^dag A = q^-n' (headroom 1)"),
    ("braiding", "eq54b", "Eq. (54)", "A A^dag - q^-1 A^dag A = q^n' (headroom 1)"),
    ("braiding", "eq54ta", "Eq. (54) q<->1/q", "eq54b for the tilded family"),
    ("braiding", "eq50A", "Eq. (50)+(51)", "A^dag A = [n']_q"),
    ("quantum", "eq7a", "Eq. (7a)", "Cartan operators commute"),
    ("quantum", "eq7b", "Eq. (7b)", "weights of the simple generators"),
    ("quantum", "eq7c", "Eq. (7c)", "pairing onto [H]_q"),
    ("quantum", "eq7d", "Eq. (7d)", "odd generators square to zero"),
    ("quantum", "adjointness-observation", "-",
     "E^- against the matrix adjoint of E^+, observed only"),
    ("serre", "eq12-oracle", "Eq. (12)", "closed-form adjoint vs Hopf oracle"),
    ("serre", "eq8", "Eq. (8)", "expanded quantum Serre relations"),
    ("serre", "eq8-img", "Eq. (8)", "Serre words annihilate the headroom subspace"),
    ("serre", "eq9-alphaM", "Eq. (9)", "quartic supplementary relation at node M"),
    ("serre", "eq9-alphaM-img", "Eq. (9)", "quartic at node M annihilates the headroom subspace"),
    ("serre", "eq10-alphaM", "Eq. (10)", "quartic in adjoint-action form"),
    ("serre", "eq9-alpha0-cyclic", "Eq. (9)", "affine quartic, neighbours (R, 1)"),
    ("serre", "eq9-alpha0-skip", "Eq. (9)", "affine quartic, neighbours (1, R)"),
    ("undeformed", "eq2a", "Eq. (2a)", "Cartan operators commute"),
    ("undeformed", "eq2b", "Eq. (2b)", "classical weights"),
    ("undeformed", "eq2c", "Eq. (2c)", "pairing onto h"),
    ("undeformed", "eq2d", "Eq. (2d)", "odd generators square to zero"),
    ("undeformed", "eq3", "Eq. (3)", "classical Serre relations"),
    ("undeformed", "eq4-alphaM", "Eq. (4)", "classical quartic at node M"),
    ("undeformed", "eq4-alpha0-cyclic", "Eq. (4)", "affine quartic, neighbours (R, 1)"),
    ("undeformed", "eq4-alpha0-skip", "Eq. (4)", "affine quartic, neighbours (1, R)"),
    ("coproduct", "eq57", "Eq. (57)", "local string-tail factorization"),
    ("coproduct", "eq57-tailflip-control", "Eq. (57)", "tail sign control, must fail"),
    ("coproduct", "eq11a-split", "Eq. (11a)", "two-half coproduct split"),
    ("classical", "limit-q1", "q=1 limit", "deformed set collapses entrywise"),
    ("classical", "limit-qbracket", "Eq. (7c)", "[H]_q -> H at q=1"),
    ("classical", "limit-slope", "q->1 slope", "deviation linear in q-1"),
    ("central", "eq29-gamma", "Eq. (29)/(31)", "bulk eigenvalue of the central element"),
    ("central", "gamma-boundary", "Eq. (29)", "exact boundary-occupation identity"),
    ("cartanweyl", "eq6-cw", "Eq. (6)", "simple generators from the root basis"),
    ("cartanweyl", "eq26-h", "Eq. (26)", "Cartan operators from bilinears"),
    ("cartanweyl", "eq1b", "Eq. (1b)", "root weights for shifted modes"),
    ("cartanweyl", "eq1a-scalar", "Eq. (1a)", "central anomaly acts as a scalar"),
    ("cartanweyl", "eq1a-linearity", "Eq. (1a)", "anomaly linear in the mode number"),
    ("cartanweyl", "eq1c-cocycle", "Eq. (1c)", "structure constants read off, modulus 1"),
]

_EQUATION = {(suite, family): tag for suite, family, tag, _ in CATALOG}


class SuiteReports:
    """The reports one suite emits, tagged from :data:`CATALOG`.

    ``tol`` is the default tolerance of every check.  Emitting a family that
    the catalog does not declare for this suite raises ``KeyError``.
    """

    def __init__(self, suite: str, tol: float):
        self.suite = suite
        self.tol = tol
        self.reports: list[RelationReport] = []

    def equation(self, relation_id: str) -> str:
        family = relation_id.split("[", 1)[0]
        try:
            return _EQUATION[(self.suite, family)]
        except KeyError:
            raise KeyError(f"suite {self.suite!r} emits undeclared relation "
                           f"family {family!r}") from None

    def check(self, relation_id: str, lhs: sp.spmatrix, rhs: sp.spmatrix,
              projector: sp.spmatrix | None = None, *, tol: float | None = None,
              **kwargs):
        """:func:`check_identity` under the catalog tag."""
        self.reports.append(check_identity(
            relation_id, self.equation(relation_id), lhs, rhs, projector,
            tol=self.tol if tol is None else tol, **kwargs))

    def record(self, relation_id: str, residual: float, *,
               tol: float | None = None, **fields):
        """A report whose residual was reduced by the suite itself."""
        tol = self.tol if tol is None else tol
        self.reports.append(RelationReport(
            relation_id=relation_id, equation=self.equation(relation_id),
            residual=residual, tol=tol, passed=residual <= tol, **fields))

    def not_applicable(self, relation_id: str, reason: str):
        self.reports.append(not_applicable(
            relation_id, self.equation(relation_id), reason))
