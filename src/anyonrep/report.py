"""Relation reports, the identity-checking primitive, and the catalog of
relation families.

Every verified identity produces one :class:`RelationReport`.  ``passed`` is
always ``residual <= tol``; sensitivity controls that are *expected* to fail
carry ``expect_fail=True`` and count as satisfied when they do fail.

A relation id is a family id, optionally followed by an index in brackets
(``eq7c[0,1]``).  Every family a suite emits is declared once in
:data:`CATALOG`, which is also what ``anyonrep list`` prints; suites emit
through :class:`SuiteReports`, which takes the equation tag from there.
A check's products, the braiding and q-boson rows' (``oscillators.Row``)
included, are formed in :func:`restrict` alone, restricted to its bulk before
they are multiplied, with the residual of the full products; a
:class:`SuiteReports` keeps each product factor's restriction, each tiled
mask and each Cartan diagonal's half-steps for one suite call, and no
longer.  A family, one relation over many operand tuples, is checked at once
on block-diagonal stacks, one residual per block
(:meth:`SuiteReports.check_family`); one relation is the one-block case; a
zero right side is no matrix.  One check may hold the blocks of several
catalog families (``oscillators.check_rows`` joins the rows that share a
coefficient, right side and bulk): each report takes its equation tag from
its own id, and its ``wall_time`` is the check's time over its blocks.  The
weights and the Hopf oracle are decided on one operator's stored entries, one
pass per relation reduced there, with no sparse matrix: an operator is taken
once with all its Cartan vectors, and the oracle tabulated once per exponent.
The mixed eq30 is read off the entries of its fermion and boson factors.

A check on generator words may be decided from its operands' pattern shifts
(``algebra.label_shift``), with no product formed: a word that cannot hold
an entry on its bulk, and an oracle check that scales every entry by an
exact zero, each with the result the formed products give, bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import (
    BOSON,
    FERMION,
    NUMBERS,
    FockBasis,
    bulk_mask,
    entry_products,
    entry_rows,
    number_labels,
)


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
    def status(self) -> str:
        """n/a, info, fails-as-expected or UNEXPECTED-PASS (a control), else
        pass or FAIL."""
        if not self.applicable:
            return "n/a"
        if self.informational:
            return "info"
        if self.expect_fail:
            return "UNEXPECTED-PASS" if self.passed else "fails-as-expected"
        return "pass" if self.passed else "FAIL"

    @property
    def satisfied(self) -> bool:
        """Whether this report counts as OK for the run outcome."""
        return self.status not in ("UNEXPECTED-PASS", "FAIL")

    def summary_line(self) -> str:
        return (f"{self.relation_id:<34} {self.equation:<12} "
                f"residual={self.residual:.3e}  [{self.projector}]  {self.status}")


def bulk_label(bulk: tuple[int, int] | None, side: str = "both") -> str:
    """The projector label of a bulk spec (margin, headroom):
    ``margin=m[,headroom=h][,right]``, or "identity" without one."""
    if bulk is None:
        return "identity"
    margin, headroom = bulk
    return (f"margin={margin}" + (f",headroom={headroom}" if headroom else "")
            + (",right" if side == "right" else ""))


def restrict(terms, mask: np.ndarray | None = None, side: str = "both",
             kept: dict | None = None) -> sp.csr_matrix:
    """The sum of ``terms`` on the masked columns, and for side "both" the
    masked rows.  ``terms`` is a matrix X or a list of products
    (c, X1, ..., Xn), meaning c X1 ... Xn, added in order.  Side "both" forms
    each left to right from X1[mask] and masks the columns once, of the sum
    (no full-dimension factor is column-indexed); side "right" right to left
    from Xn[:, mask].  Entry (i, j) of X Y sums over row i of X in one order
    whatever other rows X or columns Y have: each kept entry is the full one.
    A product of the same factors is formed once per call.  A product stops
    at its first partial product with no entries and is left out of the sum,
    to which it would add zero entry by entry; with every product left out
    the sum is a fresh empty matrix of the restricted shape.  ``kept`` holds
    the restricted X1 or Xn of each product, with X1 or Xn and the mask, for
    as long as its owner keeps it (default: this call).  Neither a
    restriction in it nor an operand is ever returned: a lone unmasked
    operand, its own sum, is returned as a copy."""
    if side not in ("both", "right"):
        raise ValueError(f"unknown projector side {side!r}")
    if sp.issparse(terms):
        terms = [(1, terms)]
    kept = {} if kept is None else kept
    keys = [tuple(map(id, factors)) for _, *factors in terms]
    formed, total = {}, None
    for key, (c, *factors) in zip(keys, terms):
        x = formed.get(key)
        if x is None:
            if side == "right":
                factors = factors[::-1]
            if mask is not None:  # a lone matrix (a right side) multiplies nothing: not kept
                factors[0] = _part(kept if factors[1:] else {}, factors[0], mask, side)
            x, *rest = factors
            for f in rest:
                if not x.nnz:
                    break
                x = x @ f if side == "both" else f @ x
            if keys.count(key) > 1:
                formed[key] = x
        if not x.nnz:  # adding it would add zero to each entry of the sum
            continue
        if c != 1:
            x = c * x
        total = x if total is None else total + x
    if total is None:  # every product left out
        return _no_entries(terms, mask, side)
    total = (total if mask is None or side == "right" else total[:, mask]).tocsr()
    return total.copy() if any(total is f for _, *factors in terms for f in factors) else total


def _no_entries(terms: list, mask: np.ndarray | None, side: str) -> sp.csr_matrix:
    """What :func:`restrict` returns with every product of ``terms`` left
    out: a fresh empty matrix of the restricted shape, in the factors' dtype."""
    _, *factors = terms[0]
    shape = factors[0].shape[0], factors[-1].shape[1]
    if mask is not None:
        k = int(mask.sum())
        shape = k if side == "both" else shape[0], k
    return sp.csr_matrix(shape, dtype=np.result_type(*(f.dtype for _, *fs in terms for f in fs)))


def _part(kept: dict, x: sp.csr_matrix, mask: np.ndarray, side: str) -> sp.csr_matrix:
    """x's rows in the mask (side "right": its columns), once per ``kept``;
    the entry holds x and the mask, so their ids stay theirs."""
    key = ("part", id(x), id(mask), side)
    if key not in kept:
        kept[key] = x, mask, x[:, mask] if side == "right" else x[mask]
    return kept[key][2]


def check_identity(relation_ids: list[str], equation: str | list[str], lhs: sp.spmatrix,
                   rhs: sp.spmatrix | None = None, *, tol: float, label: str = "identity",
                   params: list | None = None, expect_fail: bool = False,
                   informational: bool = False) -> list[RelationReport]:
    """One report per relation of a family: the residual of lhs - rhs (rhs
    None: zero), duplicates summed, on the j-th of len(relation_ids) equal row
    bands (the j-th diagonal block of a stack); neither operand is changed
    (generators are shared).  ``equation`` is every relation's tag, or a list
    of one per relation; ``label`` names the bulk of the operands, ``params``
    holds each relation's parameters."""
    if rhs is not None and lhs.shape != rhs.shape:
        raise ValueError(f"operator dimensions differ: {lhs.shape} vs {rhs.shape}")
    diff = lhs - rhs if rhs is not None and rhs.nnz else lhs
    return _make_reports(relation_ids, equation, _residuals(diff, len(relation_ids)), tol=tol,
                         label=label, params=params, expect_fail=expect_fail,
                         informational=informational)


def canonical(x: sp.csr_matrix) -> sp.csr_matrix:
    """x in canonical form, duplicates summed and indices sorted: x itself if
    it is, else a copy; x is not changed (operators share their arrays)."""
    if x.has_canonical_format:
        return x
    x = x.copy()
    x.sum_duplicates()
    return x


def _residuals(diff: sp.csr_matrix, n: int) -> list[float]:
    """max |entry| of diff, duplicates summed, on each of n equal row bands;
    diff is not changed."""
    diff = canonical(diff)
    return _band_maxima(np.abs(diff.data), diff.indptr[::diff.shape[0] // n])


def _band_maxima(size: np.ndarray, offsets) -> list[float]:
    """max size[i:j], 0 where empty, over the consecutive entries (i, j) of ``offsets``."""
    offsets = offsets.tolist()
    return [float(size[i:j].max(initial=0.0)) for i, j in zip(offsets, offsets[1:])]


def _make_reports(relation_ids: list[str], equation: str | list[str], residuals, *, tol: float,
                  label: str, params: list | None = None, **flags) -> list[RelationReport]:
    """One report per relation id and residual; ``equation`` is every
    report's tag or a list of one per id, ``flags`` are report fields."""
    n = len(relation_ids)
    return [RelationReport(relation_id=relation_id, equation=tag, params=dict(ps or {}),
                           projector=label, residual=res, tol=tol, passed=res <= tol, **flags)
            for relation_id, tag, ps, res in zip(
                relation_ids, [equation] * n if isinstance(equation, str) else equation,
                params or [None] * n, residuals)]


# entries per piece of a weight pass, so that its temporaries stay in cache
_PIECE = 8192


def _timed(t0: float, reports: list[RelationReport]) -> list[RelationReport]:
    """The reports, each given its share of the time since t0."""
    wall_time = (time.perf_counter() - t0) / len(reports)
    for report in reports:
        report.wall_time = wall_time
    return reports


def _half_steps(h: np.ndarray) -> np.ndarray:
    """2 h as integers; a diagonal that is not half-integral is refused."""
    steps = 2 * h
    half = steps.astype(np.intp)
    if (half != steps).any():
        raise ValueError("a Cartan diagonal must be half-integral")
    return half


def not_applicable(relation_id: str, equation: str, reason: str) -> RelationReport:
    return RelationReport(relation_id=relation_id, equation=equation,
                          params={"reason": reason}, projector="-",
                          residual=0.0, tol=0.0, passed=True, applicable=False)


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

    ``tol`` is the default tolerance of every check.  A projected check names
    its bulk ``bulk=(margin, headroom)``, resolved once per basis and spec;
    a check whose operands act on one factor of the basis index names it,
    ``factor=FERMION`` or ``BOSON``, and is restricted to that factor's bulk.
    Emitting a family that the catalog does not declare for this suite
    raises ``KeyError``.

    One instance serves one suite call, and keeps for that call what its
    checks share: each tiled mask, each product factor's bulk rows or columns
    (:func:`restrict`), each Cartan diagonal's half-steps, each bulk's
    particle-number sectors, each operand's shifts and each oracle operand's
    largest magnitude.  Nothing of it outlives the instance, and nothing of
    it goes into the basis memo; the shifts themselves are kept there, beside
    their patterns.

    ``shift(x, label)`` reads the label shift of the generator pattern that
    an operand x holds (``algebra.label_shift`` on this basis), None where it
    knows none.  With it, a check that cannot hold entries is decided without
    its products (:meth:`restrict`, :meth:`check_scalings`); without it
    every product is formed.
    """

    def __init__(self, suite: str, tol: float, basis: FockBasis | None = None, shift=None):
        self.suite = suite
        self.tol = tol
        self.basis = basis
        self.shift = shift
        self.reports: list[RelationReport] = []
        self._kept = {}

    def _keep(self, key, build):
        """``build()`` once per key for the life of this instance."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def equation(self, relation_id: str) -> str:
        family = relation_id.split("[", 1)[0]
        try:
            return _EQUATION[(self.suite, family)]
        except KeyError:
            raise KeyError(f"suite {self.suite!r} emits undeclared relation "
                           f"family {family!r}") from None

    def mask(self, bulk: tuple[int, int], factor: str | None = None) -> np.ndarray:
        """The states of the bulk spec (margin, headroom) on this basis, or on
        its fermion or boson ``factor``; a bulk reads no q, so each mask is
        kept in the basis memo under ``basis.cfg`` and built once per basis."""
        return self.basis.memo(self.basis.cfg, ("mask", bulk, factor),
                               lambda: bulk_mask(self.basis, *bulk, factor=factor))

    def _tiled(self, bulk: tuple[int, int] | None, factor: str | None = None,
               blocks: int = 1) -> np.ndarray | None:
        """The mask of ``bulk`` on each of ``blocks`` stacked blocks (None
        without a bulk), tiled once per suite call."""
        if bulk is None:
            return None
        return self._keep(("mask", bulk, factor, blocks),
                          lambda: np.tile(self.mask(bulk, factor), blocks))

    def restrict(self, terms, bulk: tuple[int, int] | None = None, side: str = "both",
                 factor: str | None = None, blocks: int = 1, keep: bool = True) -> sp.csr_matrix:
        """:func:`restrict` to the bulk on each of ``blocks`` blocks, with the
        factor restrictions this suite call keeps; with ``keep`` False it
        neither reads nor adds to them, so an operand that one check alone
        reads is not held for the call.  Whole-basis products that cannot
        hold an entry on the block read (:meth:`_cannot_hold_entries`) give
        restrict's result for every product left out, none of them formed."""
        mask = self._tiled(bulk, factor, blocks)
        if factor is None and blocks == 1 and self._cannot_hold_entries(terms, bulk, side):
            return _no_entries(terms, mask, side)
        return restrict(terms, mask, side, self._kept if keep else None)

    def _cannot_hold_entries(self, terms, bulk: tuple[int, int] | None, side: str) -> bool:
        """Whether no product of ``terms`` can hold an entry on the rows and
        columns that :meth:`restrict` reads.  Each stored entry of a factor
        moves the particle-number sector by its pattern's shift, so every
        entry of a product moves it by the sum of its factors' shifts.  When
        every factor has a shift and no bulk column sector, moved by its
        product's sum, lands on a sector of the rows read (the bulk rows,
        side "right" every row), each product is empty there; any factor
        without a shift, and a lone matrix, leave it undecided (False)."""
        if self.shift is None or sp.issparse(terms):
            return False
        moves = set()
        for _, *factors in terms:
            shifts = [self._shift(f, NUMBERS) for f in factors]
            if None in shifts:
                return False
            moves.add(tuple(map(sum, zip(*shifts))))
        return not any(self._reaches(move, bulk, side) for move in moves)

    def _reaches(self, move: tuple, bulk: tuple[int, int] | None, side: str) -> bool:
        """Whether a bulk column sector moved by ``move`` is a sector of the
        rows read, once per move, bulk and side in this suite call: on each
        factor, as a whole-basis sector is one of each factor's."""
        def build():
            rows, split = bulk if side == "both" else None, self.basis.cfg.M  # fermions first
            return all(any(tuple(map(sum, zip(sector, part))) in self._sectors(kind, rows)
                           for sector in self._sectors(kind, bulk))
                       for kind, part in ((FERMION, move[:split]), (BOSON, move[split:])))
        return self._keep(("reaches", move, bulk, side), build)

    def _shift(self, x: sp.csr_matrix, label):
        """``shift(x, label)`` once per operand and label in this suite call;
        the entry holds x, so its id stays x's."""
        return self._keep(("shift", id(x), label), lambda: (x, self.shift(x, label)))[1]

    def _sectors(self, kind: str, bulk: tuple[int, int] | None) -> set:
        """The particle-number sectors (``fock.number_labels``) of the states
        of ``kind``'s factor in the bulk (None: all states), as tuples, once
        per suite call."""
        def build():
            table = number_labels(self.basis, kind)
            if bulk is not None:
                table = table[self.mask(bulk, kind)]
            return set(map(tuple, table.tolist()))
        return self._keep(("sectors", kind, bulk), build)

    def check(self, relation_id: str, lhs, rhs=None, *, params=None, **kwargs):
        """Emit one relation: the one-block :meth:`check_family`."""
        self.reports += self.check_family([relation_id], lhs, rhs, params=[params], **kwargs)

    def check_family(self, relation_ids: list[str], lhs, rhs=None, *,
                     tol: float | None = None, bulk: tuple[int, int] | None = None,
                     side: str = "both", factor: str | None = None,
                     **kwargs) -> list[RelationReport]:
        """The reports, not yet emitted, of a family: one relation over many
        operand tuples, each side the stack (:meth:`FockBasis.stack`) of its
        blocks, a matrix or products of stacks restricted to each block's bulk
        by :func:`restrict`; ``rhs`` defaults to zero.  The ids may name
        several catalog families: each report's equation tag is its own id's.
        Each report's wall time is the check's, forming its products
        included, over its blocks."""
        t0, on_bulk = time.perf_counter(), (bulk, side, factor, len(relation_ids))
        lhs, equations = self.restrict(lhs, *on_bulk), [*map(self.equation, relation_ids)]
        kwargs.update(tol=self.tol if tol is None else tol, label=bulk_label(bulk, side))
        if rhs is None:  # no zero matrix: perfbench's check_identity observer reads rhs.nnz
            reports = _make_reports(relation_ids, equations,
                                    _residuals(lhs, len(relation_ids)), **kwargs)
        else:
            reports = check_identity(relation_ids, equations, lhs, self.restrict(rhs, *on_bulk),
                                     **kwargs)
        return _timed(t0, reports)

    def check_weights(self, relation_ids: list[str], x: sp.csr_matrix, weights, *,
                      factor: str | None = None, params=None) -> list[RelationReport]:
        """The reports, not yet emitted, of [diag(h), x] = w x for each
        (h, w, bulk) of ``weights`` over the blocks of the stack x, weight-major
        (``relation_ids`` and ``params`` hold one entry per weight and block).
        The defect (x h[row] - x h[column]) - w x has the pattern of x, which
        holds no duplicate entries: x's entries are located once and selected
        once per distinct bulk, and each weight's defect is evaluated on its
        bulk's entries, piece by piece, each product rounded as the scalings
        ``fock.scale_rows``/``scale_columns`` round it, and reduced per block."""
        t0, bands = time.perf_counter(), len(relation_ids) // len(weights)
        rows = entry_rows(x)
        starts = x.indptr[::x.shape[0] // bands]
        entries = {None: (x.data, rows, x.indices, starts)}
        for bulk in dict.fromkeys(bulk for _, _, bulk in weights if bulk is not None):
            mask = self._tiled(bulk, factor, bands)
            kept = np.flatnonzero(mask[rows] & mask[x.indices])
            entries[bulk] = (x.data[kept], rows[kept], x.indices[kept],
                             np.searchsorted(kept, starts))
        reports, equations = [], [*map(self.equation, relation_ids)]
        for k, (h, w, bulk) in enumerate(weights):
            data, row, column, offsets = entries[bulk]
            size = np.empty(len(data))
            for i in range(0, len(data), _PIECE):
                d, r, c = data[i:i + _PIECE], row[i:i + _PIECE], column[i:i + _PIECE]
                size[i:i + _PIECE] = np.abs((np.multiply(d, h[r]) - np.multiply(d, h[c]))
                                            - d * w)
            block = slice(k * bands, (k + 1) * bands)
            reports += _make_reports(relation_ids[block], equations[block],
                                     _band_maxima(size, offsets), tol=self.tol,
                                     label=bulk_label(bulk), params=params and params[block])
        return _timed(t0, reports)

    def check_scalings(self, relation_id, y, x, h, closed, hopf, *, node, bulk=None, params=None):
        """Emit closed P = hopf(h[row] - h[column]) P, decided entry by entry on
        the one product P = y x, formed by :func:`restrict` on the bulk.  h()
        reads the Cartan diagonal of ``node``: it is called, and the diagonal
        taken in half-steps, once per node and bulk in this suite call;
        closed - hopf is evaluated once per half-step d in range, on d / 2, and
        gathered per entry.  A check that scales every entry by an exact zero
        (:meth:`_scales_by_zero`) reads 0.0 with P not formed."""
        t0, mask = time.perf_counter(), self._tiled(bulk)
        if self._scales_by_zero(y, x, closed, hopf, node):
            residual = 0.0
        else:
            x = self.restrict([(1, y, x)], bulk)
            half = self._keep(("half-steps", node, bulk),
                              lambda: _half_steps(h() if mask is None else h()[mask]))
            d = np.repeat(half, np.diff(x.indptr)) - half[x.indices]
            lo = d.min(initial=0)
            table = closed - hopf(np.arange(lo, d.max(initial=0) + 1) / 2)
            residual = float(np.abs(x.data * table[d - lo]).max(initial=0.0))
        self.reports += _timed(t0, _make_reports(
            [relation_id], self.equation(relation_id), [residual], tol=self.tol,
            label=bulk_label(bulk), params=[params]))

    def _scales_by_zero(self, y, x, closed, hopf, node) -> bool:
        """Whether :meth:`check_scalings` reads exactly 0.0 whatever y x holds.
        When y and x each move the half-steps of h_node by one shift, every
        entry of y x, in any bulk, sits at their sum d, so its table entry is
        closed - hopf(d / 2), the same float as in the table over d's range.
        If that is exactly zero and 2 nnz_row(y) max|y| max|x| is finite (the
        2 for a complex product's parts), no entry of y x is infinite or NaN,
        each |entry * 0| is 0 and their maximum 0.0: the residual the formed
        product gives, bit for bit."""
        shifts = [self._shift(f, node) for f in (y, x)] if self.shift else [None]
        if None in shifts or (closed - hopf(np.array([sum(shifts)]) / 2))[0] != 0:
            return False
        return math.isfinite(2.0 * np.diff(y.indptr).max(initial=0)
                             * self._largest(y) * self._largest(x))

    def _largest(self, x: sp.csr_matrix) -> float:
        """max |x| over its stored entries, once per operand in this suite
        call; the entry holds x, so its id stays x's."""
        return self._keep(("largest", id(x)),
                          lambda: (x, float(np.abs(x.data).max(initial=0.0))))[1]

    def check_factor_commutators(self, relation_ids: list[str], pairs, *,
                                 params=None) -> list[RelationReport]:
        """The reports, not yet emitted, of [x (x) 1, 1 (x) y] = 0 for each
        (x, y) of ``pairs``, x on the fermion factor and y on the boson
        factor, decided on the factors.  With no duplicate entries in x or y
        (none in a ladder), entry ((f, b), (f', b')) of either whole-basis
        product is the one term x_ff' y_bb' (y_bb' x_ff'), formed as scipy
        forms it (:func:`fock.entry_products`), so the residual is read off
        the stored entries of x and y: no lifted operand and no whole-basis
        product is formed."""
        t0 = time.perf_counter()
        residuals = [float(np.abs(entry_products(x.data, y.data)
                                  - entry_products(y.data, x.data).T).max(initial=0.0))
                     for x, y in pairs]
        return _timed(t0, _make_reports(relation_ids, [*map(self.equation, relation_ids)],
                                        residuals, tol=self.tol, label=bulk_label(None),
                                        params=params))

    def emit(self, *families):
        """Emit the reports of families over the same blocks, block-major."""
        self.reports += [r for block in zip(*families) for r in block]

    def record(self, relation_id: str, residual: float, *,
               tol: float | None = None, bulk: tuple[int, int] | None = None,
               **fields):
        """A report whose residual the suite reduced itself (over ``bulk``)."""
        tol = self.tol if tol is None else tol
        self.reports.append(RelationReport(
            relation_id=relation_id, equation=self.equation(relation_id),
            projector=bulk_label(bulk), residual=residual, tol=tol,
            passed=residual <= tol, **fields))

    def not_applicable(self, relation_id: str, reason: str):
        self.reports.append(not_applicable(
            relation_id, self.equation(relation_id), reason))
