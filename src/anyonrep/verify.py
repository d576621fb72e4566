"""Relation suites certifying the oscillator and anyonic realizations.

Bulk policy: relations built only from single-site nodes are exact on the
truncated lattice up to the boson cutoff and run on the full space or with
boson headroom; anything touching the two-site affine node runs with
boundary margin 1, or 2 when it appears on both sides or in Serre
compositions.  A check names its bulk once, ``bulk=(margin, headroom)`` with
a ``side``: its products are restricted to those states before they are
multiplied, and its label is written from the same spec.  Where a relation
is exact away from the cutoff, the operator must also annihilate the
headroom-protected subspace outright (side "right"), a strictly stronger
statement than the two-sided check.  A relation whose operands all act on
one factor of the basis index (fermion or boson, as ladders and anyons do)
runs on that factor, under that factor's part of the same bulk.  A weight
relation is read off its operator's entries, each operator checked once
against all its Cartan vectors; the Hopf oracle is decided on the entries of
its one product Y E, which both of its forms scale, its coefficient
tabulated once per exponent.  The quantum, Serre and undeformed suites read
their generator operands' shifts (``algebra.label_shift``), so a word that
cannot hold entries on its bulk, and an oracle check that scales every entry
by an exact zero, are decided without their products.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.sparse as sp

from . import anyons, oscillators
from .algebra import (
    EPS,
    DELTA,
    GeneratorSet,
    RootLabel,
    _node_modes,
    _on_node,
    admissible_sites,
    cached_generators,
    cartan_generator,
    cartan_weyl_generators,
    cartan_weyl_h,
    cartan_weyl_h0_diag,
    central_charge_diag,
    compose_roots,
    eq57_exponent,
    label_shift,
    node_factor,
    node_pieces,
    node_sum,
    root_weight,
)
from .fock import (
    BOSON,
    FERMION,
    SEA,
    FockBasis,
    LatticeConfig,
    ModeId,
    assemble,
    cached_basis,
    commutator,
    diag_operator,
    identity_op,
    op_adjoint,
    q_bracket,
    q_power,
    real_if_exact,
    residual_norm,
    supercommutator,
)
from .oscillators import normal_number, number_diag, string_factor
from .report import RelationReport, SuiteReports, canonical


# ---------------------------------------------------------------------------
# quantum adjoint action
# ---------------------------------------------------------------------------

def ad_q(genset: GeneratorSet, alpha: int, Y: sp.spmatrix, weight_of_Y,
         grade_of_Y: int, sign: str = "+") -> list:
    """Closed form of the quantum adjoint of the rescaled generator, as its
    two products (see ``report.restrict``):

        (ad_q E_alpha^s) Y = E Y - (-1)^{deg alpha * deg Y} q_alpha^{-w} Y E

    valid when Y is h_alpha-weight homogeneous with weight w; checked
    against the Hopf form (:func:`hopf_form`) as ``eq12-oracle``.
    """
    X = genset.script_e(alpha, sign)
    qa = genset.q_alpha(alpha)
    sgn = -1.0 if (genset.grade(alpha) * grade_of_Y) % 2 else 1.0
    return [(1, X, Y), (-sgn * q_power(qa, -weight_of_Y), Y, X)]


def hopf_form(genset: GeneratorSet, alpha: int, grade_of_Y: int, sign: str = "+"):
    """(ad_q E^s) Y = E Y + sgn q^{-h} Y S(E) by the coproduct E (x) 1 + q^{-h} (x) E
    and the antipode S(E^s) = -q^e E^s q^h, e = +-a_aa, with no weight bookkeeping,
    as (E, sgn, e, h): sgn = (-1)^{deg alpha * deg Y}, h() the diagonal of H_alpha,
    read when called."""
    aa = genset.cartan.a[alpha][alpha]
    sgn = -1.0 if (genset.grade(alpha) * grade_of_Y) % 2 else 1.0
    return (genset.script_e(alpha, sign), sgn, aa if sign == "+" else -aa,
            lambda: genset.h(alpha))


def _sig(sign: str) -> int:
    return 1 if sign == "+" else -1


def _serre_headroom(cfg: LatticeConfig) -> int:
    """Boson headroom of the Serre-type bulks: the words raise a boson up to
    twice, clamped to the cutoff."""
    return min(2, cfg.n_max)


# ---------------------------------------------------------------------------
# Serre-Chevalley relations, shared by the quantum, Serre and undeformed suites
# ---------------------------------------------------------------------------
#
# The relations below are written for the deformed set.  On the plain set at
# q = 1 every q-dependent factor is exact: q_alpha = 1, [H]_q = H,
# q_alpha + 1/q_alpha = 2 and script_e = E, so the same code yields the
# classical relations, Eqs. (2)-(4), under the family ids it is given.

def _chevalley_relations(out: SuiteReports, gs: GeneratorSet, ids):
    """Cartan operators commute, weights of the simple generators, the
    pairing onto [H]_q and the odd squares (Eqs. (7a)-(7d)), under the family
    ids ``ids`` = (a, b, c, d)."""
    eq_a, eq_b, eq_c, eq_d = ids
    cfg, ct = gs.cfg, gs.cartan
    a = ct.a
    R = cfg.R

    h = [gs.h(al) for al in range(R + 1)]
    for al in range(R + 1):
        for be in range(al, R + 1):
            out.record(f"{eq_a}[{al},{be}]",
                       float(np.abs(h[al] * h[be] - h[be] * h[al]).max()),
                       params={"alpha": al, "beta": be})

    # each generator against every h_alpha at once, reported alpha-major
    nodes, signs = range(R + 1), ("+", "-")
    weights = {(be, s): out.check_weights(
        [f"{eq_b}[{al},{be},{s}]" for al in nodes], gs.E[(be, s)],
        [(h[al], _sig(s) * a[al][be], (1, 0) if 0 in (al, be) else None) for al in nodes],
        params=[{"alpha": al, "beta": be, "sign": s} for al in nodes])
        for be in nodes for s in signs}
    out.reports += [weights[be, s][al] for al in nodes for be in nodes for s in signs]

    for al in range(R + 1):
        for be in range(R + 1):
            lhs = supercommutator(gs.E[(al, "+")], gs.E[(be, "-")],
                                  ct.parity[al], ct.parity[be])
            rhs = (diag_operator(q_bracket(h[al], gs.q_alpha(al)))
                   if al == be else None)
            out.check(f"{eq_c}[{al},{be}]", lhs, rhs,
                      bulk=(2, 1) if al == be == 0 else (1, 1),
                      params={"alpha": al, "beta": be})

    for al in (0, cfg.M):
        for s in ("+", "-"):
            E = gs.E[(al, s)]
            out.check(f"{eq_d}[{al},{s}]", supercommutator(E, E, 1, 1),
                      params={"alpha": al, "sign": s})


def _serre_relations(out: SuiteReports, gs: GeneratorSet, ids, images: bool = False):
    """Expanded Serre relations (Eq. (8)) and the quartic supplementary
    relations at node M and at the affine node (Eq. (9)), under the family
    ids ``ids`` = (Serre, quartic at M, affine quartic prefix).  With
    ``images``, a word exact away from the cutoff must also annihilate the
    headroom-protected subspace outright: right after it, each Serre word
    without node 0 and the quartic at M are checked on the right (``-img``),
    and the quartic at M in adjoint-action form (``eq10-alphaM``)."""
    eq_serre, eq_quartic, eq_affine = ids
    cfg, ct = gs.cfg, gs.cartan
    a, at = ct.a, ct.a_tilde
    R, M = cfg.R, cfg.M
    head = _serre_headroom(cfg)
    bulk = (2, head)

    for al in range(R + 1):
        for be in range(R + 1):
            if al == be:
                continue
            for s in ("+", "-"):
                EA = gs.script_e(al, s)
                EB = gs.script_e(be, s)
                qa = gs.q_alpha(al)
                if at[al][be] == 0:
                    X = supercommutator(EA, EB, ct.parity[al], ct.parity[be])
                    form = "supercommutator"
                elif a[al][al] == 2:
                    X = [(1, EA, EA, EB), (-(qa + 1 / qa), EA, EB, EA),
                         (1, EB, EA, EA)]
                    form = "q-binomial cubic"
                else:
                    # odd alpha: (ad_q)^2 collapses onto the E^2 terms; the
                    # remaining content is Eq. (7d) plus the quartic
                    w = _sig(s) * a[al][be]
                    X = [(1, EA, EA, EB), (-q_power(qa, -2 * w), EB, EA, EA)]
                    form = "odd-square"
                ps = {"alpha": al, "beta": be, "sign": s, "form": form}
                out.check(f"{eq_serre}[{al},{be},{s}]", X, bulk=bulk, params=ps)
                if images and 0 not in (al, be):
                    out.check(f"{eq_serre}-img[{al},{be},{s}]", X, bulk=(0, head),
                              side="right", params=ps)

    # quartic at alpha = M (bare generators, plain q-commutators; the minus
    # form mirrors the bracket orders, as dictated by the adjoint action)
    q = real_if_exact(cfg.q)
    if M >= 2 and cfg.N >= 2:
        for s in ("+", "-"):
            E1, E2, E3 = gs.E[(M - 1, s)], gs.E[(M, s)], gs.E[(M + 1, s)]
            if s == "+":
                X1, X2 = commutator(E1, E2, q), commutator(E2, E3, q)
            else:
                X1, X2 = commutator(E2, E1, q), commutator(E3, E2, q)
            X = supercommutator(X1, X2, 1, 1)
            ps = {"alpha": M, "sign": s}
            out.check(f"{eq_quartic}[{s}]", X, bulk=bulk, params=ps)
            if images:
                out.check(f"{eq_quartic}-img[{s}]", X, bulk=(0, head), side="right",
                          params=ps)
                Y1 = ad_q(gs, M - 1, gs.script_e(M, s), _sig(s) * a[M - 1][M], 1, s)
                Y2 = ad_q(gs, M + 1, gs.script_e(M, s), _sig(s) * a[M + 1][M], 1, s)
                out.check(f"eq10-alphaM[{s}]", supercommutator(Y1, Y2, 1, 1),
                          bulk=bulk, params=ps)
    else:
        out.not_applicable(eq_quartic, "needs M >= 2 and N >= 2")

    # quartic at the affine node: "alpha -+ 1" admits two readings there;
    # both are reported, neither is decreed
    for name, (prev, nxt) in {"cyclic": (R, 1), "skip": (1, R)}.items():
        rid = f"{eq_affine}-{name}"
        if ct.parity[prev] or ct.parity[nxt] or prev == nxt:
            out.not_applicable(rid, "affine neighbours are not even nodes")
            continue
        for s in ("+", "-"):
            Y1 = ad_q(gs, prev, gs.script_e(0, s), _sig(s) * a[prev][0], 1, s)
            Y2 = ad_q(gs, nxt, gs.script_e(0, s), _sig(s) * a[nxt][0], 1, s)
            X = supercommutator(Y1, Y2, 1, 1)
            out.check(f"{rid}[{s}]", X, bulk=bulk,
                      params={"alpha": 0, "neighbours": [prev, nxt], "sign": s})


# ---------------------------------------------------------------------------
# quantum, Serre and undeformed suites
# ---------------------------------------------------------------------------

def _on_generators(suite: str, cfg: LatticeConfig) -> SuiteReports:
    """The reports of a suite whose words are in the generators: its checks
    read their operands' label shifts (``algebra.label_shift``), so a word
    that cannot hold entries is decided without its products."""
    basis = cached_basis(cfg)
    return SuiteReports(suite, cfg.tol, basis, functools.partial(label_shift, basis))


def suite_quantum(cfg: LatticeConfig) -> list[RelationReport]:
    """Defining relations of the deformed superalgebra on the simple nodes."""
    gs = cached_generators(cfg, True)
    out = _on_generators("quantum", cfg)
    _chevalley_relations(out, gs, ("eq7a", "eq7b", "eq7c", "eq7d"))

    # E^- versus the matrix adjoint of E^+ is observed, never asserted: the
    # minus generators use the tilded anyons and differ by string tails
    if cfg.nu is not None:
        for al in range(cfg.R + 1):
            dev = residual_norm(gs.E[(al, "-")] - op_adjoint(gs.E[(al, "+")]))
            out.record(f"adjointness-observation[{al}]", dev,
                       params={"alpha": al, "deviation": dev},
                       informational=True)
    return out.reports


def suite_serre(cfg: LatticeConfig) -> list[RelationReport]:
    """The adjoint-action oracle cross-checks, then the expanded Serre
    relations and the quartic supplementary relations at the isotropic
    nodes, with their headroom images (``_serre_relations`` with ``images``).
    It reads the set through a copy, so the rescaled generators
    (``GeneratorSet.script_e``) live for this call alone."""
    gs = dataclasses.replace(cached_generators(cfg, True))
    ct = gs.cartan
    out = _on_generators("serre", cfg)

    # closed form -sgn q^{-w} vs Hopf oracle -sgn q^e q^{-h_i} q^{h_j} on entry (i, j)
    # of Y E; the affine action's bulk: H_0 bookkeeping is truncated at the boundary
    for al in range(cfg.R + 1):
        for be in range(cfg.R + 1):
            if al == be:
                continue
            for s in ("+", "-"):
                Y = gs.script_e(be, s)
                _, (closed, *YX) = ad_q(gs, al, Y, _sig(s) * ct.a[al][be], ct.parity[be], s)
                _, sgn, e, h = hopf_form(gs, al, ct.parity[be], s)
                out.check_scalings(f"eq12-oracle[{al},{be},{s}]", *YX, h, closed,
                                   lambda d: -sgn * q_power(gs.q_alpha(al), e - d), node=al,
                                   bulk=(1, _serre_headroom(cfg)) if al == 0 else None,
                                   params={"alpha": al, "beta": be, "sign": s})

    _serre_relations(out, gs, ("eq8", "eq9-alphaM", "eq9-alpha0"), images=True)
    return out.reports


def suite_undeformed(cfg: LatticeConfig) -> list[RelationReport]:
    """Classical Serre-Chevalley relations of the plain oscillator set: the
    quantum and Serre relations evaluated on it at q = 1.  It reads no q,
    so a run repeats its reports at every sampled q (``Q_FREE``)."""
    gs = cached_generators(cfg, False)
    out = _on_generators("undeformed", cfg)
    _chevalley_relations(out, gs, ("eq2a", "eq2b", "eq2c", "eq2d"))
    _serre_relations(out, gs, ("eq3", "eq4-alphaM", "eq4-alpha0"))
    return out.reports


# ---------------------------------------------------------------------------
# coproduct suite
# ---------------------------------------------------------------------------

def _plain_values(piece, plain, alpha: int) -> np.ndarray:
    """The values of the plain piece ``plain``, which must store the
    positions of the dressed piece ``piece``, both (rows, columns, values)
    in one order (checked), so their values compare entry by entry."""
    if not all(np.array_equal(u, v) for u, v in zip(piece[:2], plain[:2])):
        raise ValueError(f"the dressed pieces of node {alpha} leave the plain pattern")
    return plain[2]


def _distance(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - v| over the values of one pattern (0 for none), the residual
    of the two sums that hold them."""
    return float(np.abs(u - v).max(initial=0.0))


def suite_coproduct(cfg: LatticeConfig) -> list[RelationReport]:
    """String-tail factorization of every local piece, and the two-half split
    of the global generators with the coproduct weights between the halves.
    Each piece is formed once over anyons and once over q-bosons, as its
    entries on its node's factor (``algebra.node_pieces``), and read by every
    statement about it.  A diagonal acting on a piece, its tail, half and
    weight, is read at the piece's columns or rows from its modes' vectors,
    each built once per node on its factor (``algebra._on_node``): none is
    lifted to the whole basis, and no piece is formed there."""
    gs = cached_generators(cfg, True)
    basis = cached_basis(cfg)
    out = SuiteReports("coproduct", cfg.tol)
    splits = SuiteReports("coproduct", cfg.tol)  # reported after eq57

    # flipping q_alpha in the tail must break the factorization: the opposite
    # base sign of the bosonic strings is load-bearing
    control = cfg.M + 1 if cfg.N >= 2 else None
    worst_flip = 0.0

    # two-half split E = E_L q^{H_R/2} + q^{-H_L/2} E_R along a cut compatible
    # with the lattice order (an order ideal: earlier lines plus the left half
    # of the cut line); the affine pieces straddle the cut and are excluded.
    # Every right site comes after every left site, so a left piece's
    # left-only tail exponent is its full one minus H_R/2 and a right piece's
    # right-only one its full one plus H_L/2: exact, as every exponent is a
    # half-integer.  The pieces of different sites store disjoint positions
    # (checked), so each entry of the split is one piece's, and each piece is
    # scaled on its own, half then weight, as the half-sum scales it, and the
    # split assembled once (``fock.assemble``).
    cut = (cfg.K + 1) // 2

    for alpha in range(cfg.R + 1):
        qa = gs.q_alpha(alpha)
        space = node_factor(cfg, alpha)
        sites = [(ln, r) for ln in cfg.lines for r in admissible_sites(cfg, alpha)]
        modes = [_node_modes(cfg, alpha, ln, r) for ln, r in sites]
        strings = [[string_factor(basis, m) for m in pair] for pair in modes]
        left = [ln < cut or (ln == cut and r < 0) for ln, r in sites]

        def half_cartan(on_left):
            """H_L (``on_left``) or H_R as a reader of indices of the node's
            factor, from the half's upper and lower mode numbers, each summed
            on its factor."""
            numbers = [sum((normal_number(basis, pair[j]) for pair, lf in zip(modes, left)
                            if lf == on_left), np.zeros(basis.size(modes[0][j].kind)))
                       for j in (0, 1)]
            return lambda at: node_sum(cfg, alpha, *_on_node(basis, modes[0], numbers, at))

        HL, HR = half_cartan(True), half_cartan(False)
        worst = 0.0
        for s in ("+", "-"):
            halves = []
            pieces = zip(node_pieces(cfg, basis, alpha, s, True),
                         node_pieces(cfg, basis, alpha, s, False))
            for i, (piece, plain) in enumerate(pieces):
                rows, columns, e = piece
                ehat = _plain_values(piece, plain, alpha)
                x = eq57_exponent(basis, alpha, *sites[i], columns, strings[i])
                worst = max(worst, _distance(e, np.multiply(ehat, q_power(qa, x))))
                if alpha == control:
                    flipped = np.multiply(ehat, q_power(1 / qa, x))
                    worst_flip = max(worst_flip, _distance(e, flipped))
                if alpha:
                    if left[i]:
                        h = 0.5 * HR(columns)
                        half = np.multiply(np.multiply(ehat, q_power(qa, x - h)), q_power(qa, h))
                    else:
                        half = np.multiply(ehat, q_power(qa, x + 0.5 * HL(columns)))
                        half = np.multiply(half, q_power(qa, -0.5 * HL(rows)))
                    halves.append((rows, columns, half))
            if alpha:
                splits.check(f"eq11a-split[{alpha},{s}]", gs.E[(alpha, s)],
                             basis.lift(space, assemble(halves, basis.size(space))),
                             params={"alpha": alpha, "sign": s})
        out.record(f"eq57[{alpha}]", worst,
                   params={"alpha": alpha,
                           "form": "two-site tail" if alpha == 0 else "standard"})

    if control is None:
        out.not_applicable("eq57-tailflip-control", "no q^-1 node (N = 1)")
    else:
        out.record(f"eq57-tailflip-control[{control}]", worst_flip, tol=1e-3,
                   params={"alpha": control, "note": "sensitivity control, must fail"},
                   expect_fail=True)
    return out.reports + splits.reports


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def _limit_distances(basis: FockBasis, q_reals) -> list[float]:
    """max |E - E_plain| over the generators at each of ``q_reals``, read off
    their local pieces (``algebra.node_pieces``) one node and sign at a time:
    no generator is formed, each node's plain pieces are formed once for every
    q, and each q's oscillators once for every node (kept until ``run_suites``
    releases them).  A dressed piece has the pattern of its plain one, and
    the plain pieces of different sites store no common position
    (``fock.assemble``), both checked, so each entry of a generator is one
    piece's: the sum and the lift add it to zero and the difference is taken
    entry by entry, so each maximum is the whole generators' bit for bit."""
    cfg = basis.cfg
    dressed_at = [dataclasses.replace(cfg, q_real=q) for q in q_reals]
    worst = [0.0] * len(q_reals)
    for alpha in range(cfg.R + 1):
        for s in ("+", "-"):
            plain = list(node_pieces(cfg, basis, alpha, s, False))
            assemble(plain, basis.size(node_factor(cfg, alpha)))
            for k, at in enumerate(dressed_at):
                for piece, base in zip(node_pieces(at, basis, alpha, s, True), plain):
                    worst[k] = max(worst[k], _distance(piece[2], _plain_values(piece, base, alpha)))
    return worst


def suite_classical_limit(cfg: LatticeConfig) -> list[RelationReport]:
    """q = 1 collapse onto the plain oscillator realization, and first-order
    scaling of the deviation in (q - 1), decided on the local pieces of the
    sets at and near q = 1 (:func:`_limit_distances`): no set is built."""
    out = SuiteReports("classical", 1e-12)
    basis = cached_basis(cfg)
    eps = 1e-6
    at_one, r1, r2 = _limit_distances(basis, (1.0, 1 + eps, 1 + 2 * eps))
    out.record("limit-q1", at_one)
    # every set on the basis holds the one H_alpha of cartan_generator, read
    # one node at a time; fock.q_number makes [h]_1 = h by construction
    worst = max(float(np.abs(q_bracket(h, 1.0) - h).max())
                for h in (cartan_generator(basis, al).diagonal() for al in range(cfg.R + 1)))
    out.record("limit-qbracket", worst, params={"note": "[H]_q -> H at q=1"})

    ratio = r2 / r1 if r1 else float("inf")
    out.record("limit-slope", abs(ratio - 2.0), tol=0.2,
               params={"r_eps": r1, "r_2eps": r2, "ratio": ratio})
    return out.reports


# ---------------------------------------------------------------------------
# central charge
# ---------------------------------------------------------------------------

def suite_central_charge(cfg: LatticeConfig) -> list[RelationReport]:
    """Bulk eigenvalue of the central element: one unit per sea-ordered line.

    Also checks the exact finite-lattice identity Gamma = sum over lines of
    n_1(r_min) + n'_N(r_max), which is what the truncated telescoping leaves
    behind, and pins down the off-bulk discrepancy.  Gamma is read from the
    plain set's H, which reads no q, so a run repeats these reports at every
    sampled q (``Q_FREE``).
    """
    gs = cached_generators(cfg, False)
    basis = cached_basis(cfg)
    gamma = diag_operator(central_charge_diag(gs))
    gamma_expected = sum(1 for o in cfg.ordering if o == SEA)
    out = SuiteReports("central", 1e-12, basis)
    out.check("eq29-gamma", gamma, gamma_expected * identity_op(basis),
              bulk=(1, 0), params={"expected": gamma_expected,
                      "ordering": list(cfg.ordering), "lines": cfg.K})

    if not cfg.corruption.drop_h0_delta:
        vec = np.zeros(basis.dim)
        r_min, r_max = cfg.sites[0], cfg.sites[-1]
        for line in cfg.lines:
            vec = vec + number_diag(basis, ModeId(FERMION, 1, line, r_min))
            vec = vec + number_diag(basis, ModeId(BOSON, cfg.N, line, r_max))
        out.check("gamma-boundary", gamma, diag_operator(vec),
                  params={"identity": "Gamma = sum_l n_1(l,r_min) + n'_N(l,r_max)"})
    return out.reports


# ---------------------------------------------------------------------------
# Cartan-Weyl spot checks
# ---------------------------------------------------------------------------

def _largest_entry(Z: sp.csr_matrix) -> tuple[int, int]:
    """(row, column) of the first largest-magnitude entry of Z in row-major
    order, as a dense argmax picks it, read on Z in canonical form
    (``report.canonical``); Z is not changed."""
    Z = canonical(Z)
    k = int(np.argmax(np.abs(Z.data)))
    return int(np.searchsorted(Z.indptr, k, side="right")) - 1, int(Z.indices[k])


def _anomaly(out: SuiteReports, basis: FockBasis, m: int) -> tuple[complex, float]:
    """The scalar lambda = tr X / dim X and the residual max |X - lambda| of
    X = [h_1^m, h_1^-m] on the bulk (2, 0); the two operators are built for
    this check alone, and ``out`` keeps none of their restrictions."""
    X = out.restrict(supercommutator(cartan_weyl_h(basis, 1, m), cartan_weyl_h(basis, 1, -m),
                                     0, 0), (2, 0), keep=False)
    lam = complex(X.trace() / X.shape[0])
    return lam, residual_norm(X - lam * sp.identity(X.shape[0], format="csr"))


def suite_cartan_weyl(cfg: LatticeConfig) -> list[RelationReport]:
    """Mode-shifted generators: correspondence with the simple set, weight
    relations, the central anomaly scalar and its linearity in the mode
    number, and the observed two-cocycle signs.  They read no q, so a run
    repeats these reports at every sampled q (``Q_FREE``)."""
    gs = cached_generators(cfg, False)
    basis = cached_basis(cfg)
    ct = gs.cartan
    R = cfg.R
    out = SuiteReports("cartanweyl", cfg.tol, basis)

    # this call keeps the simple-root generators, which eq1b at m = 0 and the
    # cocycle chains read again; every other operator is built for its check
    simple = {lab: cartan_weyl_generators(basis, lab)
              for lab in map(ct.simple_root_label, range(R + 1))}
    for alpha, (lab, e) in enumerate(simple.items()):
        out.check(f"eq6-cw[{alpha}]", e, gs.E[(alpha, "+")],
                  params={"alpha": alpha, "root": str(lab)})
    h0 = {a_: cartan_weyl_h0_diag(basis, a_) for a_ in range(1, R + 1)}
    for a_, h in h0.items():
        out.check(f"eq26-h[{a_}]", diag_operator(h), gs.H[a_], params={"a": a_})

    roots = [ct.simple_root_label(al) for al in range(1, R + 1)]
    if cfg.M >= 2:
        roots.append(RootLabel((EPS, 1), (DELTA, 1)))
    elif cfg.N >= 2:
        roots.append(RootLabel((EPS, 1), (DELTA, 2)))
    for base in roots:
        for m in (-1, 0, 1):
            lab = dataclasses.replace(base, m=m)
            w = {a_: root_weight(cfg.M, cfg.N, a_, lab) for a_ in h0}
            out.reports += out.check_weights(
                [f"eq1b[{lab},a={a_}]" for a_ in h0],
                simple[lab] if lab in simple else cartan_weyl_generators(basis, lab),
                [(h, w[a_], (abs(m), 0) if m else None) for a_, h in h0.items()],
                params=[{"root": str(lab), "a": a_, "weight": w[a_]} for a_ in h0])

    # anomaly scalar of [h^m, h^-m] on the bulk
    lambdas = {}
    gamma_expected = sum(1 for o in cfg.ordering if o == SEA)
    for m in (1, 2):
        if m >= cfg.S:
            out.not_applicable(f"eq1a-scalar[m={m}]", "lattice too short")
            continue
        lam, res = _anomaly(out, basis, m)
        lambdas[m] = lam
        K_obs = (lam / gamma_expected / m).real if gamma_expected else None
        out.record(f"eq1a-scalar[m={m}]", res, bulk=(2, 0),
                   params={"a": 1, "m": m, "lambda": [lam.real, lam.imag],
                           "K(h1,h1)-observed": K_obs})
    if 1 in lambdas and 2 in lambdas:
        dev = abs(lambdas[2] - 2 * lambdas[1])
        out.record("eq1a-linearity", dev, tol=1e-8, bulk=(2, 0),
                   params={"lambda_1": lambdas[1].real,
                           "lambda_2": lambdas[2].real})
    elif 1 in lambdas:
        out.not_applicable("eq1a-linearity", "m=2 needs S >= 4")

    # supercommutator onto a composite root: the structure constant is read
    # off and only its unit modulus is asserted
    chains = [(ct.simple_root_label(a_), ct.simple_root_label(a_ + 1))
              for a_ in range(1, R)]
    affine = (ct.simple_root_label(R), ct.simple_root_label(0))
    if compose_roots(*affine) is not None:
        chains.append(affine)
    for r1, r2 in chains[:3]:
        rsum = compose_roots(r1, r2)
        if rsum is None:
            continue
        # compositions of odd roots raise a boson in one ordering
        bulk = (max(1, abs(r1.m) + abs(r2.m)), 1 if (r1.parity or r2.parity) else 0)
        X = out.restrict(supercommutator(simple[r1], simple[r2], r1.parity, r2.parity), bulk)
        Z = out.restrict(cartan_weyl_generators(basis, rsum), bulk)
        if Z.nnz == 0 or residual_norm(Z) < 1e-12:
            out.not_applicable(f"eq1c-cocycle[{r1},{r2}]",
                               "target vanishes on the bulk")
            continue
        i, j = _largest_entry(Z)
        lam = complex(X[i, j] / Z[i, j])
        res = max(residual_norm(X - lam * Z), abs(abs(lam) - 1.0))
        out.record(f"eq1c-cocycle[{r1},{r2}]", res, bulk=bulk,
                   params={"roots": [str(r1), str(r2)],
                           "scalar": [lam.real, lam.imag]})
    return out.reports


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "oscillators": oscillators.suite_oscillators,
    "braiding": anyons.suite_braiding,
    "quantum": suite_quantum,
    "serre": suite_serre,
    "undeformed": suite_undeformed,
    "coproduct": suite_coproduct,
    "classical": suite_classical_limit,
    "central": suite_central_charge,
    "cartanweyl": suite_cartan_weyl,
}

Q_FREE = ("undeformed", "central", "cartanweyl")


def _nu_samples(cfg: LatticeConfig, count: int) -> list[float]:
    """Deterministic pseudo-random statistics parameters inside the
    positivity window nu < 1/n_max."""
    return np.random.default_rng(97).uniform(0.02, 0.95 / cfg.n_max, size=count).tolist()


def run_suites(cfg: LatticeConfig, names=None, q_samples: int = 0) -> dict:
    """The one loop of a verify run, deterministic: the selected suites (default
    all) in registry order, then at each of ``q_samples`` sampled nu every one
    but ``classical``, keyed ``name@nu=...``.  A sample does not rerun a suite
    in ``Q_FREE``: it holds a fresh list of the base key's report objects.
    Once no later suite of a pass reads its q (all but ``Q_FREE`` and
    ``classical`` do), it releases the basis memo (``FockBasis.release``)."""
    unknown = [n for n in names or () if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}")
    names = [name for name in SUITES if names is None or name in names]
    results = {}
    for nu in (None, *_nu_samples(cfg, q_samples)):
        at, tag = (cfg, "") if nu is None else (dataclasses.replace(cfg, nu=nu), f"@nu={nu:.6f}")
        run = [name for name in names if not tag or name != "classical"]
        for i, name in enumerate(run):
            results[name + tag] = (list(results[name]) if tag and name in Q_FREE
                                   else SUITES[name](at))
            if all(later in Q_FREE or later == "classical" for later in run[i + 1:]):
                cached_basis(at).release()
    return results
