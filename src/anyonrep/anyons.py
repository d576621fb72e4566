"""Anyonic oscillators on 1D and stacked 2D lattices.

Every anyon is one construction, fixed by a mode, a family and a dagger: the
mode's oscillator dressed by a diagonal disorder string, a_i(r) = K_i(r) c_i(r)
with K_i(r) = q^{-1/2 sum_t eps(t-r) :n_i(t):} for fermions (family "a"), and
A_k(r) = K'_k(r) b_k(r) on q-bosons with the opposite base sign,
K'_k(r) = q^{+1/2 sum_t eps(t-r) :n'_k(t):} (family "A").  The tilded families
"a~" and "A~" are the same anyons at q^-1.  On a stack of lines the sign
function eps is replaced by the line-major lattice order, which realizes the
half-plane angle convention for two-dimensional strings (lines below count as
"earlier", lines above as "later").

The dagger is the disorder-inverse conjugate, e.g. a^dag = c^dag K^{-1}.  At
|q| = 1 it coincides with the matrix adjoint (K is unitary there); for real q
only this convention satisfies the braiding relations, so it is used
uniformly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fock import (
    BOSON,
    FERMION,
    FockBasis,
    LatticeConfig,
    ModeId,
    cached_basis,
    diag_operator,
    identity_op,
    ladder,
    q_bracket,
    q_power,
    scale_columns,
    scale_rows,
    site_order_sign,
)
from .oscillators import normal_order_shift, number_factor
from .report import RelationReport, SuiteReports

# family -> (statistics, tilde); a tilded family is its partner at q^-1
FAMILIES = {
    "a": (FERMION, False),
    "a~": (FERMION, True),
    "A": (BOSON, False),
    "A~": (BOSON, True),
}


def string_factor(basis: FockBasis, mode: ModeId) -> np.ndarray:
    """The real diagonal sum_t eps(t - r) :n(t): over the modes of the same
    statistics and flavor as ``mode``, r its position, on the factor of the
    basis index that carries that statistics.  eps compares (line, site)
    pairs in line-major order and vanishes at the target itself, so the
    string commutes with ladder operators of the target mode."""
    total = np.zeros(basis.size(mode.kind))
    modes = basis.fermion_modes if mode.kind == FERMION else basis.boson_modes
    for m in modes:
        if m.flavor != mode.flavor:
            continue
        eps = site_order_sign(m.line, m.site, mode.line, mode.site)
        if eps:
            total += eps * (number_factor(basis, m) + normal_order_shift(basis.cfg, m))
    return total


def anyon_factor(cfg: LatticeConfig, basis: FockBasis, mode: ModeId, family: str,
                 dagger: bool = False) -> sp.csr_matrix:
    """One anyonic oscillator on the factor of the basis index that carries
    its statistics: a/a~ dress fermions, A/A~ dress q-bosons; built once per
    config (:meth:`FockBasis.memo`).  The flip_boson_disorder control of
    ``cfg`` gives a boson string the fermion base sign.

    The string q^{-+ 1/2 sum_t eps(t-r) :n(t):} (fermion/boson base sign) is
    applied by scaling the oscillator's entries: K c scales its rows, and
    c^dag K^{-1} the columns of the adjoint by the inverse, the string at
    q^-1 (as for a tilded family).
    """
    try:
        kind, tilde = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown anyon family {family!r}") from None
    if mode.kind != kind:
        raise ValueError(f"family {family!r} needs a {kind} mode, got {mode}")
    base = -0.5 if kind == FERMION else +0.5
    if cfg.corruption.flip_boson_disorder and kind == BOSON:
        base = -base
    if tilde != dagger:
        base = -base

    def build():
        string = q_power(cfg.q, base * string_factor(basis, mode))
        osc = ladder(cfg, basis, mode, dagger)
        return scale_columns(osc, string) if dagger else scale_rows(osc, string)
    return basis.memo(cfg, (mode, family, dagger), build)


# ---------------------------------------------------------------------------
# braiding suite
# ---------------------------------------------------------------------------

def _ordered_site_pairs(cfg: LatticeConfig):
    """All (x, y) position pairs with x after y in the lattice order."""
    points = [(line, site) for line in cfg.lines for site in cfg.sites]
    return points, [(x, y) for i, x in enumerate(points) for y in points[:i]]


def _pair_cap(pairs, cap: int = 12):
    if len(pairs) <= cap:
        return pairs
    # deterministic thinning: keep ends and every k-th interior pair
    k = max(1, len(pairs) // (cap - 2))
    kept = pairs[::k]
    return kept[: cap - 1] + [pairs[-1]]


def suite_braiding(cfg: LatticeConfig) -> list[RelationReport]:
    """Braiding relations of both anyon families, their q <-> 1/q mirrors,
    the mixed plain/tilde relations, and the on-site (q-)oscillator algebra."""
    basis = cached_basis(cfg)
    q = cfg.q
    out = SuiteReports("braiding", cfg.tol, basis)
    points, pairs = _ordered_site_pairs(cfg)
    pairs = _pair_cap(pairs)
    one = basis.stack([identity_op(basis, FERMION)] * len(points))

    def anyons(kind, flavor, families):
        """Every anyon of one flavor on its factor, stacked over the pairs'
        x and y points and over the points, by (family, dagger)."""
        A = {(pt, fam, dag): anyon_factor(cfg, basis, ModeId(kind, flavor, *pt), fam, dag)
             for pt in points for fam in families for dag in (False, True)}
        return ({(fam, dag): basis.stack([A[pt, fam, dag] for pt in at])
                 for fam in families for dag in (False, True)}
                for at in ([x for x, _ in pairs], [y for _, y in pairs], points))

    def family(name, lhs, rhs=None, bulk=None):
        # every operand acts on the factor of the statistics looped over
        return out.check_family([f"{name}[{tag}]" for tag in tags], lhs, rhs,
                                bulk=bulk, factor=factor, params=params)

    factor = FERMION
    for i in range(1, cfg.M + 1):
        X, Y, P = anyons(factor, i, ("a", "a~"))
        ar, asr, adr, ads = X["a", False], Y["a", False], X["a", True], Y["a", True]
        tr, ts, tdr, tds = X["a~", False], Y["a~", False], X["a~", True], Y["a~", True]
        tags = [f"i={i},{x},{y}" for x, y in pairs]
        params = [{"flavor": i, "x": list(x), "y": list(y)} for x, y in pairs]
        out.emit(
            family("eq42a", ar @ asr + (asr @ ar) / q),
            family("eq42b", adr @ ads + (ads @ adr) / q),
            family("eq42c", adr @ asr + q * (asr @ adr)),
            family("eq42d", ar @ ads + q * (ads @ ar)),
            family("eq42ta", tr @ ts + q * (ts @ tr)),
            family("eq42tb", tdr @ tds + q * (tds @ tdr)),
            family("eq42tc", tdr @ ts + (ts @ tdr) / q),
            family("eq42td", tr @ tds + (tds @ tr) / q),
            # mixed families vanish at distinct sites with either anchoring
            family("eq44", tr @ asr + asr @ tr),
            family("eq44x", ts @ ar + ar @ ts),
            family("eq44d", tdr @ ads + ads @ tdr),
            family("eq45", tdr @ asr + asr @ tdr),
            family("eq45x", tds @ ar + ar @ tds),
            family("eq45b", tr @ ads + ads @ tr))

        a_, ad, t_, td = P["a", False], P["a", True], P["a~", False], P["a~", True]
        modes = [ModeId(FERMION, i, *pt) for pt in points]
        w = np.concatenate([string_factor(basis, mode) for mode in modes])
        n = diag_operator(np.concatenate([number_factor(basis, mode) for mode in modes]))
        tags = [f"i={i},{pt}" for pt in points]
        params = [{"flavor": i, "x": list(pt)} for pt in points]
        out.emit(
            family("eq43", a_ @ ad + ad @ a_, one),
            family("eq43n", a_ @ a_),
            family("eq43nd", ad @ ad),
            family("eq43t", t_ @ td + td @ t_, one),
            family("eq44s", t_ @ a_ + a_ @ t_),
            family("eq46a", t_ @ ad + ad @ t_, diag_operator(q_power(q, w))),
            family("eq46b", td @ a_ + a_ @ td, diag_operator(q_power(q, -w))),
            family("eq47", ad @ a_, n),
            family("eq47t", td @ t_, n))

    factor = BOSON
    for k in range(1, cfg.N + 1):
        X, Y, P = anyons(factor, k, ("A", "A~"))
        Ar, As, Adr, Ads = X["A", False], Y["A", False], X["A", True], Y["A", True]
        Tr, Ts, Tdr, Tds = X["A~", False], Y["A~", False], X["A~", True], Y["A~", True]
        tags = [f"k={k},{x},{y}" for x, y in pairs]
        params = [{"flavor": k, "x": list(x), "y": list(y)} for x, y in pairs]
        out.emit(
            family("eq53a", Ar @ As - q * (As @ Ar)),
            family("eq53b", Adr @ Ads - q * (Ads @ Adr)),
            family("eq53c", Adr @ As - (As @ Adr) / q),
            family("eq53d", Ar @ Ads - (Ads @ Ar) / q),
            family("eq53ta", Tr @ Ts - (Ts @ Tr) / q),
            family("eq53tb", Tdr @ Tds - (Tds @ Tdr) / q))

        Ao, Ad, To, Td = P["A", False], P["A", True], P["A~", False], P["A~", True]
        nvec = np.concatenate([number_factor(basis, ModeId(BOSON, k, *pt)) for pt in points])
        tags = [f"k={k},{pt}" for pt in points]
        params = [{"flavor": k, "x": list(pt)} for pt in points]
        out.emit(
            family("eq54a", [(1, Ao, Ad), (-q, Ad, Ao)],
                   diag_operator(q_power(q, -nvec)), bulk=(0, 1)),
            family("eq54b", [(1, Ao, Ad), (-1 / q, Ad, Ao)],
                   diag_operator(q_power(q, nvec)), bulk=(0, 1)),
            family("eq54ta", [(1, To, Td), (-1 / q, Td, To)],
                   diag_operator(q_power(q, nvec)), bulk=(0, 1)),
            family("eq50A", Ad @ Ao, diag_operator(q_bracket(nvec, q))))

    return out.reports
