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
    NO_CORRUPTION,
    Corruption,
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
                 dagger: bool = False,
                 corruption: Corruption = NO_CORRUPTION) -> sp.csr_matrix:
    """One anyonic oscillator on the factor of the basis index that carries
    its statistics: a/a~ dress fermions, A/A~ dress q-bosons; built once per
    config and corruption (:meth:`FockBasis.memo`).

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
    if corruption.flip_boson_disorder and kind == BOSON:
        base = -base
    if tilde != dagger:
        base = -base

    def build():
        string = q_power(cfg.q, base * string_factor(basis, mode))
        osc = ladder(cfg, basis, mode, dagger)
        return scale_columns(osc, string) if dagger else scale_rows(osc, string)
    return basis.memo(cfg, (mode, family, dagger, corruption), build)


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


def suite_braiding(cfg: LatticeConfig,
                   corruption: Corruption = NO_CORRUPTION) -> list[RelationReport]:
    """Braiding relations of both anyon families, their q <-> 1/q mirrors,
    the mixed plain/tilde relations, and the on-site (q-)oscillator algebra."""
    basis = cached_basis(cfg)
    q = cfg.q
    one = identity_op(basis, FERMION)
    out = SuiteReports("braiding", cfg.tol, basis)
    points, pairs = _ordered_site_pairs(cfg)
    pairs = _pair_cap(pairs)

    def anyons(kind, flavor, families):
        """Every anyon of one flavor on its factor, by (point, family, dagger)."""
        return {(pt, fam, dag): anyon_factor(cfg, basis, ModeId(kind, flavor, *pt),
                                             fam, dag, corruption=corruption)
                for pt in points for fam in families for dag in (False, True)}

    def rep(rid, lhs, rhs=None, bulk=None, **params):
        # every operand acts on the factor of the statistics looped over
        out.check(rid, lhs, rhs, bulk=bulk, factor=factor, params=params)

    factor = FERMION
    for i in range(1, cfg.M + 1):
        A = anyons(factor, i, ("a", "a~"))
        for x, y in pairs:
            ar, asr = A[x, "a", False], A[y, "a", False]
            adr, ads = A[x, "a", True], A[y, "a", True]
            ps = {"flavor": i, "x": list(x), "y": list(y)}
            rep(f"eq42a[i={i},{x},{y}]", ar @ asr + (asr @ ar) / q, **ps)
            rep(f"eq42b[i={i},{x},{y}]", adr @ ads + (ads @ adr) / q, **ps)
            rep(f"eq42c[i={i},{x},{y}]", adr @ asr + q * (asr @ adr), **ps)
            rep(f"eq42d[i={i},{x},{y}]", ar @ ads + q * (ads @ ar), **ps)
            tr, ts = A[x, "a~", False], A[y, "a~", False]
            tdr, tds = A[x, "a~", True], A[y, "a~", True]
            rep(f"eq42ta[i={i},{x},{y}]", tr @ ts + q * (ts @ tr), **ps)
            rep(f"eq42tb[i={i},{x},{y}]", tdr @ tds + q * (tds @ tdr), **ps)
            rep(f"eq42tc[i={i},{x},{y}]", tdr @ ts + (ts @ tdr) / q, **ps)
            rep(f"eq42td[i={i},{x},{y}]", tr @ tds + (tds @ tr) / q, **ps)
            # mixed families vanish at distinct sites with either anchoring
            rep(f"eq44[i={i},{x},{y}]", tr @ asr + asr @ tr, **ps)
            rep(f"eq44x[i={i},{x},{y}]", ts @ ar + ar @ ts, **ps)
            rep(f"eq44d[i={i},{x},{y}]", tdr @ ads + ads @ tdr, **ps)
            rep(f"eq45[i={i},{x},{y}]", tdr @ asr + asr @ tdr, **ps)
            rep(f"eq45x[i={i},{x},{y}]", tds @ ar + ar @ tds, **ps)
            rep(f"eq45b[i={i},{x},{y}]", tr @ ads + ads @ tr, **ps)

        for pt in points:
            a_, ad = A[pt, "a", False], A[pt, "a", True]
            t_, td = A[pt, "a~", False], A[pt, "a~", True]
            ps = {"flavor": i, "x": list(pt)}
            rep(f"eq43[i={i},{pt}]", a_ @ ad + ad @ a_, one, **ps)
            rep(f"eq43n[i={i},{pt}]", a_ @ a_, **ps)
            rep(f"eq43nd[i={i},{pt}]", ad @ ad, **ps)
            rep(f"eq43t[i={i},{pt}]", t_ @ td + td @ t_, one, **ps)
            rep(f"eq44s[i={i},{pt}]", t_ @ a_ + a_ @ t_, **ps)
            mode = ModeId(FERMION, i, *pt)
            w = string_factor(basis, mode)
            rep(f"eq46a[i={i},{pt}]", t_ @ ad + ad @ t_,
                diag_operator(q_power(q, w)), **ps)
            rep(f"eq46b[i={i},{pt}]", td @ a_ + a_ @ td,
                diag_operator(q_power(q, -w)), **ps)
            n = diag_operator(number_factor(basis, mode))
            rep(f"eq47[i={i},{pt}]", ad @ a_, n, **ps)
            rep(f"eq47t[i={i},{pt}]", td @ t_, n, **ps)

    factor = BOSON
    for k in range(1, cfg.N + 1):
        A = anyons(factor, k, ("A", "A~"))
        for x, y in pairs:
            Ar, As = A[x, "A", False], A[y, "A", False]
            Adr, Ads = A[x, "A", True], A[y, "A", True]
            ps = {"flavor": k, "x": list(x), "y": list(y)}
            rep(f"eq53a[k={k},{x},{y}]", Ar @ As - q * (As @ Ar), **ps)
            rep(f"eq53b[k={k},{x},{y}]", Adr @ Ads - q * (Ads @ Adr), **ps)
            rep(f"eq53c[k={k},{x},{y}]", Adr @ As - (As @ Adr) / q, **ps)
            rep(f"eq53d[k={k},{x},{y}]", Ar @ Ads - (Ads @ Ar) / q, **ps)
            Tr, Ts = A[x, "A~", False], A[y, "A~", False]
            rep(f"eq53ta[k={k},{x},{y}]", Tr @ Ts - (Ts @ Tr) / q, **ps)
            Tdr, Tds = A[x, "A~", True], A[y, "A~", True]
            rep(f"eq53tb[k={k},{x},{y}]", Tdr @ Tds - (Tds @ Tdr) / q, **ps)

        for pt in points:
            Ao, Ad = A[pt, "A", False], A[pt, "A", True]
            To, Td = A[pt, "A~", False], A[pt, "A~", True]
            nvec = number_factor(basis, ModeId(BOSON, k, *pt))
            ps = {"flavor": k, "x": list(pt)}
            rep(f"eq54a[k={k},{pt}]", [(1, Ao, Ad), (-q, Ad, Ao)],
                diag_operator(q_power(q, -nvec)), bulk=(0, 1), **ps)
            rep(f"eq54b[k={k},{pt}]", [(1, Ao, Ad), (-1 / q, Ad, Ao)],
                diag_operator(q_power(q, nvec)), bulk=(0, 1), **ps)
            rep(f"eq54ta[k={k},{pt}]", [(1, To, Td), (-1 / q, Td, To)],
                diag_operator(q_power(q, nvec)), bulk=(0, 1), **ps)
            rep(f"eq50A[k={k},{pt}]", Ad @ Ao,
                diag_operator(q_bracket(nvec, q)), **ps)

    return out.reports
