"""Disorder factors and anyonic oscillators on 1D and stacked 2D lattices.

A fermionic anyon is a fermion dressed by a diagonal phase string,
a_i(r) = K_i(r) c_i(r) with K_i(r) = q^{-1/2 sum_t eps(t-r) :n_i(t):}, and a
tilded partner built from the inverse string.  Bosonic anyons dress q-deformed
bosons with the opposite base sign, A_k(r) = K'_k(r) b_k(r) with
K'_k(r) = q^{+1/2 sum_t eps(t-r) :n'_k(t):}.  On a stack of lines the sign
function eps is replaced by the line-major lattice order, which realizes the
half-plane angle convention for two-dimensional strings (lines below count as
"earlier", lines above as "later").

Daggered anyons are the disorder-inverse conjugates, e.g. a^dag = c^dag K^{-1}.
At |q| = 1 these coincide with the matrix adjoints (K is unitary there); for
real q only this convention satisfies the braiding relations, so it is used
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    fermion_annihilate,
    identity_op,
    op_adjoint,
    q_bracket_diag,
    q_power,
    site_order_sign,
)
from .oscillators import (
    normal_number_diag,
    number_diag,
    number_op,
    q_boson_annihilate,
)
from .report import RelationReport, SuiteReports

MINUS = "minus"
PLUS = "plus"

# family -> (statistics, disorder sign selector)
FAMILIES = {
    "a": (FERMION, MINUS),
    "a~": (FERMION, PLUS),
    "A": (BOSON, MINUS),
    "A~": (BOSON, PLUS),
}


@dataclass(frozen=True)
class DisorderSpec:
    """Target mode and string orientation of one disorder factor."""

    kind: str
    flavor: int
    line: int
    site: float
    sign: str = MINUS  # "minus" selects K / K', "plus" the tilded inverses

    @property
    def mode(self) -> ModeId:
        return ModeId(self.kind, self.flavor, self.line, self.site)


def string_exponent(cfg: LatticeConfig, basis: FockBasis, kind: str, flavor: int,
                    line: int, site: float, scheme: str | None = None) -> np.ndarray:
    """The real diagonal sum_t eps(t - r) :n(t): over the whole lattice.

    eps compares (line, site) pairs in line-major order and vanishes at the
    target itself, so the resulting factor commutes with ladder operators of
    the target mode.  Cross-line terms use the normal-ordered number by
    default; ``cfg.bare_cross_line`` switches them to bare numbers.
    """
    total = np.zeros(basis.dim)
    modes = basis.fermion_modes if kind == FERMION else basis.boson_modes
    for m in modes:
        if m.flavor != flavor:
            continue
        eps = site_order_sign(m.line, m.site, line, site)
        if eps == 0:
            continue
        if cfg.bare_cross_line and m.line != line:
            total += eps * number_diag(cfg, basis, m)
        else:
            total += eps * normal_number_diag(cfg, basis, m, scheme)
    return total


def disorder_exponent(cfg: LatticeConfig, basis: FockBasis, spec: DisorderSpec,
                      scheme: str | None = None,
                      corruption: Corruption = NO_CORRUPTION) -> np.ndarray:
    """Exponent vector X with disorder factor = q^X (diagonal, real)."""
    base = -0.5 if spec.kind == FERMION else +0.5
    if corruption.flip_boson_disorder and spec.kind == BOSON:
        base = -base
    if spec.sign == PLUS:
        base = -base
    elif spec.sign != MINUS:
        raise ValueError(f"unknown disorder sign {spec.sign!r}")
    return base * string_exponent(cfg, basis, spec.kind, spec.flavor,
                                  spec.line, spec.site, scheme)


def disorder_factor(cfg: LatticeConfig, basis: FockBasis, spec: DisorderSpec,
                    scheme: str | None = None,
                    corruption: Corruption = NO_CORRUPTION) -> sp.csr_matrix:
    """Diagonal string operator q^{-+ 1/2 sum_t eps(t-r) :n(t):}."""
    expo = disorder_exponent(cfg, basis, spec, scheme, corruption)
    return diag_operator(q_power(cfg.q, expo))


def anyon(cfg: LatticeConfig, basis: FockBasis, mode: ModeId, family: str,
          dagger: bool = False, scheme: str | None = None,
          corruption: Corruption = NO_CORRUPTION) -> sp.csr_matrix:
    """One anyonic oscillator: a/a~ dress fermions, A/A~ dress q-bosons."""
    try:
        kind, sign = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown anyon family {family!r}") from None
    if mode.kind != kind:
        raise ValueError(f"family {family!r} needs a {kind} mode, got {mode}")
    if mode.kind == FERMION:
        osc = fermion_annihilate(cfg, basis, mode)
    else:
        osc = q_boson_annihilate(cfg, basis, mode)
    spec = DisorderSpec(mode.kind, mode.flavor, mode.line, mode.site, sign)
    if not dagger:
        return (disorder_factor(cfg, basis, spec, scheme, corruption) @ osc).tocsr()
    flipped = DisorderSpec(spec.kind, spec.flavor, spec.line, spec.site,
                           PLUS if sign == MINUS else MINUS)
    return (op_adjoint(osc) @ disorder_factor(cfg, basis, flipped, scheme, corruption)).tocsr()


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
    one = identity_op(basis)
    out = SuiteReports("braiding", cfg.tol, basis)
    points, pairs = _ordered_site_pairs(cfg)
    pairs = _pair_cap(pairs)

    def A(flavor, pt, family, dagger=False):
        kind = FAMILIES[family][0]
        mode = ModeId(kind, flavor, pt[0], pt[1])
        return anyon(cfg, basis, mode, family, dagger, corruption=corruption)

    def rep(rid, lhs, rhs=None, bulk=None, **params):
        out.check(rid, lhs, rhs, bulk=bulk, params=params)

    fl_f = range(1, cfg.M + 1)
    fl_b = range(1, cfg.N + 1)

    for i in fl_f:
        for x, y in pairs:
            ar, asr = A(i, x, "a"), A(i, y, "a")
            adr, ads = A(i, x, "a", True), A(i, y, "a", True)
            ps = {"flavor": i, "x": list(x), "y": list(y)}
            rep(f"eq42a[i={i},{x},{y}]", ar @ asr + (asr @ ar) / q, **ps)
            rep(f"eq42b[i={i},{x},{y}]", adr @ ads + (ads @ adr) / q, **ps)
            rep(f"eq42c[i={i},{x},{y}]", adr @ asr + q * (asr @ adr), **ps)
            rep(f"eq42d[i={i},{x},{y}]", ar @ ads + q * (ads @ ar), **ps)
            tr, ts = A(i, x, "a~"), A(i, y, "a~")
            tdr, tds = A(i, x, "a~", True), A(i, y, "a~", True)
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
            a_ = A(i, pt, "a")
            ad = A(i, pt, "a", True)
            t_ = A(i, pt, "a~")
            td = A(i, pt, "a~", True)
            ps = {"flavor": i, "x": list(pt)}
            rep(f"eq43[i={i},{pt}]", a_ @ ad + ad @ a_, one, **ps)
            rep(f"eq43n[i={i},{pt}]", a_ @ a_, **ps)
            rep(f"eq43nd[i={i},{pt}]", ad @ ad, **ps)
            rep(f"eq43t[i={i},{pt}]", t_ @ td + td @ t_, one, **ps)
            rep(f"eq44s[i={i},{pt}]", t_ @ a_ + a_ @ t_, **ps)
            w = string_exponent(cfg, basis, FERMION, i, pt[0], pt[1])
            rep(f"eq46a[i={i},{pt}]", t_ @ ad + ad @ t_,
                diag_operator(q_power(q, w)), **ps)
            rep(f"eq46b[i={i},{pt}]", td @ a_ + a_ @ td,
                diag_operator(q_power(q, -w)), **ps)
            n = number_op(cfg, basis, ModeId(FERMION, i, pt[0], pt[1]))
            rep(f"eq47[i={i},{pt}]", ad @ a_, n, **ps)
            rep(f"eq47t[i={i},{pt}]", td @ t_, n, **ps)

    for k in fl_b:
        for x, y in pairs:
            Ar, As = A(k, x, "A"), A(k, y, "A")
            Adr, Ads = A(k, x, "A", True), A(k, y, "A", True)
            ps = {"flavor": k, "x": list(x), "y": list(y)}
            rep(f"eq53a[k={k},{x},{y}]", Ar @ As - q * (As @ Ar), **ps)
            rep(f"eq53b[k={k},{x},{y}]", Adr @ Ads - q * (Ads @ Adr), **ps)
            rep(f"eq53c[k={k},{x},{y}]", Adr @ As - (As @ Adr) / q, **ps)
            rep(f"eq53d[k={k},{x},{y}]", Ar @ Ads - (Ads @ Ar) / q, **ps)
            Tr, Ts = A(k, x, "A~"), A(k, y, "A~")
            rep(f"eq53ta[k={k},{x},{y}]", Tr @ Ts - (Ts @ Tr) / q, **ps)
            Tdr, Tds = A(k, x, "A~", True), A(k, y, "A~", True)
            rep(f"eq53tb[k={k},{x},{y}]", Tdr @ Tds - (Tds @ Tdr) / q, **ps)

        for pt in points:
            Ao = A(k, pt, "A")
            Ad = A(k, pt, "A", True)
            To = A(k, pt, "A~")
            Td = A(k, pt, "A~", True)
            nvec = number_diag(cfg, basis, ModeId(BOSON, k, pt[0], pt[1]))
            ps = {"flavor": k, "x": list(pt)}
            rep(f"eq54a[k={k},{pt}]", Ao @ Ad - q * (Ad @ Ao),
                diag_operator(q_power(q, -nvec)), bulk=(0, 1), **ps)
            rep(f"eq54b[k={k},{pt}]", Ao @ Ad - (Ad @ Ao) / q,
                diag_operator(q_power(q, nvec)), bulk=(0, 1), **ps)
            rep(f"eq54ta[k={k},{pt}]", To @ Td - (Td @ To) / q,
                diag_operator(q_power(q, nvec)), bulk=(0, 1), **ps)
            rep(f"eq50A[k={k},{pt}]", Ad @ Ao,
                q_bracket_diag(diag_operator(nvec), q), **ps)

    return out.reports
