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
uniformly.  Those relations are the rows of :data:`BRAIDING`, one per family.
"""

from __future__ import annotations

import functools

import scipy.sparse as sp

from .fock import (
    BOSON,
    FERMION,
    FockBasis,
    LatticeConfig,
    ModeId,
    cached_basis,
    ladder,
    q_power,
    scale_columns,
    scale_rows,
)
from .oscillators import Row, check_rows, q_oscillator, string_factor
from .report import RelationReport, SuiteReports

# family -> (statistics, tilde); a tilded family is its partner at q^-1
FAMILIES = {
    "a": (FERMION, False),
    "a~": (FERMION, True),
    "A": (BOSON, False),
    "A~": (BOSON, True),
}


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

# X Y - c Y X = rhs, c = sign q^power (oscillators.Row), by statistics and
# pairs x after y, then points, in CATALOG order
BRAIDING = {
    (FERMION, "pairs"): [
        Row("eq42a", "a x", "a y", -1, -1),
        Row("eq42b", "a+ x", "a+ y", -1, -1),
        Row("eq42c", "a+ x", "a y", -1, 1),
        Row("eq42d", "a x", "a+ y", -1, 1),
        Row("eq42ta", "a~ x", "a~ y", -1, 1),
        Row("eq42tb", "a~+ x", "a~+ y", -1, 1),
        Row("eq42tc", "a~+ x", "a~ y", -1, -1),
        Row("eq42td", "a~ x", "a~+ y", -1, -1),
        # mixed families vanish at distinct sites with either anchoring
        Row("eq44", "a~ x", "a y", -1),
        Row("eq44x", "a~ y", "a x", -1),
        Row("eq44d", "a~+ x", "a+ y", -1),
        Row("eq45", "a~+ x", "a y", -1),
        Row("eq45x", "a~+ y", "a x", -1),
        Row("eq45b", "a~ x", "a+ y", -1)],
    (FERMION, "points"): [
        Row("eq43", "a x", "a+ x", -1, rhs="1"),
        Row("eq43n", "a x", "a x"),
        Row("eq43nd", "a+ x", "a+ x"),
        Row("eq43t", "a~ x", "a~+ x", -1, rhs="1"),
        Row("eq44s", "a~ x", "a x", -1),
        Row("eq46a", "a~ x", "a+ x", -1, rhs="q^w"),
        Row("eq46b", "a~+ x", "a x", -1, rhs="q^-w"),
        Row("eq47", "a+ x", "a x", rhs="n"),
        Row("eq47t", "a~+ x", "a~ x", rhs="n")],
    (BOSON, "pairs"): [
        Row("eq53a", "A x", "A y", 1, 1),
        Row("eq53b", "A+ x", "A+ y", 1, 1),
        Row("eq53c", "A+ x", "A y", 1, -1),
        Row("eq53d", "A x", "A+ y", 1, -1),
        Row("eq53ta", "A~ x", "A~ y", 1, -1),
        Row("eq53tb", "A~+ x", "A~+ y", 1, -1)],
    (BOSON, "points"): [
        q_oscillator("eq54a", 1, "A"),
        q_oscillator("eq54b", -1, "A"),
        q_oscillator("eq54ta", -1, "A~"),
        q_oscillator("eq50A", 0, "A")],
}


def suite_braiding(cfg: LatticeConfig) -> list[RelationReport]:
    """Braiding relations of both anyon families, their q <-> 1/q mirrors,
    the mixed plain/tilde relations, and the on-site (q-)oscillator algebra:
    the rows of :data:`BRAIDING`, per flavor, each anyon built once."""
    basis = cached_basis(cfg)
    out = SuiteReports("braiding", cfg.tol, basis)
    points = [(line, site) for line in cfg.lines for site in cfg.sites]
    pairs = [(x, y) for i, x in enumerate(points) for y in points[:i]]  # x after y
    if len(pairs) > 12:  # at most 12: the ends and every k-th interior pair
        pairs = pairs[::max(1, len(pairs) // 10)][:11] + [pairs[-1]]
    operator = functools.cache(
        lambda family, dagger, mode: anyon_factor(cfg, basis, mode, family, dagger))
    for kind, name, flavors in ((FERMION, "i", cfg.M), (BOSON, "k", cfg.N)):
        for flavor in range(1, flavors + 1):
            for group, at in (("pairs", pairs), ("points", [(pt,) for pt in points])):
                check_rows(out, cfg, BRAIDING[kind, group],
                           [tuple(ModeId(kind, flavor, *pt) for pt in key) for key in at], operator,
                           tags=[",".join([f"{name}={flavor}", *map(str, key)]) for key in at],
                           params=[{"flavor": flavor, **dict(zip("xy", map(list, key)))}
                                   for key in at],
                           factor=kind)
    return out.reports
