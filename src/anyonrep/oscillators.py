"""Number operators, normal-ordering prescriptions, and q-deformed bosons.

Two normal orderings are supported per line.  The "sea" scheme subtracts the
filled-Dirac-sea reference: fermionic :n:(r) = n(r) - 1 and bosonic
:n':(r) = n'(r) + 1 at negative sites.  The "empty" scheme keeps bare
occupation numbers everywhere.  The q-bosons b|n> = sqrt([n]_q) |n-1> are
``fock.ladder``; the ordinary truncated bosons of the canonical relations are
the same ladders at q = 1.
"""

from __future__ import annotations

import functools

import numpy as np

from .fock import (
    BOSON,
    FERMION,
    SEA,
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
)
from .report import RelationReport, SuiteReports


def number_factor(basis: FockBasis, mode: ModeId) -> np.ndarray:
    """Occupation of ``mode`` on its factor of the basis index: on every f
    for a fermion, on every b for a boson."""
    if mode.kind == FERMION:
        return basis.f_occ[:, basis.fermion_slot(mode)].astype(float)
    return basis.b_occ[:, basis.boson_slot(mode)].astype(float)


def number_diag(basis: FockBasis, mode: ModeId) -> np.ndarray:
    """The number operator n = c^dag c (fermion) or n' = d^dag d (boson):
    the occupation of ``mode`` on every basis state, as a real vector."""
    return basis.lift(mode.kind, number_factor(basis, mode))


def normal_order_shift(cfg: LatticeConfig, mode: ModeId) -> int:
    """Constant added to the bare number by the normal ordering of its line."""
    if cfg.line_ordering(mode.line) == SEA and mode.site < 0:
        return -1 if mode.kind == FERMION else +1
    return 0


def normal_number_diag(basis: FockBasis, mode: ModeId) -> np.ndarray:
    """:n:(r), the number shifted by the normal-ordering constant of its
    line, as a real vector."""
    return number_diag(basis, mode) + normal_order_shift(basis.cfg, mode)


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------

def _mode_pairs(modes, cap: int = 6):
    """Deterministic pair sample: exhaustive for small mode sets."""
    sel = list(modes) if len(modes) <= cap else list(modes[:cap - 2]) + list(modes[-2:])
    return [(m1, m2) for m1 in sel for m2 in sel]


def _canonical_relations(basis: FockBasis) -> list[RelationReport]:
    """Eqs. (20), (21) and (30): the canonical (anti)commutators of the fermions
    and plain bosons the construction starts from.  They read no q."""
    out = SuiteReports("oscillators", basis.cfg.tol, basis)
    ops = {m: ladder(basis.cfg, basis, m) for m in basis.fermion_modes + basis.boson_modes}
    # the creators, which fock.ladder builds once per config with the ladders
    dag = {m: ladder(basis.cfg, basis, m, True) for m in ops}
    on_f = functools.partial(out.check, factor=FERMION)
    on_b = functools.partial(out.check, factor=BOSON)

    one = identity_op(basis, FERMION)
    for m1, m2 in _mode_pairs(basis.fermion_modes):
        c1, c2 = ops[m1], ops[m2]
        ps = {"modes": [str(m1), str(m2)]}
        on_f(f"eq20[{m1},{m2}+]", c1 @ dag[m2] + dag[m2] @ c1,
             one if m1 == m2 else None, params=ps)
        on_f(f"eq20[{m1},{m2}]", c1 @ c2 + c2 @ c1, params=ps)

    one = identity_op(basis, BOSON)
    for m1, m2 in _mode_pairs(basis.boson_modes):
        d1, d2 = ops[m1], ops[m2]
        ps = {"modes": [str(m1), str(m2)]}
        on_b(f"eq21[{m1},{m2}+]", [(1, d1, dag[m2]), (-1, dag[m2], d1)],
             one if m1 == m2 else None, bulk=(0, 1), params=ps)
        on_b(f"eq21[{m1},{m2}]", d1 @ d2 - d2 @ d1, params=ps)

    # the mixed pairs are X (x) Y in both orders, checked on the whole basis
    lc = {m: basis.lift(FERMION, ops[m]) for m in basis.fermion_modes[:4]}
    ld = {m: (basis.lift(BOSON, ops[m]), basis.lift(BOSON, dag[m])) for m in basis.boson_modes[:4]}
    for mf, c in lc.items():
        for mb, (d, dd) in ld.items():
            ps = {"modes": [str(mf), str(mb)]}
            out.check(f"eq30[{mf},{mb}]", c @ d - d @ c, params=ps)
            out.check(f"eq30[{mf},{mb}+]", c @ dd - dd @ c, params=ps)
    return out.reports


def suite_oscillators(cfg: LatticeConfig,
                      corruption: Corruption = NO_CORRUPTION) -> list[RelationReport]:
    """Canonical (anti)commutators, mixed commutativity, and the q-boson
    relations; relations that raise boson number run with boson headroom 1
    instead of pretending the cutoff away.  Every relation but the mixed
    eq30 acts on one factor of the basis index and is checked there.  The
    first three read no q and are checked once per basis, before the rest."""
    basis = cached_basis(cfg)
    canonical = basis.memo(basis.cfg, ("canonical", corruption),
                           lambda: _canonical_relations(basis))
    q = cfg.q
    out = SuiteReports("oscillators", cfg.tol, basis)
    bs = {m: ladder(cfg, basis, m) for m in basis.boson_modes}
    bds = {m: ladder(cfg, basis, m, True) for m in bs}
    ns = {m: number_factor(basis, m) for m in basis.boson_modes}
    on_b = functools.partial(out.check, factor=BOSON)

    # q-boson algebra
    for m in basis.boson_modes:
        b, bd, n = bs[m], bds[m], ns[m]
        ps = {"mode": str(m)}
        on_b(f"eq49a[{m}]", [(1, b, bd), (-q, bd, b)],
             diag_operator(q_power(q, -n)), bulk=(0, 1), params=ps)
        on_b(f"eq49b[{m}]", [(1, b, bd), (-1 / q, bd, b)],
             diag_operator(q_power(q, n)), bulk=(0, 1), params=ps)
        on_b(f"eq49d[{m}]", scale_rows(b, n) - scale_columns(b, n), -1 * b,
             params=ps)
        on_b(f"eq49e[{m}]", scale_rows(bd, n) - scale_columns(bd, n), bd,
             params=ps)
        on_b(f"eq50a[{m}]", bd @ b, diag_operator(q_bracket(n, q)), params=ps)
        on_b(f"eq50b[{m}]", [(1, b, bd)], diag_operator(q_bracket(n + 1, q)),
             bulk=(0, 1), params=ps)

    for m1, m2 in _mode_pairs(basis.boson_modes):
        if m1 == m2:
            continue
        b1, b2 = bs[m1], bs[m2]
        ps = {"modes": [str(m1), str(m2)]}
        on_b(f"eq49c[{m1},{m2}]", b1 @ b2 - b2 @ b1, params=ps)
        on_b(f"eq49a0[{m1},{m2}]", b1 @ bds[m2] - bds[m2] @ b1, params=ps)
        on_b(f"eq49d0[{m1},{m2}]",
             scale_rows(b2, ns[m1]) - scale_columns(b2, ns[m1]), params=ps)
    return canonical + out.reports
