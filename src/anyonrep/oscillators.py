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
    cached_basis,
    diag_operator,
    identity_op,
    ladder,
    q_bracket,
    q_power,
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


def _family(check, template: str, keys, *operands, **kwargs) -> list[RelationReport]:
    """The reports ``template.format(*key)`` over ``keys``, tuples of one mode or
    a mode pair, of the ``check`` of operands stacked over them (FockBasis.stack)."""
    return check(
        [template.format(*key) for key in keys], *operands, **kwargs,
        params=[{"mode": str(key[0])} if len(key) == 1 else {"modes": list(map(str, key))}
                for key in keys])


def _canonical_relations(basis: FockBasis) -> list[RelationReport]:
    """Eqs. (20), (21) and (30): the canonical (anti)commutators of the fermions
    and plain bosons the construction starts from.  They read no q."""
    out = SuiteReports("oscillators", basis.cfg.tol, basis)
    ops = {m: ladder(basis.cfg, basis, m) for m in basis.fermion_modes + basis.boson_modes}
    # the creators, which fock.ladder builds once per config with the ladders
    dag = {m: ladder(basis.cfg, basis, m, True) for m in ops}

    # each family stacked over the mode pairs; a diagonal pair's rhs is 1
    for factor, modes, name, sign, bulk in ((FERMION, basis.fermion_modes, "eq20", 1, None),
                                            (BOSON, basis.boson_modes, "eq21", -1, (0, 1))):
        pairs = _mode_pairs(modes)
        x, y = (basis.stack([ops[pair[j]] for pair in pairs]) for j in (0, 1))
        yd = basis.stack([dag[m2] for _, m2 in pairs])
        one = basis.stack([identity_op(basis, factor) if m1 == m2 else None
                           for m1, m2 in pairs])
        family = functools.partial(_family, out.check_family, keys=pairs, factor=factor)
        out.emit(family(name + "[{},{}+]", lhs=[(1, x, yd), (sign, yd, x)], rhs=one, bulk=bulk),
                 family(name + "[{},{}]", lhs=[(1, x, y), (sign, y, x)]))

    # the mixed pairs are X (x) Y in both orders, checked on the whole basis
    lc = {m: basis.lift(FERMION, ops[m]) for m in basis.fermion_modes[:4]}
    ld = {m: (basis.lift(BOSON, ops[m]), basis.lift(BOSON, dag[m])) for m in basis.boson_modes[:4]}
    for mf, c in lc.items():
        for mb, (d, dd) in ld.items():
            ps = {"modes": [str(mf), str(mb)]}
            out.check(f"eq30[{mf},{mb}]", c @ d - d @ c, params=ps)
            out.check(f"eq30[{mf},{mb}+]", c @ dd - dd @ c, params=ps)
    return out.reports


def suite_oscillators(cfg: LatticeConfig) -> list[RelationReport]:
    """Canonical (anti)commutators, mixed commutativity, and the q-boson
    relations; relations that raise boson number run with boson headroom 1
    instead of pretending the cutoff away.  Every relation but the mixed
    eq30 acts on one factor of the basis index and is checked there, each
    family at once, stacked over its modes or mode pairs, the weights of b on
    its entries.  The first three read no q and are checked once per basis,
    before the rest."""
    basis = cached_basis(cfg)
    canonical = basis.memo(basis.cfg, ("canonical",), lambda: _canonical_relations(basis))
    q = cfg.q
    out = SuiteReports("oscillators", cfg.tol, basis)
    family = functools.partial(_family, out.check_family, factor=BOSON)
    weights = functools.partial(_family, out.check_weights, factor=BOSON)

    # q-boson algebra
    ms = basis.boson_modes
    b, bd = (basis.stack([ladder(cfg, basis, m, dag) for m in ms]) for dag in (False, True))
    n = np.concatenate([number_factor(basis, m) for m in ms])
    modes = [(m,) for m in ms]
    out.emit(
        family("eq49a[{}]", modes, [(1, b, bd), (-q, bd, b)],
               diag_operator(q_power(q, -n)), bulk=(0, 1)),
        family("eq49b[{}]", modes, [(1, b, bd), (-1 / q, bd, b)],
               diag_operator(q_power(q, n)), bulk=(0, 1)),
        weights("eq49d[{}]", modes, b, n, -1),
        weights("eq49e[{}]", modes, bd, n, 1),
        family("eq50a[{}]", modes, bd @ b, diag_operator(q_bracket(n, q))),
        family("eq50b[{}]", modes, [(1, b, bd)], diag_operator(q_bracket(n + 1, q)),
               bulk=(0, 1)))

    pairs = [(m1, m2) for m1, m2 in _mode_pairs(basis.boson_modes) if m1 != m2]
    b1, b2 = (basis.stack([ladder(cfg, basis, pair[j]) for pair in pairs]) for j in (0, 1))
    bd2 = basis.stack([ladder(cfg, basis, m2, True) for _, m2 in pairs])
    n1 = np.concatenate([number_factor(basis, m1) for m1, _ in pairs])
    out.emit(family("eq49c[{},{}]", pairs, b1 @ b2 - b2 @ b1),
             family("eq49a0[{},{}]", pairs, b1 @ bd2 - bd2 @ b1),
             weights("eq49d0[{},{}]", pairs, b2, n1, 0))
    return canonical + out.reports
