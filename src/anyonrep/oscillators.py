"""Number operators, normal-ordering prescriptions, q-deformed bosons, and the
relation rows of the single-factor suites.

Two normal orderings are supported per line.  The "sea" scheme subtracts the
filled-Dirac-sea reference: fermionic :n:(r) = n(r) - 1 and bosonic
:n':(r) = n'(r) + 1 at negative sites.  The "empty" scheme keeps bare
occupation numbers everywhere.  The q-bosons b|n> = sqrt([n]_q) |n-1> are
``fock.ladder``; the ordinary truncated bosons of the canonical relations are
the same ladders at q = 1.  The q-boson relations here and the braiding
relations of ``anyons`` are tables of rows, each family stated once, and
:func:`check_rows` evaluates them all as ``fock.commutator`` products, the
rows that share a coefficient, right side and bulk in one check.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .fock import (
    BOSON,
    FERMION,
    SEA,
    FockBasis,
    LatticeConfig,
    ModeId,
    cached_basis,
    commutator,
    diag_operator,
    identity_op,
    ladder,
    q_bracket,
    q_power,
    real_if_exact,
    site_order_sign,
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


def normal_number(basis: FockBasis, mode: ModeId) -> np.ndarray:
    """:n:(r) on the factor of ``mode``: its occupation plus the constant of
    its line's normal ordering, -1 (fermion) or +1 (boson) at a negative site
    of a sea line, else 0."""
    shift = 0
    if basis.cfg.line_ordering(mode.line) == SEA and mode.site < 0:
        shift = -1 if mode.kind == FERMION else +1
    return number_factor(basis, mode) + shift


def string_factor(basis: FockBasis, mode: ModeId) -> np.ndarray:
    """The real diagonal sum_t eps(t - r) :n(t): over the modes of the same
    statistics and flavor as ``mode``, r its position, on the factor of the
    basis index that carries that statistics.  eps compares (line, site)
    pairs in line-major order and vanishes at the target itself, so the
    string commutes with ladder operators of the target mode.  It reads no
    q: it is built once per basis, kept under ``basis.cfg``, and never
    changed in place."""
    def build():
        total = np.zeros(basis.size(mode.kind))
        modes = basis.fermion_modes if mode.kind == FERMION else basis.boson_modes
        for m in modes:
            if m.flavor != mode.flavor:
                continue
            eps = site_order_sign(m.line, m.site, mode.line, mode.site)
            if eps:
                total += eps * normal_number(basis, m)
        return total
    return basis.memo(basis.cfg, ("string", mode), build)


# ---------------------------------------------------------------------------
# relation rows
# ---------------------------------------------------------------------------

# A row states one relation family X Y - c Y X = rhs, c = sign q^power (sign
# 0: X Y = rhs).  An operand "name at" is a ladder "b" or an anyon family (a,
# a~, A, A~), "+" its dagger, at x or y of a pair or at the point x; ``rhs``
# names a diagonal of DIAGONALS (None: zero), a function of q and the vectors
# v("n") (number) and v("w") (string exponent).  A row whose X is the number
# "n x" states the weight relation [n, Y] = rhs Y.
Row = namedtuple("Row", "family x y sign power rhs bulk", defaults=(0, 0, None, None))
DIAGONALS = {
    "1": lambda q, v: np.ones_like(v("n")),
    "n": lambda q, v: v("n"),
    "q^n": lambda q, v: q_power(q, v("n")),
    "q^-n": lambda q, v: q_power(q, -v("n")),
    "q^w": lambda q, v: q_power(q, v("w")),
    "q^-w": lambda q, v: q_power(q, -v("w")),
    "[n]_q": lambda q, v: q_bracket(v("n"), q),
    "[n+1]_q": lambda q, v: q_bracket(v("n") + 1, q),
}


def q_oscillator(family: str, power: int, L: str) -> Row:
    """Row ``family`` of the q-oscillator algebra of a ladder L (Eqs. 49-50), stated once:
    L L^dag - q^power L^dag L = q^{-power n} (headroom 1); for power 0 L^dag L = [n]_q."""
    if power == 0:
        return Row(family, f"{L}+ x", f"{L} x", rhs="[n]_q")
    return Row(family, f"{L} x", f"{L}+ x", 1, power, "q^-n" if power > 0 else "q^n", (0, 1))


def check_rows(out: SuiteReports, cfg: LatticeConfig, rows, keys, operator, *,
               tags, params, factor):
    """Emit the families of ``rows`` over ``keys``, each a point (x,) or a
    pair (x, y) of modes, as ``family[tag]``, block-major.  Rows that share
    the coefficient c (a float where it is real, ``fock.real_if_exact``), a
    right side or none, and the bulk are one family
    over their (row, key) blocks, X, Y and the right side joined row by row;
    its reports are split back per row.  An operand is the stack of
    ``operator(name, dagger, mode)`` over the keys of each spec in turn, a
    vector ("n", "w") the concatenation of its factor vectors, each formed
    once per distinct tuple of specs."""
    basis, vectors = out.basis, {"n": number_factor, "w": string_factor}

    @functools.cache
    def operand(*specs):
        blocks = [(name, k["xy".index(at)]) for name, at in map(str.split, specs) for k in keys]
        if blocks[0][0] in vectors:
            return np.concatenate([vectors[name](basis, m) for name, m in blocks])
        return basis.stack([operator(name.rstrip("+"), name.endswith("+"), m)
                            for name, m in blocks])

    groups, reports = {}, {}
    for row in rows:  # a weight row ("n x") is its own group
        c = real_if_exact(row.sign * cfg.q ** row.power)
        key = c, row.rhs is None, row.bulk, row.x == "n x" and row
        groups.setdefault(key, []).append(row)
    for (c, _, bulk, weight), members in groups.items():
        ids = [f"{row.family}[{tag}]" for row in members for tag in tags]
        kwargs = {"factor": factor, "params": params * len(members)}
        y = operand(*(row.y for row in members))
        if weight:  # the weight relation [n, Y] = w Y, read off Y's entries
            got = out.check_weights(ids, y, [(operand(weight.x), weight.rhs, bulk)], **kwargs)
        else:
            rhs = members[0].rhs and diag_operator(np.concatenate(
                [DIAGONALS[row.rhs](cfg.q, lambda v: operand(v + " x")) for row in members]))
            got = out.check_family(ids, commutator(operand(*(row.x for row in members)), y, c),
                                   rhs, bulk=bulk, **kwargs)
        reports.update((row, got[i * len(keys):(i + 1) * len(keys)])
                       for i, row in enumerate(members))
    out.emit(*map(reports.get, rows))


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------

# the q-boson relations of each mode, then of each pair of distinct modes
Q_BOSON = {
    "modes": [q_oscillator("eq49a", 1, "b"),
              q_oscillator("eq49b", -1, "b"),
              Row("eq49d", "n x", "b x", 1, rhs=-1),
              Row("eq49e", "n x", "b+ x", 1, rhs=1),
              q_oscillator("eq50a", 0, "b"),
              Row("eq50b", "b x", "b+ x", rhs="[n+1]_q", bulk=(0, 1))],
    "pairs": [Row("eq49c", "b x", "b y", 1),
              Row("eq49a0", "b x", "b+ y", 1),
              Row("eq49d0", "n x", "b y", 1, rhs=0)],
}


def _mode_pairs(modes, cap: int = 6):
    """Deterministic pair sample: exhaustive for small mode sets."""
    sel = list(modes) if len(modes) <= cap else list(modes[:cap - 2]) + list(modes[-2:])
    return [(m1, m2) for m1 in sel for m2 in sel]


def _params(key) -> dict:
    return {"mode": str(key[0])} if len(key) == 1 else {"modes": list(map(str, key))}


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
        family = functools.partial(out.check_family, factor=factor, params=[*map(_params, pairs)])
        ids = [f"{name}[{m1},{m2}" for m1, m2 in pairs]
        out.emit(family([i + "+]" for i in ids], [(1, x, yd), (sign, yd, x)], one, bulk=bulk),
                 family([i + "]" for i in ids], [(1, x, y), (sign, y, x)]))

    # the mixed pairs [c (x) 1, 1 (x) d] and [c (x) 1, 1 (x) d^dag], on the factors
    mixed = [(mf, mb, dagger) for mf in basis.fermion_modes[:4]
             for mb in basis.boson_modes[:4] for dagger in (False, True)]
    out.reports += out.check_factor_commutators(
        [f"eq30[{mf},{mb}{'+' if dagger else ''}]" for mf, mb, dagger in mixed],
        [(ops[mf], (dag if dagger else ops)[mb]) for mf, mb, dagger in mixed],
        params=[_params((mf, mb)) for mf, mb, _ in mixed])
    return out.reports


def suite_oscillators(cfg: LatticeConfig) -> list[RelationReport]:
    """Canonical (anti)commutators, mixed commutativity, and the q-boson rows
    :data:`Q_BOSON`; relations that raise boson number run with boson headroom
    1.  Every relation is checked on the factors of the basis index: each
    single-statistics family on its factor, stacked over its modes or mode
    pairs, and the mixed eq30 on the entries of its fermion and boson ladders.
    The first three read no q and are checked once per basis, before the rest."""
    basis = cached_basis(cfg)
    canonical = basis.memo(basis.cfg, ("canonical",), lambda: _canonical_relations(basis))
    out = SuiteReports("oscillators", cfg.tol, basis)
    pairs = [(m1, m2) for m1, m2 in _mode_pairs(basis.boson_modes) if m1 != m2]
    for group, keys in (("modes", [(m,) for m in basis.boson_modes]), ("pairs", pairs)):
        check_rows(out, cfg, Q_BOSON[group], keys,
                   lambda name, dagger, mode: ladder(cfg, basis, mode, dagger),
                   tags=[",".join(map(str, key)) for key in keys],
                   params=[*map(_params, keys)], factor=BOSON)
    return canonical + out.reports
