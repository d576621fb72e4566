"""Cartan data and the oscillator/anyonic realizations of the simple
generators, plus mode-shifted Cartan-Weyl operators and the central element.

Node 0 is the affine node; the odd (isotropic) nodes are 0 and M.  The affine
Cartan matrix follows the cyclic rule: even nodes get diagonal 2 with -1
couplings to both neighbours, odd nodes get diagonal 0 with -1 to the
predecessor and +1 to the successor (indices mod R+1, degenerate overlaps
summed).

Simple generators are sums of local one- or two-site pieces.  The deformed set
replaces oscillators by anyons; every deformed local piece factorizes into the
q-boson local generator times a diagonal string tail, which is what the
coproduct suite checks.  A generator set holds only the sums, ``H`` (CSR)
and ``E``, and keeps no local pieces: the coproduct and classical-limit
suites read a node's pieces one site at a time (``node_pieces``).  Every
oscillator is a ladder or an anyon on its factor of the basis index
(``fock.ladder``, ``anyons.anyon_factor``); the plain set and the Cartan-Weyl
operators take them at q = 1, where the q-boson is the plain boson.  ``H``
reads no q and is built once per basis; a Cartan-Weyl operator is built for
the call that reads it.  A generator's pattern reads no q either: every set
on a basis holds one ``indices``/``indptr`` pair per generator, that of the
first set built (``_on_pattern``), and the shift its entries make in each
particle number and Cartan half-step is found once per basis beside it
(``label_shift``).
A local bilinear piece is its stored entries (``_entries``): x @ y on the
factor its two modes share (an even node, a root of two fermion or two boson
modes), else the entries of the tensor product X (x) Y of its two factors
on the whole basis, with no whole-basis matrix formed.  Pieces of different
sites store disjoint positions, so every generator is one sum, assembled once
per factor and lifted once (``fock.assemble``, ``_bilinear_sum``).  A
negative control is a field of the config, read as ``cfg.corruption`` by
``CartanData.q_alpha``, ``_h_local_diag`` and ``anyons.anyon_factor``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp

from .fock import (
    BOSON,
    FERMION,
    NUMBERS,
    SEA,
    ConfigError,
    Corruption,
    FockBasis,
    LatticeConfig,
    ModeId,
    assemble,
    cached_basis,
    diag_operator,
    entry_products,
    entry_rows,
    ladder,
    number_labels,
    q_power,
    scale_columns,
    zero_op,
)
from .anyons import anyon_factor
from .oscillators import normal_number, string_factor

EPS = "eps"
DELTA = "delta"


# ---------------------------------------------------------------------------
# Cartan data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootLabel:
    """A root w_pos - w_neg in the eps/delta weight basis, with mode number m."""

    pos: tuple[str, int]
    neg: tuple[str, int]
    m: int = 0

    def __post_init__(self):
        for kind, _ in (self.pos, self.neg):
            if kind not in (EPS, DELTA):
                raise ValueError(f"weight kind must be eps or delta, got {kind!r}")
        if self.pos == self.neg:
            raise ValueError("pos and neg weights must differ")

    @property
    def parity(self) -> int:
        return 1 if self.pos[0] != self.neg[0] else 0

    def __str__(self):
        return (f"{self.pos[0]}{self.pos[1]}-{self.neg[0]}{self.neg[1]}"
                f":m={self.m}")


@dataclass(frozen=True)
class CartanData:
    """Affine Cartan matrix, its all-minus variant, symmetrizers and grading."""

    M: int
    N: int
    a_rows: tuple
    a_tilde_rows: tuple
    d: tuple
    parity: tuple

    @property
    def R(self) -> int:
        return self.M + self.N - 1

    @property
    def a(self) -> np.ndarray:
        return np.array(self.a_rows, dtype=int)

    @property
    def a_tilde(self) -> np.ndarray:
        return np.array(self.a_tilde_rows, dtype=int)

    def q_alpha(self, cfg: LatticeConfig) -> tuple:
        """q_alpha = q for alpha = 0..M and q^{-1} above M (inverted under the
        flip_q_alpha control of ``cfg``)."""
        out = []
        for alpha in range(self.R + 1):
            e = 1 if alpha <= self.M else -1
            if cfg.corruption.flip_q_alpha:
                e = -e
            out.append(q_power(cfg.q, e))
        return tuple(out)

    def simple_root_label(self, alpha: int) -> RootLabel:
        """Root/mode correspondence of e_alpha^+."""
        M, N = self.M, self.N
        if 1 <= alpha <= M - 1:
            return RootLabel((EPS, alpha), (EPS, alpha + 1))
        if alpha == M:
            return RootLabel((EPS, M), (DELTA, 1))
        if M < alpha <= self.R:
            k = alpha - M
            return RootLabel((DELTA, k), (DELTA, k + 1))
        if alpha == 0:
            return RootLabel((DELTA, N), (EPS, 1), m=1)
        raise ValueError(f"no node {alpha}")


@lru_cache(maxsize=None)
def cartan_data(M: int, N: int) -> CartanData:
    R = M + N - 1
    if M < 1 or N < 1 or R < 2:
        raise ConfigError("need M, N >= 1 with M + N - 1 >= 2")
    n = R + 1
    odd = {0, M}
    a = np.zeros((n, n), dtype=int)
    for al in range(n):
        nxt, prv = (al + 1) % n, (al - 1) % n
        if al in odd:
            a[al, prv] += -1
            a[al, nxt] += +1
        else:
            a[al, al] = 2
            a[al, prv] += -1
            a[al, nxt] += -1
    at = a.copy()
    at[(at > 0) & ~np.eye(n, dtype=bool)] = -1
    d = tuple(1 if al <= M else -1 for al in range(n))
    parity = tuple(1 if al in odd else 0 for al in range(n))
    return CartanData(M, N,
                      tuple(map(tuple, a.tolist())),
                      tuple(map(tuple, at.tolist())),
                      d, parity)


def h_coefficients(M: int, N: int, a: int) -> dict:
    """Per-flavor coefficients of h_a as a number-operator combination."""
    if 1 <= a <= M - 1:
        return {(FERMION, a): 1, (FERMION, a + 1): -1}
    if a == M:
        return {(FERMION, M): 1, (BOSON, 1): 1}
    if M < a <= M + N - 1:
        k = a - M
        return {(BOSON, k): 1, (BOSON, k + 1): -1}
    raise ValueError(f"h_{a} is not a horizontal Cartan generator")


def root_weight(M: int, N: int, a: int, root: RootLabel) -> int:
    """Pairing <root, h_a>: the eigenvalue shift e_root causes in h_a."""
    coeff = h_coefficients(M, N, a)

    def weight_coeff(w):
        kind = FERMION if w[0] == EPS else BOSON
        return coeff.get((kind, w[1]), 0)

    return weight_coeff(root.pos) - weight_coeff(root.neg)


# ---------------------------------------------------------------------------
# simple generators
# ---------------------------------------------------------------------------

def _node_modes(cfg: LatticeConfig, alpha: int, line: int, r: float,
                sign: str = "+") -> tuple[ModeId, ModeId]:
    """The mode pair (upper, lower) of node alpha's local piece at (line, r),
    e^+ = upper^dag lower, or for ``sign`` "-" the pair (lower, upper) of
    e^- = lower^dag upper.  Only the affine node reaches the next site."""
    M = cfg.M
    if 1 <= alpha <= M - 1:
        pair = ModeId(FERMION, alpha, line, r), ModeId(FERMION, alpha + 1, line, r)
    elif alpha == M:
        pair = ModeId(FERMION, M, line, r), ModeId(BOSON, 1, line, r)
    elif M < alpha <= cfg.R:
        pair = ModeId(BOSON, alpha - M, line, r), ModeId(BOSON, alpha - M + 1, line, r)
    elif alpha == 0:
        pair = ModeId(BOSON, cfg.N, line, r), ModeId(FERMION, 1, line, r + 1)
    else:
        raise ValueError(f"no node {alpha}")
    return pair if sign == "+" else pair[::-1]


def node_factor(cfg: LatticeConfig, alpha: int) -> str | None:
    """The factor node alpha's local pieces, tails and Cartan parts live on,
    the statistics of its two modes; None (the whole basis) at the mixed
    nodes 0 and M."""
    upper, lower = _node_modes(cfg, alpha, 1, cfg.sites[0])
    return upper.kind if upper.kind == lower.kind else None


def _on_node(basis: FockBasis, modes, vectors, at=None) -> list:
    """The factor vectors of a node's two modes on the node's factor
    (:func:`node_factor`), read at its indices ``at`` (None: lifted whole).
    An even node's index is its factor's; at a mixed node, whose factor is
    the whole basis, index f * NB + b reads a fermion's vector at f and a
    boson's at b, the entry of its lift there."""
    if modes[0].kind == modes[1].kind:
        return vectors if at is None else [v[at] for v in vectors]
    if at is None:
        return [basis.lift(m.kind, v) for m, v in zip(modes, vectors)]
    index = dict(zip((FERMION, BOSON), np.divmod(at, basis.NB)))
    return [v[index[m.kind]] for m, v in zip(modes, vectors)]


def node_sum(cfg: LatticeConfig, alpha: int, up, low):
    """up - low on even nodes, up + low on the odd nodes 0 and M: how the
    two modes (upper, lower) of a node's piece enter its Cartan part and its
    string tail."""
    return up + low if alpha in (0, cfg.M) else up - low


def _h_local_diag(basis: FockBasis, alpha: int, line: int, r: float) -> np.ndarray:
    """:n_upper: - :n_lower: on even nodes, + on the odd nodes 0 and M, on
    the node's factor (:func:`node_factor`); the affine piece carries -1 at
    r = -1/2 on sea lines (not under the drop_h0_delta control)."""
    cfg = basis.cfg
    modes = _node_modes(cfg, alpha, line, r)
    h = node_sum(cfg, alpha, *_on_node(basis, modes, [normal_number(basis, m) for m in modes]))
    if (alpha == 0 and cfg.line_ordering(line) == SEA and r == -0.5
            and not cfg.corruption.drop_h0_delta):
        return h - 1.0
    return h


def admissible_sites(cfg: LatticeConfig, alpha: int) -> tuple[float, ...]:
    """Sites carrying a local piece; the affine node needs r+1 on the line."""
    return cfg.sites[:-1] if alpha == 0 else cfg.sites


def _factor_ops(cfg: LatticeConfig, basis: FockBasis, sign: str, dressed: bool):
    """op(mode, dagger): the mode's anyon of family a/A (e^+) or a~/A~ (e^-)
    if ``dressed``, else its ladder (the plain oscillators at q = 1)."""
    if not dressed:
        return partial(ladder, cfg, basis)
    tilde = "~" if sign == "-" else ""
    return lambda mode, dagger: anyon_factor(
        cfg, basis, mode, ("a" if mode.kind == FERMION else "A") + tilde, dagger)


def _entries(basis: FockBasis, op, w, r: ModeId, s: ModeId) -> tuple:
    """(rows, columns, values) of w op(r, True) op(s, False) on the smallest
    space that holds it: the stored entries of x @ y on the modes' shared
    factor, else those of X (x) Y on the whole basis, fermion first, at
    index f * NB + b (in ``basis._idx``, int64 past 2^31) with the values of
    scipy's product of the lifts (``fock.entry_products``), zeros dropped.
    No whole-basis matrix is formed; w * values copies them, so a weight 1
    is left out."""
    x, y = op(r, True), op(s, False)
    if r.kind == s.kind:
        p = x @ y
        rows, columns, values = entry_rows(p), p.indices, p.data
    else:
        x, y = (y, x) if r.kind == BOSON else (x, y)
        rows, columns = ((u.astype(basis._idx)[:, None] * basis.NB + v).ravel()
                         for u, v in ((entry_rows(x), entry_rows(y)), (x.indices, y.indices)))
        values = entry_products(x.data, y.data).ravel()
        if not values.all():
            keep = values != 0
            rows, columns, values = rows[keep], columns[keep], values[keep]
    return rows, columns, (values if w == 1 else values * w)


def node_terms(cfg: LatticeConfig, alpha: int, sign: str) -> list:
    """The terms (1, r, s) of node alpha's E^sign (:func:`_node_modes`), by line, then site."""
    return [(1, *_node_modes(cfg, alpha, line, r, sign))
            for line in cfg.lines for r in admissible_sites(cfg, alpha)]


def node_pieces(cfg: LatticeConfig, basis: FockBasis, alpha: int, sign: str, dressed: bool):
    """The local pieces of node alpha's E^sign (:func:`node_terms`) over the
    oscillators of :func:`_factor_ops`, as their entries on the node's
    factor (:func:`_entries`), formed one site at a time."""
    op = _factor_ops(cfg, basis, sign, dressed)
    return (_entries(basis, op, *term) for term in node_terms(cfg, alpha, sign))


def eq57_exponent(basis: FockBasis, alpha: int, line: int, r: float, at=None,
                  strings=None) -> np.ndarray:
    """Exponent x of the string tail in E_alpha(r) = e_hat_alpha(r) q_alpha^x,
    on the node's factor, at its indices ``at`` (:func:`_on_node`).

    With w the ``oscillators.string_factor`` of each node mode (``strings``,
    built here if not given), x is 1/2 sum_t eps(t-r) :h_alpha(t):, that is
    1/2 (w_upper - w_lower) on even nodes and 1/2 (w_upper + w_lower) at
    node M.  The affine node straddles (r, r+1) and its tail carries both
    strings with the opposite base sign: -1/2 (w_upper + w_lower).
    """
    modes = _node_modes(basis.cfg, alpha, line, r)
    if strings is None:
        strings = [string_factor(basis, m) for m in modes]
    x = node_sum(basis.cfg, alpha, *_on_node(basis, modes, strings, at))
    return -0.5 * x if alpha == 0 else 0.5 * x


@dataclass
class GeneratorSet:
    """Assembled simple generators: ``H`` holds real CSR matrices (:meth:`h`
    reads their diagonals), ``E`` the summed local pieces, real in the plain
    set and at a real q, complex only where a string carries a phase;
    :meth:`script_e` is kept by this set object.  A set holds no basis, so
    its basis's memo makes no cycle."""

    cfg: LatticeConfig
    cartan: CartanData
    H: dict
    E: dict

    def q_alpha(self, alpha: int) -> complex:
        return self._q_alpha[alpha]

    def grade(self, alpha: int) -> int:
        return self.cartan.parity[alpha]

    def h(self, alpha: int) -> np.ndarray:
        """The diagonal of H_alpha, a real vector."""
        return self.H[alpha].diagonal()

    def script_e(self, alpha: int, sign: str) -> sp.csr_matrix:
        """Rescaled generator E_alpha^s q_alpha^{-H_alpha/2} on E's pattern,
        built once per set object, node and sign; E itself at q_alpha = 1.
        A suite that reads it takes a copy of the set kept in the basis memo
        (``dataclasses.replace``), so it lives for that suite call."""
        E, qa = self.E[alpha, sign], self.q_alpha(alpha)
        if qa == 1:
            return E
        if (alpha, sign) not in self._script:
            self._script[alpha, sign] = scale_columns(E, q_power(qa, -0.5 * self.h(alpha)))
        return self._script[alpha, sign]

    def __post_init__(self):
        self._q_alpha = self.cartan.q_alpha(self.cfg)
        self._script = {}


def cartan_generator(basis: FockBasis, alpha: int) -> sp.csr_matrix:
    """H_alpha, its local diagonals summed on the node's factor and lifted
    once.  It reads no q: built once per basis, one operator for every
    generator set on it."""
    def build():
        cfg, space = basis.cfg, node_factor(basis.cfg, alpha)
        hd = np.zeros(basis.size(space))
        for line in cfg.lines:
            for r in admissible_sites(cfg, alpha):
                hd += _h_local_diag(basis, alpha, line, r)
        return diag_operator(basis.lift(space, hd))
    return basis.memo(basis.cfg, ("H", alpha), build)


def _on_pattern(basis: FockBasis, key, x: sp.csr_matrix) -> sp.csr_matrix:
    """x on the pattern kept in the basis memo under ``key``, registered by
    the first x asked for: a later x whose pattern equals it drops its own
    ``indices`` and ``indptr`` for the kept ones, one that differs is
    refused (``ValueError``).  The memo's ``("patterns",)`` entry maps each
    kept pattern's :func:`_address` to its key, for :func:`label_shift`."""
    def register():
        basis.memo(basis.cfg, ("patterns",), dict)[_address(x)] = key[1:]
        return x.indices, x.indptr
    indices, indptr = basis.memo(basis.cfg, key, register)
    if indices is x.indices:
        return x
    if not (np.array_equal(indptr, x.indptr) and np.array_equal(indices, x.indices)):
        raise ValueError(f"generator {key[1:]} leaves the pattern of the first set built")
    return sp.csr_matrix((x.data, indices, indptr), shape=x.shape)


def _address(x: sp.csr_matrix) -> tuple:
    """Where the ``indices`` and ``indptr`` of x start in memory.  Operators
    on one kept pattern share its arrays' memory, though scipy may hand each
    its own array objects over it; the kept arrays live as long as the basis,
    so no other array starts there meanwhile."""
    return x.indices.ctypes.data, x.indptr.ctypes.data


def label_shift(basis: FockBasis, x: sp.csr_matrix, label=NUMBERS):
    """label[row] - label[column] at the stored entries of x, when it is one
    value for all of them, else None; None too for an x that holds no kept
    generator pattern (:func:`_on_pattern`) and for any x not a CSR matrix of
    the basis dimension (the transpose of a generator, a CSC matrix, holds
    its buffers but not its pattern).  ``label`` is ``NUMBERS``, the
    particle number of each (kind, flavor), a tuple with the fermion flavors
    first (``fock.number_labels``), or a node alpha, the half-steps 2 h_alpha
    of ``H_alpha``'s diagonal, an int.  A shift reads the pattern alone, no
    q: it is found once per pattern and label, kept beside the pattern in the
    basis memo (key ``("shift", alpha, sign)``), and serves the plain set,
    every deformed set and every rescaled generator on the basis, as they all
    hold that pattern."""
    if x.format != "csr" or x.shape != (basis.dim, basis.dim):
        return None
    node = basis.memo(basis.cfg, ("patterns",), dict).get(_address(x))
    if node is None:
        return None
    shifts = basis.memo(basis.cfg, ("shift", *node), dict)
    if label not in shifts:
        shifts[label] = (_number_shift(basis, x) if label == NUMBERS
                         else _cartan_shift(basis, label, label_shift(basis, x)))
    return shifts[label]


def _number_shift(basis: FockBasis, x: sp.csr_matrix) -> tuple | None:
    """The particle-number shift of x's pattern, read at every entry as the
    shift of one code per state: the labels in a balanced mixed radix, each
    label's radix twice its largest value plus one.  Two label differences
    whose codes are equal are then equal (their least digit that differs
    would be a nonzero multiple of its radix, larger than any difference),
    so one code shift is one label shift.  The codes fit in int64: each
    radix is 2 n + 1 for a flavor's largest particle number n, at most its
    modes times n_max, and a few flavors of a few dozen modes each are far
    below 2 ** 63 (asserted)."""
    tables = [number_labels(basis, kind) for kind in (FERMION, BOSON)]
    radix = [2 * int(top) + 1 for table in tables for top in table.max(axis=0)]
    assert math.prod(radix) < 2 ** 63, radix
    weights, split = np.cumprod([1, *radix[:-1]]), tables[0].shape[1]
    code = np.add.outer(tables[0] @ weights[:split], tables[1] @ weights[split:]).ravel()
    moves = np.repeat(code, np.diff(x.indptr)) - np.take(code, x.indices)
    if not moves.size or (moves != moves[0]).any():
        return None
    first = np.searchsorted(x.indptr, 0, side="right") - 1, x.indices[0]  # row, column
    (f, b), (g, c) = (divmod(int(k), basis.NB) for k in first)
    return (*(tables[0][f] - tables[0][g]).tolist(), *(tables[1][b] - tables[1][c]).tolist())


def _cartan_shift(basis: FockBasis, alpha: int, numbers: tuple | None) -> int | None:
    """The shift of 2 h_alpha across a pattern whose particle-number shift is
    ``numbers``: 2 sum_k c_k numbers_k, c from :func:`_h_in_numbers`, which
    is checked once per node and basis.  None where either is."""
    kept = basis.memo(basis.cfg, ("H in numbers",), dict)
    if alpha not in kept:
        kept[alpha] = _h_in_numbers(basis, alpha)
    if numbers is None or kept[alpha] is None:
        return None
    return 2 * sum(c * n for c, n in zip(kept[alpha], numbers))


def _h_in_numbers(basis: FockBasis, alpha: int) -> list | None:
    """The coefficients c of :func:`h_coefficients`, one per particle-number
    label, where ``H_alpha``'s diagonal is sum_k c_k N_k plus one
    half-integral constant on every state; else None, as for the affine
    node, whose ``H_0`` leaves out the lattice ends."""
    cfg = basis.cfg
    try:
        h = h_coefficients(cfg.M, cfg.N, alpha)
    except ValueError:
        return None
    c = [h.get((kind, flavor), 0)
         for kind, n in ((FERMION, cfg.M), (BOSON, cfg.N)) for flavor in range(1, n + 1)]
    numbers = np.add.outer(number_labels(basis, FERMION) @ c[:cfg.M],
                           number_labels(basis, BOSON) @ c[cfg.M:]).ravel()
    rest = cartan_generator(basis, alpha).diagonal() - numbers
    return c if (rest == rest[0]).all() and float(2 * rest[0]).is_integer() else None


def chevalley_generators(cfg: LatticeConfig, basis: FockBasis,
                         deformed: bool = True) -> GeneratorSet:
    """Build H_alpha and E_alpha^+- as sums of local pieces over all lines,
    each E assembled once from its pieces on the node's factor and lifted.
    The plain set (not ``deformed``) is the q-boson set at ``basis.cfg``
    (q = 1).  H_alpha reads no q (:func:`cartan_generator`), nor does the
    pattern of E_alpha^+-: each E is put on the one its basis keeps
    (:func:`_on_pattern`, key ``("pattern", alpha, sign)``)."""
    if not deformed:
        cfg = basis.cfg
    H, E = {}, {}
    for alpha in range(cfg.R + 1):
        H[alpha] = cartan_generator(basis, alpha)
        for sign in ("+", "-"):
            E[(alpha, sign)] = _on_pattern(basis, ("pattern", alpha, sign), _bilinear_sum(
                basis, node_terms(cfg, alpha, sign), _factor_ops(cfg, basis, sign, deformed)))
    return GeneratorSet(cfg, cartan_data(cfg.M, cfg.N), H, E)


def cached_generators(cfg: LatticeConfig, deformed: bool,
                      corruption: Corruption | None = None) -> GeneratorSet:
    """The generator set of ``cfg``, kept in the basis memo under its config:
    the plain set reads no q and lives under ``basis.cfg`` (q = 1) as long as
    the basis, a deformed set until ``FockBasis.release``.  The set reads
    ``cfg.corruption``; ``corruption``, if given, is only checked against it."""
    if corruption is not None and corruption != cfg.corruption:
        raise ValueError(f"{corruption} is not the config's {cfg.corruption}")
    basis = cached_basis(cfg)
    at = cfg if deformed else basis.cfg
    return basis.memo(at, ("set", deformed), lambda: chevalley_generators(at, basis, deformed))


def central_charge_diag(genset: GeneratorSet) -> np.ndarray:
    """The diagonal of Gamma = -H_0 + sum_{i<=M} H_i - sum_{k<N} H_{M+k}.

    Acts as the central charge (number of sea-ordered lines) on bulk states;
    off bulk it reduces to boundary occupations n_1(r_min) + n'_N(r_max)
    summed over lines.  Integer entries: the order of the sum is immaterial.
    """
    M, N, h = genset.cfg.M, genset.cfg.N, genset.h
    return (sum(h(i) for i in range(1, M + 1)) - h(0)
            - sum(h(M + k) for k in range(1, N)))


# ---------------------------------------------------------------------------
# Cartan-Weyl generators (undeformed)
# ---------------------------------------------------------------------------

def _mode_for(kind_tag: str, flavor: int, line: int, site: float) -> ModeId:
    kind = FERMION if kind_tag == EPS else BOSON
    return ModeId(kind, flavor, line, site)


def _bilinear_sum(basis: FockBasis, terms, op) -> sp.csr_matrix:
    """sum_i w_i op(r_i, True) op(s_i, False) over ``terms`` (w, r, s).  The
    terms of one statistics are assembled on its factor and lifted once, the
    mixed ones on the whole basis (:func:`_entries`); the pieces, and the
    sums of different factors, store disjoint positions (checked by
    ``fock.assemble``), so each entry is one piece's."""
    parts = []
    for space in (FERMION, BOSON, None):
        group = [t for t in terms if (t[1].kind if t[1].kind == t[2].kind else None) == space]
        if group:  # pieces formed as assemble reads them, freed before the lift
            pieces = (_entries(basis, op, *t) for t in group)
            parts.append(basis.lift(space, assemble(pieces, basis.size(space))))
    if len(parts) < 2:
        return parts[0] if parts else zero_op(basis)
    return assemble([(entry_rows(p), p.indices, p.data) for p in parts], basis.dim)


def cartan_weyl_generators(basis: FockBasis, label: RootLabel) -> sp.csr_matrix:
    """e_root^m = sum_r (pos mode)^dag(r) (neg mode)(r+m), truncated, over
    plain oscillators.  It reads no q; it is built on each call and kept by
    no cache, so it lives as long as its caller holds it."""
    cfg = basis.cfg
    for kind, idx in (label.pos, label.neg):
        hi = cfg.M if kind == EPS else cfg.N
        if not 1 <= idx <= hi:
            raise ValueError(f"flavor index out of range in {label}")
    terms = [(1, _mode_for(*label.pos, line, r), _mode_for(*label.neg, line, r + label.m))
             for line in cfg.lines for r in cfg.sites if r + label.m in cfg.sites]
    if not terms:
        warnings.warn(f"empty truncated sum for {label}; returning zero operator")
    return _bilinear_sum(basis, terms, partial(ladder, cfg, basis))


def cartan_weyl_h0_diag(basis: FockBasis, a: int) -> np.ndarray:
    """The diagonal of h_a^0: its bilinears are normal-ordered numbers."""
    cfg = basis.cfg
    return sum((w * basis.lift(kind, normal_number(basis, ModeId(kind, flavor, line, r)))
                for (kind, flavor), w in h_coefficients(cfg.M, cfg.N, a).items()
                for line in cfg.lines for r in cfg.sites), np.zeros(basis.dim))


def cartan_weyl_h(basis: FockBasis, a: int, m: int) -> sp.csr_matrix:
    """h_a^m = sum_r of the h_a bilinears (r, r+m), truncated, over plain
    oscillators, built on each call as :func:`cartan_weyl_generators` is; at
    m = 0 it is the diagonal :func:`cartan_weyl_h0_diag`."""
    if m == 0:
        return diag_operator(cartan_weyl_h0_diag(basis, a))
    cfg = basis.cfg
    terms = [(w, ModeId(kind, flavor, line, r), ModeId(kind, flavor, line, r + m))
             for (kind, flavor), w in h_coefficients(cfg.M, cfg.N, a).items()
             for line in cfg.lines for r in cfg.sites if r + m in cfg.sites]
    if not terms:
        warnings.warn(f"empty truncated sum for h_{a}^{m}; returning zero operator")
    return _bilinear_sum(basis, terms, partial(ladder, cfg, basis))


def compose_roots(a: RootLabel, b: RootLabel) -> RootLabel | None:
    """a + b when the chain matches (neg of a equals pos of b), else None."""
    if a.neg == b.pos and a.pos != b.neg:
        return RootLabel(a.pos, b.neg, m=a.m + b.m)
    return None
