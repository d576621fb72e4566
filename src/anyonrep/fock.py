"""Finite Fock spaces for mixed fermionic/bosonic lattice oscillators.

The lattice is a stack of ``K`` horizontal lines, each carrying ``S`` sites at
half-integer positions symmetric about zero.  Every site hosts ``M`` fermionic
and ``N`` bosonic oscillator modes; bosons are truncated at occupation
``n_max``.  The full state space is the tensor product of all mode spaces,
dimension ``2^(M*S*K) * (n_max+1)^(N*S*K)``.

Operators are scipy CSR matrices.  Ladders and anyons act on one factor of
the state index f * NB + b, where their sums are formed; :meth:`FockBasis.kron`
lifts one of them to the whole basis (X (x) 1 or 1 (x) Y), and
:meth:`FockBasis.stack` joins them block-diagonally for a family's check.
A sum of pieces that store disjoint positions, each given by its entries
(rows, columns, values), is put together once by :func:`assemble`, which
checks that they do.  A basis reads no q: ``FockBasis.cfg`` is its config at
q = 1, negative controls (``LatticeConfig.corruption``) included, so a basis
serves one corruption.  :meth:`FockBasis.memo` is the one cache below the
basis: it builds what reads no q once per basis and the rest once per q, kept
until :meth:`FockBasis.release` (called by ``verify.run_suites``).
Fermionic operators carry Jordan-Wigner sign strings over all fermionic modes
preceding the target in a fixed global order (line, then site ascending, then
flavor ascending), so the canonical anticommutation relations hold exactly for
every mode pair.  There is one boson ladder, the q-boson b|n> = sqrt([n]_q)
|n-1>; the plain boson is the same ladder at q = 1, where [n]_1 = n.
Operators and bases are immutable by convention once built: no code changes
an operator's arrays in place, since operators share sparsity patterns.  A
scaling (:func:`scale_entries`) is built on its operand's ``indices`` and
``indptr``, so an anyon holds its ladder's and a rescaled generator its
generator's, and every generator set on a basis holds one pattern per
generator (``algebra.chevalley_generators``).

An operator diagonal in the occupation basis (a number, a string, q^{H/2},
[H]_q) is a vector over the basis.  It acts on a sparse operator through
:func:`scale_rows` / :func:`scale_columns`, or is read at the operator's
stored entries and applied by :func:`scale_entries`, and becomes a CSR matrix
(:func:`diag_operator`) only as the operand of a check or as an exported
generator; the Cartan generators ``GeneratorSet.H`` are kept as real CSR.
An operator is float64 unless one of its values is complex: complex data
enters only through q^x with q on the unit circle (:func:`q_power`, real at
a positive real q), a complex coefficient or a complex right side, and
scipy and numpy upcast mixed operands themselves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

FERMION = "fermion"
BOSON = "boson"
SEA = "sea"
EMPTY = "empty"

DEFAULT_DIM_CAP = 100_000


class ConfigError(ValueError):
    """Invalid lattice/deformation configuration."""


class InstanceTooLargeError(RuntimeError):
    """Basis dimension exceeds the configured cap."""


# ---------------------------------------------------------------------------
# deformation parameter helpers
# ---------------------------------------------------------------------------

def _by_half_steps(x: np.ndarray, f) -> np.ndarray | None:
    """f(values)[k] read for each entry of x, the values every half-step of
    x's range, k the entry's own; None unless x is half-integral and that
    table is smaller than x.  -0.0 has its own slot, since the sign of a zero
    argument can reach the sign of a zero in the result."""
    k = 2 * x
    if x.size and (np.rint(k) == k).all():
        lo, hi = k.min(), k.max()
        if lo > hi - x.size:  # the table is smaller; false for infinities
            lo, span = int(lo), int(hi - lo) + 1
            idx = k.astype(np.intp) - lo
            idx[np.signbit(k) & (k == 0)] = span
            return f(np.append(np.arange(lo, lo + span) / 2, -0.0))[idx]
    return None


def q_power(q: complex, x) -> np.ndarray | complex:
    """q**x through the principal logarithm (consistent branch everywhere).

    ``x`` may be a scalar or an ndarray of real exponents.  An array of
    half-integers (every string and Cartan exponent) reads q^{k/2} from a
    table over its half-steps (:func:`_by_half_steps`): the same exp of the
    same argument, so the result equals the element-wise exp bit for bit.
    At a positive real q (log q real) it is the real part of that exp.
    """
    lg = cmath.log(q)
    part = (lambda z: z.real) if lg.imag == 0 else (lambda z: z)
    if np.isscalar(x):
        return part(cmath.exp(x * lg))
    x = np.asarray(x, dtype=float)
    table = _by_half_steps(x, lambda v: part(np.exp(v * lg)))
    return part(np.exp(x * lg)) if table is None else table


def q_number(n, q: complex) -> complex:
    """The symmetric q-integer [n]_q = (q^n - q^-n)/(q - q^-1).

    Computed as sinh(n log q)/sinh(log q), which stays accurate for q near 1
    and reduces to sin(n pi nu)/sin(pi nu) on the unit circle.
    """
    lg = cmath.log(q)
    if lg == 0:
        return complex(n)
    denom = cmath.sinh(lg)
    if denom == 0:  # q = -1
        return complex(n * (-1) ** (n - 1))
    return cmath.sinh(n * lg) / denom


def q_bracket(h: np.ndarray, q: complex) -> np.ndarray:
    """[h]_q entry by entry for a real vector h (the diagonal of [H]_q); one
    q_number call per half-step of h's range (:func:`_by_half_steps`), else
    per distinct value; at a positive real q the real parts."""
    def numbers(values):
        out = np.array([q_number(x, q) for x in values])  # q_number is complex
        return out.real if cmath.log(q).imag == 0 else out

    table = _by_half_steps(h, numbers)
    if table is None:
        vals, where = np.unique(h, return_inverse=True)
        return numbers(vals)[where]
    return table


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corruption:
    """Deliberate defects of a realization, the negative controls: a field
    of :class:`LatticeConfig`, so every builder reads them from its config.

    ``flip_q_alpha``      invert the node-dependent deformation map q_alpha.
    ``drop_h0_delta``     omit the -delta_{r+1/2,0} constant from the affine
                          Cartan piece on sea-ordered lines.
    ``flip_boson_disorder`` build bosonic disorder factors with the fermionic
                          exponent sign.
    """

    flip_q_alpha: bool = False
    drop_h0_delta: bool = False
    flip_boson_disorder: bool = False

    def __bool__(self):
        return self.flip_q_alpha or self.drop_h0_delta or self.flip_boson_disorder


NO_CORRUPTION = Corruption()


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice geometry, mode content, truncation and deformation parameter.

    ``ordering`` is either a single scheme name ("sea" or "empty") applied to
    every line, or a K-tuple of per-line schemes.  Exactly one of ``nu``
    (q = exp(i pi nu)) and ``q_real`` (positive real q) must be given.
    ``corruption`` names the negative controls of a run, defects of this same
    realization.  A config whose dimension exceeds ``dim_cap`` is not built:
    :class:`InstanceTooLargeError`.
    """

    M: int
    N: int
    S: int
    K: int = 1
    n_max: int = 2
    ordering: str | tuple = SEA
    nu: float | None = None
    q_real: float | None = None
    tol: float = 1e-10
    dim_cap: int = DEFAULT_DIM_CAP
    corruption: Corruption = NO_CORRUPTION

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ConfigError("need M >= 1 and N >= 1")
        if self.M + self.N - 1 < 2:
            raise ConfigError("M = N = 1 is excluded (degenerate rank)")
        if self.S < 2 or self.S % 2:
            raise ConfigError("S must be even and >= 2")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        one = isinstance(self.ordering, str)
        ordering = (self.ordering,) if one else tuple(self.ordering)
        if not one and len(ordering) != self.K:
            raise ConfigError("per-line ordering needs exactly K entries")
        for o in ordering:
            if o not in (SEA, EMPTY):
                raise ConfigError(f"unknown ordering scheme {o!r}")
        if (self.nu is None) == (self.q_real is None):
            raise ConfigError("give exactly one of nu and q_real")
        for key in ("nu", "q_real", "tol"):
            if not math.isfinite(getattr(self, key) or 0):
                raise ConfigError(f"{key} must be a finite number, got {getattr(self, key)}")
        if not math.isfinite(math.pi * (self.nu or 0)):
            raise ConfigError(f"nu = {self.nu} is too large: pi * nu overflows")
        if self.q_real is not None and self.q_real <= 0:
            raise ConfigError("q_real must be positive")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.dim_cap < 1:
            raise ConfigError("dim_cap must be >= 1")
        # every mode has at least 2 states and a boson n_max + 1, so F + B
        # modes past the cap's bit length, or n_max + 1 past the cap, exceed
        # it: decided before the [n]_q loop, the exact dimension or K entries
        F, B = self.fermion_count, self.boson_count
        too_large = F + B > self.dim_cap.bit_length() or self.n_max >= self.dim_cap
        q = self.q
        for n in range(1, 0 if too_large else self.n_max + 1):
            try:
                val = q_number(n, q)
            except OverflowError:
                raise ConfigError(f"[{n}]_q overflows; move q or lower n_max "
                                  f"(n_max = {self.n_max})") from None
            if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)) or val.real <= 1e-12:
                raise ConfigError(
                    f"[{n}]_q = {val:.6g} is not a positive real; "
                    "lower n_max or move q (need [n]_q > 0 up to the cutoff)"
                )
        if too_large or self.dim > self.dim_cap:
            raise InstanceTooLargeError(f"instance too large: dimension 2^{F} * "
                                        f"{self.n_max + 1}^{B} exceeds cap {self.dim_cap}")
        object.__setattr__(self, "ordering", ordering * self.K if one else ordering)

    # -- derived quantities -------------------------------------------------

    @property
    def q(self) -> complex:
        if self.nu is not None:
            return cmath.exp(1j * math.pi * self.nu)
        return complex(self.q_real)

    @cached_property
    def _q_one(self) -> LatticeConfig:
        """This config at q = 1, corruption kept, derived once per config."""
        return replace(self, nu=None, q_real=1.0)

    @property
    def R(self) -> int:
        return self.M + self.N - 1

    @property
    def sites(self) -> tuple[float, ...]:
        return tuple(-(self.S - 1) / 2 + k for k in range(self.S))

    @property
    def lines(self) -> tuple[int, ...]:
        return tuple(range(1, self.K + 1))

    def line_ordering(self, line: int) -> str:
        return self.ordering[line - 1]

    @property
    def fermion_count(self) -> int:
        return self.M * self.S * self.K

    @property
    def boson_count(self) -> int:
        return self.N * self.S * self.K

    @property
    def dim(self) -> int:
        return 2 ** self.fermion_count * (self.n_max + 1) ** self.boson_count


@dataclass(frozen=True)
class ModeId:
    """One oscillator mode: statistics, flavor, and lattice position."""

    kind: str
    flavor: int
    line: int
    site: float

    def __str__(self):
        tag = "c" if self.kind == FERMION else "d"
        pos = f"{self.site:+g}" if self.line == 1 else f"L{self.line}:{self.site:+g}"
        return f"{tag}{self.flavor}({pos})"


def fermion_mode(flavor: int, site: float, line: int = 1) -> ModeId:
    return ModeId(FERMION, flavor, line, site)


def boson_mode(flavor: int, site: float, line: int = 1) -> ModeId:
    return ModeId(BOSON, flavor, line, site)


def site_order_sign(line_a: int, site_a: float, line_b: int, site_b: float) -> int:
    """Sign of (line_a, site_a) relative to (line_b, site_b), line-major.

    +1 if a comes after b, -1 if before, 0 if equal.  On one line this is the
    sign function of the site difference; across lines the line index decides,
    which realizes the two-dimensional half-plane angle convention.
    """
    if line_a != line_b:
        return 1 if line_a > line_b else -1
    if site_a == site_b:
        return 0
    return 1 if site_a > site_b else -1


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

class FockBasis:
    """Occupation-number basis with fermionic parity data.

    State index = f * NB + b where f encodes fermionic occupations as bits
    (slot j = bit j) and b encodes bosonic occupations as base-(n_max+1)
    digits.  Slots follow the global mode order (line, site, flavor).
    """

    def __init__(self, cfg: LatticeConfig):
        self.dim = dim = cfg.dim
        self.cfg = cfg._q_one
        order = [
            (line, site, flavor)
            for line in cfg.lines
            for site in cfg.sites
            for flavor in range(1, max(cfg.M, cfg.N) + 1)
        ]
        self.fermion_modes = tuple(
            ModeId(FERMION, fl, ln, st) for (ln, st, fl) in order if fl <= cfg.M
        )
        self.boson_modes = tuple(
            ModeId(BOSON, fl, ln, st) for (ln, st, fl) in order if fl <= cfg.N
        )
        self.F = len(self.fermion_modes)
        self.B = len(self.boson_modes)
        self._fslot = {m: j for j, m in enumerate(self.fermion_modes)}
        self._bslot = {m: j for j, m in enumerate(self.boson_modes)}
        self.NF = 2 ** self.F
        self.NB = (cfg.n_max + 1) ** self.B
        # scipy's own index type for the whole basis, so nothing is converted
        self._idx = np.int32 if dim <= np.iinfo(np.int32).max else np.int64

        f = np.arange(self.NF, dtype=np.int64)
        self.f_occ = ((f[:, None] >> np.arange(self.F)) & 1).astype(np.uint8)
        # parity prefix: number of occupied fermionic slots strictly below j
        below = np.cumsum(self.f_occ, axis=1) - self.f_occ
        self.f_sign = np.where(below % 2 == 0, 1, -1).astype(np.int8)

        b = np.arange(self.NB, dtype=np.int64)
        nb = cfg.n_max + 1
        self.b_occ = ((b[:, None] // nb ** np.arange(self.B)) % nb).astype(np.uint8)
        self._memo = {self.cfg: {}}
        self._one = {k: identity_op(self, k) for k in (FERMION, BOSON)}

    def fermion_slot(self, mode: ModeId) -> int:
        return self._fslot[mode]

    def boson_slot(self, mode: ModeId) -> int:
        return self._bslot[mode]

    def size(self, factor: str | None = None) -> int:
        """NF, NB, or for ``factor`` None the dimension of the whole basis."""
        return {FERMION: self.NF, BOSON: self.NB}.get(factor, self.dim)

    def lift(self, kind: str | None, x):
        """A vector (a diagonal) or an operator x on the fermion or boson factor
        of the index f * NB + b on the whole basis, x (x) 1 or 1 (x) x (x for None)."""
        if kind is None:
            return x
        if sp.issparse(x):
            return self.kron(x, None) if kind == FERMION else self.kron(None, x)
        return np.repeat(x, self.NB) if kind == FERMION else np.tile(x, self.NF)

    def kron(self, x: sp.csr_matrix | None, y: sp.csr_matrix | None) -> sp.csr_matrix:
        """x (x) 1 or 1 (x) y on the whole basis, x on the fermion factor or y on
        the boson factor, the other None (both None: the identity).  Row
        f*NB + b holds the entries of row f of x or b of y, each added to
        zero, as scipy's product with the identity forms them."""
        if x is not None and y is not None:
            raise ValueError("kron lifts one factor operator; the other must be None")
        x = self._one[FERMION] if x is None else x
        y = self._one[BOSON] if y is None else y
        idx, cx, cy = self._idx, np.diff(x.indptr), np.diff(y.indptr)
        indptr = y.nnz * x.indptr[:-1, None].astype(idx) + np.outer(cx, y.indptr[:-1])
        indices = (x.indices[:, None].astype(idx) * self.NB + y.indices).ravel()
        data = (0.0 + np.broadcast_to(y.data if x is self._one[FERMION] else x.data[:, None],
                                      (x.nnz, y.nnz))).ravel()
        if cx.max(initial=0) > 1:
            # entry p of row f (x) entry s of row b is entry p*cy[b] + s of
            # row f*NB + b; with one entry per row of x this is the order above
            rx, ry = np.repeat(np.arange(self.NF), cx), np.repeat(np.arange(self.NB), cy)
            p, s = np.arange(x.nnz) - x.indptr[rx], np.arange(y.nnz) - y.indptr[ry]
            dest = ((y.nnz * x.indptr[rx])[:, None] + np.outer(cx[rx], y.indptr[ry])
                    + np.outer(p, cy[ry]) + s).ravel()
            indices[dest], data[dest] = indices.copy(), data.copy()
        out = sp.csr_matrix((data, indices, np.append(indptr.ravel(), idx(data.size))),
                            shape=(self.dim, self.dim))
        if not data.all():
            out.eliminate_zeros()
        return out

    @staticmethod
    def stack(blocks) -> sp.csr_matrix:
        """The block-diagonal matrix of ``blocks``, CSR matrices of one shape
        (None: a zero block).  Each row keeps its entries in their order, so a
        product, sum or scaling of stacks holds each block's own, every entry
        summed in the same order."""
        r, c = next(b.shape for b in blocks if b is not None)
        dtype = np.result_type(*(b.dtype for b in blocks if b is not None))
        blocks = [sp.csr_matrix((r, c), dtype=dtype) if b is None else b for b in blocks]
        offsets = np.cumsum([0] + [b.nnz for b in blocks]).tolist()
        indptr = [b.indptr[:-1] + off for b, off in zip(blocks, offsets)] + [offsets[-1:]]
        return sp.csr_matrix((np.concatenate([b.data for b in blocks]),
                              np.concatenate([b.indices + j * c for j, b in enumerate(blocks)]),
                              np.concatenate(indptr)), shape=(len(blocks) * r, len(blocks) * c))

    def memo(self, cfg: LatticeConfig, key, build):
        """``build()`` once per config and key, kept until :meth:`release`.
        Under ``self.cfg`` (q = 1) what reads no q lives as long as the basis
        (operators, masks, the plain set, each generator's pattern, the
        oscillators' canonical reports).  What one suite call alone reads is
        not kept here."""
        ops = self._memo.setdefault(cfg, {})
        if key not in ops:
            ops[key] = build()
        return ops[key]

    def release(self):
        """Drop the entries of every config but ``self.cfg``: all that reads a q."""
        self._memo = {self.cfg: self._memo[self.cfg]}

    def vacuum_occupation(self, mode: ModeId) -> int:
        """Occupation of this mode in the reference vacuum of its line's scheme."""
        if self.cfg.line_ordering(mode.line) == SEA:
            if mode.kind == FERMION and mode.site < 0:
                return 1
        return 0


def build_basis(cfg: LatticeConfig) -> FockBasis:
    """Enumerate the occupation basis; deterministic state ordering."""
    return FockBasis(cfg)


def cached_basis(cfg: LatticeConfig) -> FockBasis:
    """The basis of ``cfg``, built once per process and corruption.  A basis
    reads no q: it is built for the q = 1 config and shared by every q."""
    return _cached_basis(cfg._q_one)


@lru_cache(maxsize=32)
def _cached_basis(cfg: LatticeConfig) -> FockBasis:
    return build_basis(cfg)


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------

def identity_op(basis: FockBasis, factor: str | None = None) -> sp.csr_matrix:
    """The identity on the whole basis, or on its fermion or boson factor."""
    return sp.identity(basis.size(factor), format="csr")


def zero_op(basis: FockBasis, factor: str | None = None) -> sp.csr_matrix:
    """The zero operator on the whole basis, or on its fermion or boson factor."""
    n = basis.size(factor)
    return sp.csr_matrix((n, n))


def diag_operator(diagonal: np.ndarray) -> sp.csr_matrix:
    """The diagonal matrix of ``diagonal``, zeros not stored, in its dtype:
    real unless the diagonal is complex."""
    d = np.asarray(diagonal)
    keep = np.flatnonzero(d)
    indptr = np.zeros(d.size + 1, dtype=np.int32)
    np.cumsum(d != 0, out=indptr[1:])
    return sp.csr_matrix((d[keep], keep.astype(np.int32), indptr),
                         shape=(d.size, d.size))


def entry_rows(x: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of the CSR matrix x, in storage order, in
    the type of its column indices."""
    return np.repeat(np.arange(x.shape[0], dtype=x.indices.dtype), np.diff(x.indptr))


def scale_entries(x: sp.csr_matrix, w: np.ndarray) -> sp.csr_matrix:
    """x with its k-th stored entry times w[k], the entry the left operand at
    any size (numpy's ``*`` may swap them), on x's own pattern: the result
    shares x's ``indices`` and ``indptr``, copying neither."""
    return sp.csr_matrix((np.multiply(x.data, w), x.indices, x.indptr), shape=x.shape)


def scale_rows(x: sp.spmatrix, v: np.ndarray) -> sp.csr_matrix:
    """diag(v) @ x without forming the diagonal: row i of x times v[i]."""
    x = x.tocsr()
    return scale_entries(x, np.repeat(v, np.diff(x.indptr)))


def scale_columns(x: sp.spmatrix, v: np.ndarray) -> sp.csr_matrix:
    """x @ diag(v) without forming the diagonal: column j of x times v[j]."""
    x = x.tocsr()
    return scale_entries(x, v[x.indices])


def ladder(cfg: LatticeConfig, basis: FockBasis, mode: ModeId,
           dagger: bool = False) -> sp.csr_matrix:
    """The annihilator of ``mode`` on its factor of the basis index, or its
    adjoint, the creator; built once per config, a fermion's once per basis.

    A fermion's c carries the Jordan-Wigner string over all fermionic slots
    preceding the mode in the global order.  The one boson ladder is the
    q-boson b|n> = sqrt([n]_q) |n-1>, hard cutoff at n_max; the plain boson
    d|n> = sqrt(n) |n-1> is this ladder at ``basis.cfg`` (q = 1), since
    [n]_1 = n.  Config validation guarantees [n]_q > 0 up to the cutoff, so
    the root is real.
    """
    def build():
        if dagger:
            return op_adjoint(ladder(cfg, basis, mode))
        if mode.kind == FERMION:
            j = basis.fermion_slot(mode)
            src = np.nonzero(basis.f_occ[:, j])[0]
            return sp.csr_matrix((basis.f_sign[src, j].astype(float), (src ^ (1 << j), src)),
                                 shape=(basis.NF, basis.NF))
        j = basis.boson_slot(mode)
        occ = basis.b_occ[:, j]
        src = np.nonzero(occ)[0]
        amplitude = np.sqrt([q_number(n, cfg.q).real for n in range(cfg.n_max + 1)])
        return sp.csr_matrix((amplitude[occ[src]],
                              (src - (cfg.n_max + 1) ** j, src)), shape=(basis.NB, basis.NB))
    return basis.memo(basis.cfg if mode.kind == FERMION else cfg, (mode, dagger), build)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def entry_products(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i v_j for every pair, shape (len(u), len(v)), as scipy forms a
    product entry of one term: added to zero, and for complex operands real
    and imaginary parts each rounded separately."""
    u = u[:, None]
    if not (np.iscomplexobj(u) or np.iscomplexobj(v)):
        return 0.0 + u * v
    data = np.empty((len(u), len(v)), dtype=np.result_type(u, v))
    data.real = 0.0 + (u.real * v.real - u.imag * v.imag)
    data.imag = 0.0 + (u.real * v.imag + u.imag * v.real)
    return data


def assemble(pieces, n: int) -> sp.csr_matrix:
    """The n x n CSR sum of ``pieces``, each the (rows, columns, values) of its
    stored entries.  The pieces must store disjoint positions, which is
    checked (the sum holds one entry per stored entry), so each entry of the
    sum is one piece's value, put in place as it is."""
    rows, columns, values = (np.concatenate(part) for part in zip(*pieces))
    total = sp.csr_matrix((values, (rows, columns)), shape=(n, n))
    if total.nnz != values.size:
        raise ValueError(f"{values.size - total.nnz} entries of the pieces share a position")
    return total


def op_adjoint(x: sp.spmatrix) -> sp.csr_matrix:
    return x.conjugate().transpose().tocsr()


def commutator(x, y, c: complex = 1.0) -> list:
    """X Y - c Y X as products (see ``report.restrict``), each operand a
    matrix or a list of products (a, X1, ..., Xn), multiplied out term by
    term; for c = 0 the products of X Y alone."""
    x, y = ([(1, t)] if sp.issparse(t) else t for t in (x, y))
    if x[0][1].shape != y[0][1].shape:
        raise ValueError(f"operator dimensions differ: {x[0][1].shape} vs {y[0][1].shape}")
    return ([(a * b, *u, *v) for a, *u in x for b, *v in y]
            + [(-c * b * a, *v, *u) for a, *u in x for b, *v in y if c])


def supercommutator(x, y, grade_x: int, grade_y: int) -> list:
    """X Y - (-1)^(gx*gy) Y X as products: :func:`commutator`."""
    return commutator(x, y, -1.0 if (grade_x * grade_y) % 2 else 1.0)


def residual_norm(x: sp.spmatrix) -> float:
    """Largest entry magnitude; the residual measure used by every check."""
    if x.nnz == 0:
        return 0.0
    return float(np.abs(x.data).max())


# ---------------------------------------------------------------------------
# bulk projector
# ---------------------------------------------------------------------------

def bulk_mask(basis: FockBasis, boundary_margin: int, boson_headroom: int,
              factor: str | None = None) -> np.ndarray:
    """Boolean diagonal of the bulk projector, or its fermion or boson factor.

    Keeps states whose ``boundary_margin`` outermost sites on every line carry
    the vacuum occupation of that line's scheme and whose bosonic occupations
    all stay at or below n_max - boson_headroom; the vacuum is always kept.
    The bulk is f_ok (x) b_ok, so ``factor`` FERMION (BOSON) gives f_ok
    (b_ok), the bulk of an operator X (x) 1 (1 (x) Y).
    """
    if boundary_margin < 0:
        raise ValueError("boundary_margin must be >= 0")
    cfg = basis.cfg
    if not 0 <= boson_headroom <= cfg.n_max:
        raise ValueError("boson_headroom must lie in [0, n_max]")
    sites = cfg.sites
    m = min(boundary_margin, cfg.S)
    boundary = set(sites[:m]) | set(sites[len(sites) - m:])

    f_ok = np.ones(basis.NF, dtype=bool)
    for mode in basis.fermion_modes:
        if mode.site in boundary:
            j = basis.fermion_slot(mode)
            f_ok &= basis.f_occ[:, j] == basis.vacuum_occupation(mode)
    b_ok = (basis.b_occ <= cfg.n_max - boson_headroom).all(axis=1)
    for mode in basis.boson_modes:
        if mode.site in boundary:
            j = basis.boson_slot(mode)
            b_ok &= basis.b_occ[:, j] == 0
    if factor is not None:
        return f_ok if factor == FERMION else b_ok
    return (f_ok[:, None] & b_ok[None, :]).ravel()

