import numpy as np
import pytest
import scipy.sparse as sp

from anyonrep.algebra import (
    _factor_ops,
    _h_local_diag,
    _node_modes,
    eq57_exponent,
    node_factor,
)
from anyonrep.anyons import anyon_factor
from anyonrep.oscillators import normal_number, string_factor
from anyonrep.fock import (
    BOSON,
    FERMION,
    FockBasis,
    LatticeConfig,
    _cached_basis,
    build_basis,
    bulk_mask,
    diag_operator,
    identity_op,
    ladder,
    q_power,
)


def bulk_projector(basis, boundary_margin=1, boson_headroom=0):
    """The bulk projector as a diagonal matrix: the reference the restriction
    of a check's products to its bulk is tested against."""
    return diag_operator(bulk_mask(basis, boundary_margin, boson_headroom)
                         .astype(float))


def occupations(basis, index):
    """(fermionic, bosonic) occupation vectors of one basis state."""
    f, b = divmod(index, basis.NB)
    return basis.f_occ[f].copy(), basis.b_occ[b].copy()


def index_for(basis, f_occ, b_occ) -> int:
    """The index of the state with these occupations, f * NB + b."""
    f = int(np.dot(np.asarray(f_occ, dtype=np.int64), 2 ** np.arange(basis.F)))
    nb = basis.cfg.n_max + 1
    b = int(np.dot(np.asarray(b_occ, dtype=np.int64), nb ** np.arange(basis.B)))
    return f * basis.NB + b


def kron_lift(basis, kind, x):
    """The reference lift x (x) 1 (fermions) or 1 (x) x (bosons), by sp.kron,
    in x's dtype: the identity is real."""
    one = sp.identity(basis.NB if kind == FERMION else basis.NF, format="csr")
    return (sp.kron(x, one) if kind == FERMION else sp.kron(one, x)).tocsr()


def full_ladder(cfg, basis, mode, dagger=False):
    """The annihilator of ``mode``, or the creator, on the whole basis: the
    kron lift of its factor operator."""
    return kron_lift(basis, mode.kind, ladder(cfg, basis, mode, dagger))


def full_anyon(cfg, basis, mode, family, dagger=False):
    """One anyon on the whole basis: the kron lift of its factor operator."""
    return kron_lift(basis, mode.kind, anyon_factor(cfg, basis, mode, family, dagger))


def on_basis(basis, alpha, x):
    """A local piece (an operator) or a tail or Cartan part (a vector) of node
    alpha, which the package forms on the node's factor, on the whole basis."""
    return basis.lift(node_factor(basis.cfg, alpha), x)


def lifted_product(basis, x, y):
    """The product of the kron lifts of x on the fermion factor and y on the
    boson factor (None: the identity), its rows sorted: scipy's product
    leaves them in reverse order of first touch."""
    def lift(kind, z):
        return kron_lift(basis, kind, identity_op(basis, kind) if z is None else z)

    out = lift(FERMION, x) @ lift(BOSON, y)
    out.sort_indices()
    return out


def piece(basis, op, w, r, s):
    """w op(r, True) op(s, False) as a matrix on the smallest space that holds
    it, the reference of ``algebra._entries``: x @ y on the modes' shared
    factor, else the product of the lifts of X and Y, fermion first, on the
    whole basis."""
    x, y = op(r, True), op(s, False)
    if r.kind == s.kind:
        p = x @ y
    else:
        p = lifted_product(basis, *((y, x) if r.kind == BOSON else (x, y)))
    return p if w == 1 else w * p


def local_e(cfg, basis, alpha, sign, line, r, dressed):
    """e^+ = upper^dag lower or e^- = lower^dag upper of node alpha at
    (line, r), dressed or plain, as a matrix on the node's factor."""
    return piece(basis, _factor_ops(cfg, basis, sign, dressed), 1,
                 *_node_modes(cfg, alpha, line, r, sign))


def full_local_e(cfg, basis, alpha, *args):
    return on_basis(basis, alpha, local_e(cfg, basis, alpha, *args))


def full_h_local_diag(basis, alpha, *args):
    return on_basis(basis, alpha, _h_local_diag(basis, alpha, *args))


def full_eq57_exponent(basis, alpha, *args):
    return on_basis(basis, alpha, eq57_exponent(basis, alpha, *args))


def full_normal_number(basis, mode):
    """:n:(r) of ``mode`` on the whole basis, the lift of its factor vector."""
    return basis.lift(mode.kind, normal_number(basis, mode))


def string_exponent(basis, mode):
    """sum_t eps(t - r) :n(t): of ``mode`` on the whole basis, the lift of
    its factor vector: the full-dimension string the references read."""
    return basis.lift(mode.kind, string_factor(basis, mode))


def disorder_factor(cfg, basis, mode, tilde=False):
    """Diagonal string q^{-+ 1/2 sum_t eps(t-r) :n(t):} (fermion/boson base
    sign, flipped for a boson under ``cfg.corruption.flip_boson_disorder``) of
    ``mode``; ``tilde`` gives its inverse, the string at q^-1.  The
    reference the anyons' scaled strings are tested against, summed at full
    dimension from :func:`string_exponent`."""
    base = -0.5 if mode.kind == FERMION else +0.5
    if cfg.corruption.flip_boson_disorder and mode.kind == BOSON:
        base = -base
    if tilde:
        base = -base
    return diag_operator(q_power(cfg.q, base * string_exponent(basis, mode)))


@pytest.fixture
def memo_builds(monkeypatch):
    """The (config, key) of every operator ``FockBasis.memo`` builds while
    the test runs, in order.  The test starts on a fresh basis, so what it
    runs is not a memo hit of an earlier test."""
    _cached_basis.cache_clear()
    builds = []
    memo = FockBasis.memo

    def counted(self, cfg, key, build):
        return memo(self, cfg, key, lambda: builds.append((cfg, key)) or build())

    monkeypatch.setattr(FockBasis, "memo", counted)
    return builds


@pytest.fixture(scope="session")
def cfg21():
    return LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3)


@pytest.fixture(scope="session")
def basis21(cfg21):
    return build_basis(cfg21)


@pytest.fixture(scope="session")
def cfg22():
    return LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3)


@pytest.fixture(scope="session")
def basis22(cfg22):
    return build_basis(cfg22)
