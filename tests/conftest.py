import pytest

from anyonrep.anyons import string_exponent
from anyonrep.fock import (
    BOSON,
    FERMION,
    NO_CORRUPTION,
    LatticeConfig,
    build_basis,
    bulk_mask,
    diag_operator,
    q_power,
)


def bulk_projector(cfg, basis, boundary_margin=1, boson_headroom=0):
    """The bulk projector as a diagonal matrix: the reference the restriction
    of a check's products to its bulk is tested against."""
    return diag_operator(bulk_mask(cfg, basis, boundary_margin, boson_headroom)
                         .astype(complex))


def disorder_factor(cfg, basis, mode, tilde=False, corruption=NO_CORRUPTION):
    """Diagonal string q^{-+ 1/2 sum_t eps(t-r) :n(t):} (fermion/boson base
    sign) of ``mode``; ``tilde`` gives its inverse, the string at q^-1.  The
    reference the anyons' scaled strings are tested against, summed at full
    dimension from :func:`string_exponent`."""
    base = -0.5 if mode.kind == FERMION else +0.5
    if corruption.flip_boson_disorder and mode.kind == BOSON:
        base = -base
    if tilde:
        base = -base
    return diag_operator(q_power(cfg.q, base * string_exponent(cfg, basis, mode)))


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
