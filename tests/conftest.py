import pytest

from anyonrep.fock import LatticeConfig, build_basis, bulk_mask, diag_operator


def bulk_projector(cfg, basis, boundary_margin=1, boson_headroom=0):
    """The bulk projector as a diagonal matrix: the reference the restriction
    of a check's products to its bulk is tested against."""
    return diag_operator(bulk_mask(cfg, basis, boundary_margin, boson_headroom)
                         .astype(complex))


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
