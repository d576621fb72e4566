import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import bulk_projector, full_ladder, full_normal_number, index_for, occupations
from anyonrep.fock import (
    LatticeConfig,
    boson_mode,
    build_basis,
    diag_operator,
    fermion_mode,
    op_adjoint,
    q_number,
    residual_norm,
)
from anyonrep.oscillators import (
    number_diag,
    suite_oscillators,
)
from anyonrep.report import reports_ok


def test_number_op_matches_definition(cfg21, basis21):
    for mode in basis21.fermion_modes + basis21.boson_modes:
        low = full_ladder(cfg21._q_one, basis21, mode)
        n = diag_operator(number_diag(basis21, mode))
        assert residual_norm(op_adjoint(low) @ low - n) <= 1e-13


def test_number_eigenvalue_ranges(cfg21, basis21):
    for mode in basis21.fermion_modes:
        vals = number_diag(basis21, mode)
        assert set(np.unique(vals)) <= {0.0, 1.0}
    for mode in basis21.boson_modes:
        vals = number_diag(basis21, mode)
        assert vals.min() == 0 and vals.max() == cfg21.n_max


def test_normal_ordering_constants_on_empty_state(cfg21, basis21):
    # the all-empty Fock state: negative-site fermions read -1, bosons +1
    empty = 0
    nf = full_normal_number(basis21, fermion_mode(1, -0.5))
    nb = full_normal_number(basis21, boson_mode(1, -0.5))
    assert nf[empty] == -1.0
    assert nb[empty] == +1.0
    # positive sites and the empty scheme stay bare
    assert full_normal_number(basis21, fermion_mode(1, 0.5))[empty] == 0
    cfg_e = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3, ordering="empty")
    be = build_basis(cfg_e)
    for mode in (fermion_mode(1, -0.5), boson_mode(1, -0.5)):
        assert full_normal_number(be, mode)[0] == 0


def test_normal_ordering_is_constant_shift(cfg21, basis21):
    for mode in basis21.fermion_modes + basis21.boson_modes:
        shift = (full_normal_number(basis21, mode)
                 - number_diag(basis21, mode))
        assert np.allclose(shift, shift[0])
        assert (shift == shift[0]).all()


# ---------------------------------------------------------------------------
# q-bosons
# ---------------------------------------------------------------------------

def test_q_boson_matrix_elements_oracle(cfg21, basis21):
    """<n-1|b|n> must be sqrt([n]_q), computed here independently via the
    sine form on the unit circle."""
    mode = basis21.boson_modes[0]
    b = full_ladder(cfg21, basis21, mode)
    nu = cfg21.nu
    j = basis21.boson_slot(mode)
    stride = (cfg21.n_max + 1) ** j
    for n in range(1, cfg21.n_max + 1):
        src_b = n * stride
        dst_b = (n - 1) * stride
        amp = b[dst_b, src_b]
        expected = math.sqrt(math.sin(n * math.pi * nu) / math.sin(math.pi * nu))
        assert abs(amp - expected) < 1e-13


def test_q_boson_number_pairing_at_nu_quarter():
    # [2]_q = q + 1/q = sqrt(2) at q = exp(i pi / 4)
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.25)
    basis = build_basis(cfg)
    mode = basis.boson_modes[0]
    b = full_ladder(cfg, basis, mode)
    j = basis.boson_slot(mode)
    stride = (cfg.n_max + 1) ** j
    idx = 2 * stride  # the |n'=2> state in the boson sector, fermions empty
    val = (op_adjoint(b) @ b).diagonal()[idx]
    assert abs(val - math.sqrt(2)) < 1e-13
    assert abs(val - q_number(2, cfg.q)) < 1e-13


@pytest.mark.parametrize("q", [{"nu": 0.3}, {"q_real": 1.3}])
def test_boson_ladders_match_the_per_state_formula(q):
    """d|n> = sqrt(n)|n-1> and b|n> = sqrt([n]_q)|n-1>, entry by entry: the
    one ladder at q = 1 and at q."""
    cfg = LatticeConfig(M=2, N=2, S=2, n_max=2, **q)
    basis = build_basis(cfg)
    for mode in basis.boson_modes:
        j = basis.boson_slot(mode)
        rows, cols, plain, deformed = [], [], [], []
        for i in range(basis.dim):
            f_occ, b_occ = occupations(basis, i)
            n = int(b_occ[j])
            if n == 0:
                continue
            b_occ[j] -= 1
            rows.append(index_for(basis, f_occ, b_occ))
            cols.append(i)
            plain.append(math.sqrt(n))
            deformed.append(math.sqrt(q_number(n, cfg.q).real))
        for at, vals in ((cfg._q_one, plain), (cfg, deformed)):
            ref = sp.csr_matrix((np.array(vals, dtype=complex), (rows, cols)),
                                shape=(basis.dim, basis.dim))
            assert residual_norm(full_ladder(at, basis, mode) - ref) == 0.0


def test_q_boson_create_is_adjoint(cfg21, basis21):
    mode = basis21.boson_modes[0]
    assert residual_norm(full_ladder(cfg21, basis21, mode, True)
                         - op_adjoint(full_ladder(cfg21, basis21, mode))) == 0.0


def test_q_boson_qcommutator_headroom(cfg21, basis21):
    # b b^dag - q b^dag b = q^{-n'} away from the cutoff
    from anyonrep.fock import diag_operator, q_power
    from anyonrep.oscillators import number_diag
    mode = basis21.boson_modes[0]
    b = full_ladder(cfg21, basis21, mode)
    bd = op_adjoint(b)
    q = cfg21.q
    head = bulk_projector(basis21, 0, 1)
    rhs = diag_operator(q_power(q, -number_diag(basis21, mode)))
    lhs = b @ bd - q * (bd @ b)
    assert residual_norm(head @ (lhs - rhs) @ head) <= cfg21.tol


def test_q_boson_real_q():
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, q_real=1.3)
    basis = build_basis(cfg)
    from anyonrep.fock import diag_operator, q_power
    from anyonrep.oscillators import number_diag
    mode = basis.boson_modes[0]
    b = full_ladder(cfg, basis, mode)
    bd = op_adjoint(b)
    head = bulk_projector(basis, 0, 1)
    rhs = diag_operator(q_power(cfg.q, number_diag(basis, mode)))
    lhs = b @ bd - (bd @ b) / cfg.q
    assert residual_norm(head @ (lhs - rhs) @ head) <= cfg.tol


@given(st.integers(1, 3), st.floats(0.05, 0.3))
@settings(max_examples=25, deadline=None)
def test_q_number_positive_inside_window(n, nu):
    # guaranteed positive while n * nu < 1
    if n * nu < 0.999:
        q = np.exp(1j * np.pi * nu)
        val = q_number(n, q)
        assert val.real > 0 and abs(val.imag) < 1e-12


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_suite_oscillators_passes(cfg21):
    reports = suite_oscillators(cfg21)
    assert reports and reports_ok(reports)
    assert all(r.residual <= 1e-10 for r in reports if r.applicable)


def test_suite_oscillators_deterministic(cfg21):
    r1 = suite_oscillators(cfg21)
    r2 = suite_oscillators(cfg21)
    assert [(r.relation_id, r.residual) for r in r1] == \
           [(r.relation_id, r.residual) for r in r2]
