import cmath

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import bulk_projector, full_ladder, index_for, occupations
from anyonrep.anyons import anyon_factor
from anyonrep.fock import (
    ConfigError,
    InstanceTooLargeError,
    LatticeConfig,
    build_basis,
    bulk_mask,
    diag_operator,
    identity_op,
    boson_mode,
    commutator,
    op_adjoint,
    q_bracket,
    q_number,
    q_power,
    residual_norm,
    scale_columns,
    scale_rows,
    site_order_sign,
    supercommutator,
)
from anyonrep.report import restrict


# ---------------------------------------------------------------------------
# configuration and basis
# ---------------------------------------------------------------------------

def test_dimension_examples():
    assert LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3).dim == 144
    assert LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3).dim == 2 ** 4 * 3 ** 4 == 1296


def test_degenerate_rank_rejected():
    with pytest.raises(ConfigError):
        LatticeConfig(M=1, N=1, S=2, nu=0.3)


@pytest.mark.parametrize("kwargs", [
    dict(S=3), dict(S=0), dict(n_max=0), dict(K=0),
    dict(ordering="weird"), dict(ordering=("sea", "sea")),
    dict(tol=-1.0), dict(dim_cap=0), dict(dim_cap=-5),
    dict(tol=float("inf")), dict(tol=float("nan")),
])
def test_bad_geometry_rejected(kwargs):
    base = dict(M=2, N=1, S=2, nu=0.3)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        LatticeConfig(**base)


def test_q_inputs_are_exclusive():
    with pytest.raises(ConfigError):
        LatticeConfig(M=2, N=1, S=2)
    with pytest.raises(ConfigError):
        LatticeConfig(M=2, N=1, S=2, nu=0.3, q_real=1.3)
    with pytest.raises(ConfigError):
        LatticeConfig(M=2, N=1, S=2, q_real=-2.0)


@pytest.mark.parametrize("kwargs, named", [
    (dict(nu=float("nan")), "nu"), (dict(nu=float("inf")), "nu"),
    (dict(nu=float("-inf")), "nu"), (dict(q_real=float("nan")), "q_real"),
    (dict(q_real=float("inf")), "q_real"), (dict(q_real=1.3, n_max=3000), "n_max"),
    (dict(nu=1e308), "nu"), (dict(nu=-1e308), "nu"),
])
def test_non_finite_or_overflowing_q_rejected(kwargs, named):
    """A non-finite q, a nu whose pi * nu overflows, or a q whose [n]_q
    overflows below the cutoff, is a config error that names the key, not a
    nan residual, an OverflowError or a math domain error."""
    with pytest.raises(ConfigError, match=named):
        LatticeConfig(M=2, N=1, S=2, **kwargs)


def test_q_bracket_positivity_enforced():
    # nu = 0.3 allows n_max <= 3; [4]_q = sin(1.2 pi)/sin(0.3 pi) < 0
    LatticeConfig(M=2, N=1, S=2, n_max=3, nu=0.3)
    with pytest.raises(ConfigError):
        LatticeConfig(M=2, N=1, S=2, n_max=4, nu=0.3)


@pytest.mark.parametrize("qspec", [{"nu": 0.3}, {"q_real": 1.3}])
def test_a_basis_holds_its_config_at_q_one(qspec):
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, **qspec)
    basis = build_basis(cfg)
    assert basis.cfg == cfg._q_one and basis.cfg.q == 1


def test_dimension_cap():
    with pytest.raises(InstanceTooLargeError, match="instance too large"):
        build_basis(LatticeConfig(M=2, N=1, S=10, nu=0.3))


def test_sites_symmetric_about_zero(cfg21):
    assert cfg21.sites == (-0.5, 0.5)
    cfg = LatticeConfig(M=2, N=1, S=4, nu=0.3)
    assert cfg.sites == (-1.5, -0.5, 0.5, 1.5)
    assert sum(cfg.sites) == 0


def test_state_index_bijection(basis21):
    seen = set()
    for i in range(basis21.dim):
        f, b = occupations(basis21, i)
        assert index_for(basis21, f, b) == i
        seen.add((tuple(f), tuple(b)))
    assert len(seen) == basis21.dim


# ---------------------------------------------------------------------------
# canonical (anti)commutators
# ---------------------------------------------------------------------------

def test_car_all_pairs_exact(cfg21, basis21):
    one = identity_op(basis21)
    for m1 in basis21.fermion_modes:
        c1 = full_ladder(cfg21, basis21, m1)
        assert residual_norm(c1 @ c1) == 0.0
        for m2 in basis21.fermion_modes:
            c2 = full_ladder(cfg21, basis21, m2)
            anti = c1 @ op_adjoint(c2) + op_adjoint(c2) @ c1
            expected = one if m1 == m2 else 0 * one
            assert residual_norm(anti - expected) <= 1e-13
            assert residual_norm(c1 @ c2 + c2 @ c1) <= 1e-13


def test_ccr_on_headroom_subspace(cfg21, basis21):
    one = identity_op(basis21)
    head = bulk_projector(basis21, 0, 1)
    for m1 in basis21.boson_modes:
        d1 = full_ladder(cfg21._q_one, basis21, m1)
        for m2 in basis21.boson_modes:
            d2 = full_ladder(cfg21._q_one, basis21, m2)
            comm = d1 @ op_adjoint(d2) - op_adjoint(d2) @ d1
            expected = one if m1 == m2 else 0 * one
            assert residual_norm(head @ (comm - expected) @ head) <= 1e-13
            assert residual_norm(d1 @ d2 - d2 @ d1) <= 1e-13


def test_ccr_truncation_artifact_on_top_state(cfg21, basis21):
    # on |n_max> the commutator eigenvalue drops to -n_max instead of +1
    mode = basis21.boson_modes[0]
    d = full_ladder(cfg21._q_one, basis21, mode)
    comm = (d @ op_adjoint(d) - op_adjoint(d) @ d).diagonal().real
    j = basis21.boson_slot(mode)
    tops = np.tile(basis21.b_occ[:, j] == cfg21.n_max, basis21.NF)
    assert np.allclose(comm[tops], -cfg21.n_max)
    assert np.allclose(comm[~tops], 1.0)


def test_mixed_commutativity_exact(cfg21, basis21):
    for mf in basis21.fermion_modes:
        c = full_ladder(cfg21, basis21, mf)
        for mb in basis21.boson_modes:
            d = full_ladder(cfg21._q_one, basis21, mb)
            assert residual_norm(c @ d - d @ c) == 0.0
            assert residual_norm(c @ op_adjoint(d) - op_adjoint(d) @ c) == 0.0
            assert residual_norm(op_adjoint(c) @ d - d @ op_adjoint(c)) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_jordan_wigner_against_state_oracle(data):
    """Apply c to one basis state and compare with first-principles bookkeeping:
    the sign is the parity of occupied fermionic slots preceding the target."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3)
    basis = build_basis(cfg)
    i = data.draw(st.integers(0, basis.dim - 1))
    mode = data.draw(st.sampled_from(basis.fermion_modes))
    op = full_ladder(cfg, basis, mode)
    col = op[:, i].toarray().ravel()
    f_occ, b_occ = occupations(basis, i)
    j = basis.fermion_slot(mode)
    if f_occ[j] == 0:
        assert not col.any()
    else:
        sign = (-1) ** int(sum(f_occ[:j]))
        f_occ[j] = 0
        target = index_for(basis, f_occ, b_occ)
        expected = np.zeros(basis.dim, dtype=complex)
        expected[target] = sign
        assert np.array_equal(col, expected)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def op_pool(cfg21, basis21):
    pool = [full_ladder(cfg21, basis21, m) for m in basis21.fermion_modes[:2]]
    pool += [full_ladder(cfg21._q_one, basis21, m)
             for m in basis21.boson_modes[:1]]
    pool.append(op_adjoint(pool[0]) @ pool[2])
    return pool


def test_adjoint_involution_and_antihomomorphism(op_pool):
    for x in op_pool:
        assert residual_norm(op_adjoint(op_adjoint(x)) - x) == 0.0
        for y in op_pool:
            assert residual_norm(op_adjoint(x @ y)
                                 - op_adjoint(y) @ op_adjoint(x)) <= 1e-14


def test_supercommutator_of_odd_with_itself(op_pool):
    x = op_pool[0]
    assert residual_norm(restrict(supercommutator(x, x, 1, 1)) - 2 * (x @ x)) == 0.0


def test_q_commutator_reduces_to_commutator(op_pool):
    x, y = op_pool[0], op_pool[1]
    assert residual_norm(restrict(commutator(x, y, 1.0)) - (x @ y - y @ x)) == 0.0


def test_commutator_of_products_equals_the_whole_form(op_pool):
    """The commutator of two product lists, multiplied out term by term,
    is A B - c B A of the sides formed whole."""
    x, y, b, xy = op_pool
    c = cmath.exp(0.3j * cmath.pi)
    A = [(0.5, x, y), (-1j, b), (c, xy, b, y)]
    B = [(2, y), (c, b, x)]
    whole_a = 0.5 * (x @ y) - 1j * b + c * (xy @ b @ y)
    whole_b = 2 * y + c * (b @ x)
    ref = whole_a @ whole_b - c * (whole_b @ whole_a)
    assert residual_norm(ref) > 0.1
    for side in ("both", "right"):
        assert residual_norm(restrict(commutator(A, B, c), None, side) - ref) <= 1e-15


def test_nilpotency_residual_is_zero(cfg21, basis21):
    c = full_ladder(cfg21, basis21, basis21.fermion_modes[0])
    assert residual_norm(c @ c + c @ c) == 0.0


def test_combinator_shape_checks(cfg21, basis21):
    c = full_ladder(cfg21, basis21, basis21.fermion_modes[0])
    small = sp.identity(3, format="csr", dtype=complex)
    with pytest.raises(ValueError):
        supercommutator(c, small, 0, 0)


def test_residual_norm_empty():
    assert residual_norm(sp.csr_matrix((4, 4), dtype=complex)) == 0.0


# ---------------------------------------------------------------------------
# q-number helper
# ---------------------------------------------------------------------------

@given(st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_q_number_inversion_symmetric(n):
    q = np.exp(0.23j * np.pi)
    assert abs(q_number(n, q) - q_number(n, 1 / q)) < 1e-12
    assert abs(q_number(n, 1.0) - n) == 0.0


def test_q_number_unit_circle_is_real():
    q = np.exp(0.3j * np.pi)
    for n in range(5):
        assert abs(q_number(n, q).imag) < 1e-12
    assert abs(q_number(2, q) - 2 * np.cos(0.3 * np.pi)) < 1e-13


@pytest.mark.parametrize("q", [np.exp(0.3j * np.pi), 1.3, 1.0])
def test_q_bracket_diag_equals_per_state_loop(cfg22, basis22, q):
    """One q_number call per distinct value gives exactly the per-state
    loop, on every H_alpha of M2N2 and on n + 1; at a real q its real part."""
    from anyonrep.algebra import chevalley_generators
    from anyonrep.oscillators import number_diag
    gs = chevalley_generators(cfg22, basis22, deformed=False)
    n = number_diag(basis22, boson_mode(1, 0.5))
    for h in [gs.h(al) for al in gs.H] + [n + 1]:
        loop = np.array([q_number(x, q) for x in h], dtype=complex)
        assert q_bracket(h, q).tobytes() == _real_at_real_q(q, loop).tobytes()


def test_q_power_branch_consistency():
    q = np.exp(0.3j * np.pi)
    assert abs(q_power(q, 0.5) ** 2 - q) < 1e-14
    assert abs(q_power(1.3, 2.0) - 1.69) < 1e-12


# ---------------------------------------------------------------------------
# diagonal kernels: each equals the sparse-matrix form it replaces
# ---------------------------------------------------------------------------

ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1j, 0.5 - 0.25j, 1e-300])


@given(st.lists(ENTRIES, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_diag_operator_equals_sp_diags(vals):
    d = np.array(vals, dtype=complex)
    ref = sp.diags(d, format="csr").tocsr()
    out = diag_operator(d)
    assert out.shape == ref.shape and out.nnz == ref.nnz
    for name in ("data", "indices", "indptr"):
        a, b = getattr(out, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_csr(seed, n, per_row, duplicates):
    """n x n complex CSR with up to ``per_row`` entries per row, unsorted
    columns and, if asked, duplicate entries."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, per_row + 1, size=n)
    cols = rng.integers(0, n, size=counts.sum())
    if duplicates and cols.size:
        cols[rng.random(cols.size) < 0.3] = cols[0]
    data = rng.normal(size=cols.size) + 1j * rng.normal(size=cols.size)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 5),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_scaling_equals_diagonal_products(seed, n, per_row, duplicates):
    """Within 1e-15 on general matrices: duplicates are summed after
    scaling there, before it in the product."""
    x = _random_csr(seed, n, per_row, duplicates)
    v = q_power(np.exp(0.3j * np.pi), np.random.default_rng(seed).integers(-6, 7, n) / 2)
    v[::7] = 0
    assert residual_norm(scale_rows(x, v) - diag_operator(v) @ x) <= 1e-15
    assert residual_norm(scale_columns(x, v) - x @ diag_operator(v)) <= 1e-15


@pytest.mark.parametrize("qspec", [{"nu": 0.3}, {"q_real": 1.3}])
def test_scaling_a_ladder_is_exact(basis22, qspec):
    """One entry per row and column: the scaled ladder equals the product
    entry for entry."""
    cfg = LatticeConfig(M=2, N=2, S=2, n_max=2, **qspec)
    v = q_power(cfg.q, (np.arange(basis22.dim) % 7 - 3) / 2)
    ladders = [full_ladder(cfg, basis22, m) for m in basis22.fermion_modes]
    ladders += [full_ladder(at, basis22, m) for m in basis22.boson_modes
                for at in (cfg._q_one, cfg)]
    for x in ladders + [op_adjoint(x) for x in ladders]:
        for out, ref in ((scale_rows(x, v), diag_operator(v) @ x),
                         (scale_columns(x, v), x @ diag_operator(v))):
            assert out.nnz == ref.nnz and (out != ref).nnz == 0


@pytest.mark.parametrize("scale", [scale_rows, scale_columns])
def test_scaling_rounds_alike_at_every_size(scale):
    """The same entries, scaled inside a 16 383-entry and a 16 384-entry
    operand, give the same bits: from 256 KiB up numpy may reuse the scale
    vector's temporary and multiply in swapped order, and its complex
    a * b and b * a can round differently."""
    rng = np.random.default_rng(7)
    n = 16_384
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    big = scale(sp.diags(d, format="csr"), v).data
    small = scale(sp.diags(d[:-1], format="csr"), v[:-1]).data
    assert big[:-1].tobytes() == small.tobytes()
    assert small.tobytes() == np.multiply(d[:-1], v[:-1]).tobytes()


def _real_at_real_q(q, z):
    """The element-wise complex evaluation z as q_power and q_bracket return
    it: its real part at a positive real q (log q real), else z."""
    return z.real if cmath.log(q).imag == 0 else z


HALF = st.integers(-40, 40).map(lambda k: k / 2)
QS = st.one_of(st.floats(-0.99, 0.99).map(lambda nu: np.exp(1j * np.pi * nu)),
               st.floats(0.05, 20.0))


@given(QS, st.lists(st.one_of(HALF, st.just(-0.0)), min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_tabulated_q_power_is_bit_equal(q, xs):
    x = np.array(xs)
    ref = _real_at_real_q(q, np.exp(x * cmath.log(q)))
    assert q_power(q, x).tobytes() == ref.tobytes()


@given(QS, st.lists(st.floats(-20, 20), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_q_power_falls_back_off_the_half_integers(q, xs):
    for x in (np.array(xs) + 0.25, np.array([0.0, 60.0]), np.array(xs)):
        ref = _real_at_real_q(q, np.exp(x * cmath.log(q)))
        assert q_power(q, x).tobytes() == ref.tobytes()


@given(QS, st.lists(st.one_of(HALF, st.just(-0.0)), min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_q_bracket_reads_its_half_step_table_bit_for_bit(q, xs):
    """[h]_q from the half-step table (which the 81 repeats make smaller than
    h), -0.0 included, or off the half-integers from one q_number per
    distinct value, is q_number of each entry, bit for bit (its real part
    at a real q)."""
    for h in (np.array(xs + xs[:1] * 81), np.array(xs) + 0.25):
        loop = np.array([q_number(x, q) for x in h], dtype=complex)
        assert q_bracket(h, q).tobytes() == _real_at_real_q(q, loop).tobytes()


# ---------------------------------------------------------------------------
# bulk projector
# ---------------------------------------------------------------------------

def _bulk_oracle(cfg, basis, margin, headroom):
    """Independent enumeration of admissible states."""
    sites = cfg.sites
    m = min(margin, cfg.S)
    boundary = set(sites[:m]) | set(sites[len(sites) - m:])
    count = 0
    flags = []
    for i in range(basis.dim):
        f_occ, b_occ = occupations(basis, i)
        ok = True
        for mode, n in zip(basis.fermion_modes, f_occ):
            if mode.site in boundary and n != basis.vacuum_occupation(mode):
                ok = False
        for mode, n in zip(basis.boson_modes, b_occ):
            if mode.site in boundary and n != 0:
                ok = False
            if n > cfg.n_max - headroom:
                ok = False
        flags.append(ok)
        count += ok
    return count, np.array(flags)


def test_bulk_projector_trivial_case(cfg21, basis21):
    P = bulk_projector(basis21, 0, 0)
    assert residual_norm(P - identity_op(basis21)) == 0.0


def test_bulk_projector_matches_enumeration_oracle(cfg21, basis21):
    for margin, headroom in [(1, 0), (1, 1), (0, 1), (2, 0)]:
        count, flags = _bulk_oracle(cfg21, basis21, margin, headroom)
        mask = bulk_mask(basis21, margin, headroom)
        assert np.array_equal(mask, flags)
        assert mask.sum() == count
    # S=2 with margin 1 pins every site: the sea vacuum alone survives
    assert bulk_mask(basis21, 1, 0).sum() == 1


def test_bulk_rank_s4():
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    basis = build_basis(cfg)
    count, _ = _bulk_oracle(cfg, basis, 1, 0)
    # 4 free fermionic modes and 2 free bosonic modes in the middle
    assert count == 2 ** 4 * 2 ** 2 == 64
    assert bulk_mask(basis, 1, 0).sum() == 64


def test_sea_and_empty_projectors_differ(cfg21):
    cfg_e = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3, ordering="empty")
    b_sea = build_basis(cfg21)
    b_emp = build_basis(cfg_e)
    m_sea = bulk_mask(b_sea, 1, 0)
    m_emp = bulk_mask(b_emp, 1, 0)
    assert m_sea.sum() == m_emp.sum() == 1
    assert np.argmax(m_sea) != np.argmax(m_emp)
    assert np.argmax(m_emp) == 0  # the all-empty state sits at index 0


def test_bulk_projector_validation(cfg21, basis21):
    with pytest.raises(ValueError):
        bulk_projector(basis21, -1, 0)
    with pytest.raises(ValueError):
        bulk_projector(basis21, 0, cfg21.n_max + 1)


def vacuum_index(basis) -> int:
    """The index of the reference vacuum of each line's scheme."""
    f_occ = [basis.vacuum_occupation(m) for m in basis.fermion_modes]
    return index_for(basis, f_occ, [0] * basis.B)


@pytest.mark.parametrize("cfg", [
    LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3),
    LatticeConfig(M=2, N=1, S=2, K=2, n_max=2, ordering=("sea", "empty"), nu=0.3),
], ids=["M2N1S4-n1", "sea,empty"])
def test_every_bulk_holds_the_vacuum(cfg):
    """The margin pins boundary modes to their vacuum occupation and the
    headroom admits the zero boson state, so no bulk is empty."""
    basis = build_basis(cfg)
    vac = vacuum_index(basis)
    for margin in range(cfg.S + 2):
        for headroom in range(cfg.n_max + 1):
            assert bulk_mask(basis, margin, headroom)[vac], (margin, headroom)


def test_vacuum_index_matches_scheme(cfg21, basis21):
    idx = vacuum_index(basis21)
    f_occ, b_occ = occupations(basis21, idx)
    for mode, n in zip(basis21.fermion_modes, f_occ):
        assert n == (1 if mode.site < 0 else 0)
    assert not b_occ.any()


# ---------------------------------------------------------------------------
# site ordering
# ---------------------------------------------------------------------------

def test_site_order_sign_is_antisymmetric_total_order():
    pts = [(1, -0.5), (1, 0.5), (2, -0.5), (2, 0.5)]
    for a in pts:
        assert site_order_sign(*a, *a) == 0
        for b in pts:
            assert site_order_sign(*a, *b) == -site_order_sign(*b, *a)
    # line-major: everything on line 2 comes after everything on line 1
    assert site_order_sign(2, -0.5, 1, 0.5) == 1
    assert site_order_sign(1, 0.5, 1, -0.5) == 1


def test_stack_holds_each_blocks_own_products_sums_and_scalings():
    """A product, sum, difference or scaling of stacks, and a row or column
    scaling by the joined vectors, holds in each diagonal block the blocks'
    own result: the same entries, bit for bit, in the same order."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, K=2, ordering=("sea", "empty"), nu=0.3)
    basis = build_basis(cfg)
    q = cfg.q
    modes = basis.fermion_modes
    xs = [anyon_factor(cfg, basis, m, "a") for m in modes[:3]]
    ys = [anyon_factor(cfg, basis, m, "a~", True) for m in modes[1:4]]
    vs = [q_power(q, 0.5 * (basis.f_occ[:, j] - j)) for j in range(3)]
    forms = [
        lambda x, y, v: x @ y + (y @ x) / q,
        lambda x, y, v: x @ y - q * (y @ x),
        lambda x, y, v: -1 * x + y @ y,
        lambda x, y, v: scale_rows(x, v) - scale_columns(y, v),
    ]
    X, Y, V = basis.stack(xs), basis.stack(ys), np.concatenate(vs)
    r = basis.NF
    for form in forms:
        whole = form(X, Y, V)
        for j, (x, y, v) in enumerate(zip(xs, ys, vs)):
            own, block = form(x, y, v), whole[j * r:(j + 1) * r, j * r:(j + 1) * r]
            assert own.nnz > 0
            assert block.indptr.tolist() == own.indptr.tolist()
            assert block.indices.tolist() == own.indices.tolist()
            assert block.data.tobytes() == own.data.tobytes()
    assert basis.stack([None, xs[0]]).nnz == xs[0].nnz
    assert basis.stack([None, xs[0]])[r:, r:].toarray().tolist() == xs[0].toarray().tolist()
