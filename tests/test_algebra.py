import inspect
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    bulk_projector,
    full_anyon,
    full_eq57_exponent,
    full_h_local_diag,
    full_ladder,
    full_local_e,
    full_normal_number,
)
import anyonrep
from anyonrep import algebra as alg, anyons, cli, fock, oscillators, report, verify
from anyonrep.algebra import (
    DELTA,
    EPS,
    RootLabel,
    cached_basis,
    cached_generators,
    cartan_data,
    cartan_weyl_generators,
    cartan_weyl_h,
    central_charge_diag,
    chevalley_generators,
    compose_roots,
    root_weight,
)
from anyonrep.fock import (
    BOSON,
    FERMION,
    SEA,
    ConfigError,
    Corruption,
    LatticeConfig,
    ModeId,
    boson_mode,
    build_basis,
    diag_operator,
    fermion_mode,
    q_bracket,
    q_power,
    residual_norm,
    site_order_sign,
    supercommutator,
)
from anyonrep.report import restrict


# ---------------------------------------------------------------------------
# Cartan data
# ---------------------------------------------------------------------------

def test_cartan_matrix_2_2():
    ct = cartan_data(2, 2)
    assert ct.a.tolist() == [[0, 1, 0, -1],
                             [-1, 2, -1, 0],
                             [0, -1, 0, 1],
                             [-1, 0, -1, 2]]
    assert ct.a_tilde.tolist() == [[0, -1, 0, -1],
                                   [-1, 2, -1, 0],
                                   [0, -1, 0, -1],
                                   [-1, 0, -1, 2]]


def test_cartan_matrix_2_1_cyclic_wrap():
    ct = cartan_data(2, 1)
    assert ct.a.tolist() == [[0, 1, -1],
                             [-1, 2, -1],
                             [1, -1, 0]]


def test_cartan_tilde_keeps_diagonal_and_negatives():
    for M, N in [(2, 2), (3, 2), (2, 3), (1, 2)]:
        ct = cartan_data(M, N)
        a, at = ct.a, ct.a_tilde
        assert np.array_equal(np.diag(a), np.diag(at))
        off = ~np.eye(len(a), dtype=bool)
        assert (at[off] <= 0).all()
        assert np.array_equal(at[off & (a <= 0)], a[off & (a <= 0)])


@pytest.mark.parametrize("MN", [(2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_symmetrizers(MN):
    ct = cartan_data(*MN)
    a, d = ct.a, np.array(ct.d)
    for al in range(1, ct.R + 1):
        for be in range(1, ct.R + 1):
            assert d[al] * a[al][be] == d[be] * a[be][al]
    assert ct.d[0] == 1


def test_grading_and_q_alpha():
    ct = cartan_data(2, 2)
    assert ct.parity == (1, 0, 1, 0)
    cfg = LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3)
    q = np.exp(0.3j * np.pi)
    qa = ct.q_alpha(cfg)
    assert all(abs(qa[al] - q) < 1e-14 for al in (0, 1, 2))
    assert abs(qa[3] - 1 / q) < 1e-14
    flipped = ct.q_alpha(replace(cfg, corruption=Corruption(flip_q_alpha=True)))
    assert abs(flipped[0] - 1 / q) < 1e-14
    assert abs(flipped[3] - q) < 1e-14


def test_rank_one_rejected():
    with pytest.raises(ConfigError):
        cartan_data(1, 1)


def test_root_labels():
    ct = cartan_data(2, 2)
    assert ct.simple_root_label(1) == RootLabel((EPS, 1), (EPS, 2))
    assert ct.simple_root_label(2) == RootLabel((EPS, 2), (DELTA, 1))
    assert ct.simple_root_label(3) == RootLabel((DELTA, 1), (DELTA, 2))
    assert ct.simple_root_label(0) == RootLabel((DELTA, 2), (EPS, 1), m=1)
    assert ct.simple_root_label(0).parity == 1
    assert ct.simple_root_label(1).parity == 0


def test_root_weight_pairs_with_cartan_row():
    # <alpha_beta, h_a> = a_{a beta} for the horizontal nodes
    for M, N in [(2, 1), (2, 2)]:
        ct = cartan_data(M, N)
        for a_ in range(1, ct.R + 1):
            for be in range(1, ct.R + 1):
                w = root_weight(M, N, a_, ct.simple_root_label(be))
                assert w == ct.a[a_][be]


def test_compose_roots():
    r1 = RootLabel((EPS, 1), (EPS, 2))
    r2 = RootLabel((EPS, 2), (DELTA, 1))
    assert compose_roots(r1, r2) == RootLabel((EPS, 1), (DELTA, 1))
    assert compose_roots(r2, r1) is None


# ---------------------------------------------------------------------------
# generator sets
# ---------------------------------------------------------------------------

def test_cartan_spectra_are_integers(cfg21, basis21):
    gs = chevalley_generators(cfg21, basis21, deformed=True)
    for al, H in gs.H.items():
        vals = H.diagonal()
        assert np.allclose(vals.imag, 0)
        assert np.allclose(vals.real, np.round(vals.real), atol=1e-12)


def test_h_matches_number_combination(cfg21, basis21):
    gs = chevalley_generators(cfg21, basis21, deformed=False)
    expected = np.zeros(basis21.dim)
    for r in cfg21.sites:
        expected += full_normal_number(basis21, fermion_mode(1, r))
        expected -= full_normal_number(basis21, fermion_mode(2, r))
    assert residual_norm(gs.H[1] - diag_operator(expected)) == 0.0


def test_h_reads_the_diagonal_of_the_csr_cartan_generator(cfg22, basis22):
    """H_alpha stays a CSR matrix (it is exported and checked); h(alpha) is
    its diagonal, and the local pieces are vectors that sum to it."""
    for deformed in (True, False):
        gs = chevalley_generators(cfg22, basis22, deformed=deformed)
        for al, H in gs.H.items():
            assert isinstance(H, sp.csr_matrix)
            h = gs.h(al)
            assert h.dtype == np.float64
            assert h.tobytes() == H.diagonal().real.tobytes()
            local = sum(full_h_local_diag(basis22, al, line, r)
                        for line in cfg22.lines
                        for r in alg.admissible_sites(cfg22, al))
            assert np.array_equal(local, h)


@pytest.mark.parametrize("qspec", [{"q_real": 1.3}, {"nu": 0.3}])
def test_operators_are_real_unless_a_value_is_complex(qspec):
    """An operator is float64 unless one of its values is complex.  The
    ladders at q and at q = 1, the identity and zero operators, every
    H_alpha (kept as CSR), the plain set's E and the Cartan-Weyl operators
    are real at any q; the anyons, the deformed set, its rescaled generators
    and q^x are real at a real q and complex128 on the unit circle."""
    cfg = LatticeConfig(M=2, N=2, S=2, n_max=2, **qspec)
    basis = build_basis(cfg)
    real = np.dtype(np.float64)
    phase = real if "q_real" in qspec else np.dtype(np.complex128)
    for mode in basis.fermion_modes + basis.boson_modes:
        for dagger in (False, True):
            for at in (cfg, basis.cfg):
                assert fock.ladder(at, basis, mode, dagger).dtype == real
            for family, (kind, _) in anyons.FAMILIES.items():
                if kind == mode.kind:
                    assert anyons.anyon_factor(cfg, basis, mode, family, dagger).dtype == phase
    for factor in (None, FERMION, BOSON):
        assert fock.identity_op(basis, factor).dtype == real
        assert fock.zero_op(basis, factor).dtype == real
    plain, deformed = (chevalley_generators(cfg, basis, d) for d in (False, True))
    for gs in (plain, deformed):
        for al, H in gs.H.items():
            assert isinstance(H, sp.csr_matrix) and H.dtype == real and gs.h(al).dtype == real
    assert {E.dtype for E in plain.E.values()} == {real}
    assert {E.dtype for E in deformed.E.values()} == {phase}
    assert {deformed.script_e(*key).dtype for key in deformed.E} == {phase}
    assert q_power(cfg.q, plain.h(1)).dtype == q_bracket(plain.h(1), cfg.q).dtype == phase
    ct = cartan_data(cfg.M, cfg.N)
    for m in (-1, 0, 1):
        for al in range(cfg.R + 1):
            assert cartan_weyl_generators(basis, replace(ct.simple_root_label(al), m=m)).dtype == real
        for a in range(1, cfg.R + 1):
            assert cartan_weyl_h(basis, a, m).dtype == real


def test_deformed_equals_undeformed_at_q_one():
    cfg = LatticeConfig(M=2, N=2, S=2, n_max=2, q_real=1.0)
    basis = build_basis(cfg)
    g_def = chevalley_generators(cfg, basis, deformed=True)
    g_und = chevalley_generators(cfg, basis, deformed=False)
    for al in g_def.H:
        assert residual_norm(g_def.H[al] - g_und.H[al]) <= 1e-12
    for key in g_def.E:
        assert residual_norm(g_def.E[key] - g_und.E[key]) <= 1e-12


def test_generator_sets_share_one_cartan_generator():
    """H_alpha reads no q: the plain set, the deformed set and a deformed set
    near q = 1 on the cached basis hold one H_alpha object per corruption."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3)
    basis = cached_basis(cfg)
    plain = cached_generators(cfg, False)
    sets = [cached_generators(cfg, True),
            chevalley_generators(replace(basis.cfg, q_real=1 + 1e-6), basis)]
    for alpha in plain.H:
        assert all(gs.H[alpha] is plain.H[alpha] for gs in sets)
    h0_cfg = replace(cfg, corruption=Corruption(drop_h0_delta=True))
    h0delta = chevalley_generators(h0_cfg, cached_basis(h0_cfg))
    assert h0delta.H[0] is not plain.H[0] and residual_norm(h0delta.H[0] - plain.H[0]) > 0


def test_q_alpha_is_read_once_per_set(cfg21, basis21, monkeypatch):
    """A set computes its q_alpha tuple once; each lookup reads it."""
    for corruption in (Corruption(), Corruption(flip_q_alpha=True)):
        cfg = replace(cfg21, corruption=corruption)
        gs = chevalley_generators(cfg, cached_basis(cfg))
        expected = gs.cartan.q_alpha(cfg)
        monkeypatch.setattr(alg.CartanData, "q_alpha", None)
        assert tuple(gs.q_alpha(al) for al in range(cfg21.R + 1)) == expected
        monkeypatch.undo()


def test_local_piece_matches_anyon_product(cfg21, basis21):
    """The mixed pieces, tensor products of their factors, equal the product
    of the lifted operators: at node M a_M^dag(r) A_1(r), at the affine node
    A_N^dag(r) a_1(r+1), for e^- the tilded lower^dag upper; over anyons and
    over plain oscillators, array for array."""
    M, N = cfg21.M, cfg21.N
    nodes = [(M, 0.5, fermion_mode(M, 0.5), boson_mode(1, 0.5)),
             (0, -0.5, boson_mode(N, -0.5), fermion_mode(1, 0.5))]
    for (alpha, r, upper, lower), sign, dressed in itertools.product(
            nodes, ("+", "-"), (True, False)):
        tilde = ""
        if sign == "-":
            upper, lower, tilde = lower, upper, "~"

        def op(mode, dagger):
            if not dressed:
                return full_ladder(cfg21, basis21, mode, dagger)
            family = ("a" if mode.kind == FERMION else "A") + tilde
            return full_anyon(cfg21, basis21, mode, family, dagger=dagger)

        lhs = full_local_e(cfg21, basis21, alpha, sign, 1, r, dressed)
        rhs = op(upper, True) @ op(lower, False)
        assert residual_norm(lhs - rhs) == 0.0
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lhs, name), getattr(rhs, name))


def test_affine_pieces_need_next_site(cfg21):
    assert alg.admissible_sites(cfg21, 0) == (-0.5,)
    assert alg.admissible_sites(cfg21, 1) == (-0.5, 0.5)


def test_string_tail_factorization(cfg21, basis21):
    q_alpha = cartan_data(cfg21.M, cfg21.N).q_alpha(cfg21)
    for alpha in range(cfg21.R + 1):
        for s in ("+", "-"):
            for r in alg.admissible_sites(cfg21, alpha):
                E = full_local_e(cfg21, basis21, alpha, s, 1, r, True)
                ehat = full_local_e(cfg21, basis21, alpha, s, 1, r, False)
                tail = q_power(q_alpha[alpha],
                               full_eq57_exponent(basis21, alpha, 1, r))
                assert residual_norm(E - ehat @ diag_operator(tail)) <= cfg21.tol


def test_local_q_generator_collapses_at_q_one():
    # the q-boson piece at q = 1 against the piece over plain oscillators
    cfg = LatticeConfig(M=2, N=2, S=2, n_max=2, q_real=1.0)
    basis = build_basis(cfg)
    for alpha in range(cfg.R + 1):
        for s in ("+", "-"):
            for r in alg.admissible_sites(cfg, alpha):
                ehat = full_local_e(cfg, basis, alpha, s, 1, r, False)
                plain = _ref_local_e(cfg, basis, alpha, s, 1, r, False)
                assert residual_norm(ehat - plain) <= 1e-13


def test_tail_flip_breaks_factorization(cfg22, basis22):
    # only nodes above M carry q^{-1}; flipping must be visible
    alpha = cfg22.M + 1
    qa = cartan_data(cfg22.M, cfg22.N).q_alpha(cfg22)[alpha]
    worst = 0.0
    for r in cfg22.sites:
        E = full_local_e(cfg22, basis22, alpha, "+", 1, r, True)
        ehat = full_local_e(cfg22, basis22, alpha, "+", 1, r, False)
        tail = q_power(1 / qa, full_eq57_exponent(basis22, alpha, 1, r))
        worst = max(worst, residual_norm(E - ehat @ diag_operator(tail)))
    assert worst > 1e-3


def _filtered_tail_exponent(cfg, basis, alpha, line, r, keep):
    """sum_t eps(t - x) :h_alpha(t): over the sites that ``keep`` accepts."""
    total = np.zeros(basis.dim)
    for ln in cfg.lines:
        for t in cfg.sites:
            eps = site_order_sign(ln, t, line, r)
            if keep(ln, t) and eps:
                total += eps * full_h_local_diag(basis, alpha, ln, t)
    return total


@pytest.mark.parametrize("cfg", [
    LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3),
    LatticeConfig(M=2, N=1, S=2, K=2, n_max=1, nu=0.3, ordering=("sea", "empty")),
    LatticeConfig(M=2, N=1, S=2, K=3, n_max=1, nu=0.3,
                  ordering=("sea", "empty", "sea"), dim_cap=2 ** 18),
], ids=["M2N2S2", "M2N1S2-sea,empty", "M2N1S2-three-lines"])
def test_half_tail_is_full_tail_less_other_half(cfg):
    """The coproduct split cuts along an order ideal (every right site after
    every left site), so a piece's one-half tail is its full tail less the
    other half's Cartan sum, bit for bit."""
    basis = build_basis(cfg)
    cut = (cfg.K + 1) // 2

    def left(ln, t):
        return ln < cut or (ln == cut and t < 0)

    def right(ln, t):
        return not left(ln, t)

    for alpha in range(1, cfg.R + 1):
        H = {side: sum((full_h_local_diag(basis, alpha, ln, t)
                        for ln in cfg.lines for t in cfg.sites if side(ln, t)),
                       np.zeros(basis.dim))
             for side in (left, right)}
        for ln in cfg.lines:
            for r in cfg.sites:
                T = 2 * full_eq57_exponent(basis, alpha, ln, r)
                own = left if left(ln, r) else right
                half = T - H[right] if own is left else T + H[left]
                ref = _filtered_tail_exponent(cfg, basis, alpha, ln, r, own)
                assert half.tobytes() == ref.tobytes()


def test_local_fixed_site_representation(cfg22, basis22):
    """At a single site the hatted generators and the local Cartan pieces
    close into the finite-rank deformed algebra (headroom 1 for the cutoff)."""
    ct = cartan_data(cfg22.M, cfg22.N)
    head = bulk_projector(basis22, 0, 1)
    r = -0.5

    def h_local(alpha):
        return full_h_local_diag(basis22, alpha, 1, r)

    def e_hat(alpha, s):
        return full_local_e(cfg22, basis22, alpha, s, 1, r, False)

    for al in range(1, cfg22.R + 1):
        h_al = diag_operator(h_local(al))
        for be in range(1, cfg22.R + 1):
            h_be = diag_operator(h_local(be))
            assert residual_norm(h_al @ h_be - h_be @ h_al) == 0.0
            for s, sgn in (("+", 1), ("-", -1)):
                e = e_hat(be, s)
                comm = h_al @ e - e @ h_al - sgn * ct.a[al][be] * e
                assert residual_norm(comm) <= 1e-12
            ep = e_hat(be, "+")
            em = e_hat(be, "-")
            lhs = restrict(supercommutator(ep, em, ct.parity[be], ct.parity[be])
                           if al == be else supercommutator(
                               e_hat(al, "+"), em, ct.parity[al], ct.parity[be]))
            if al == be:
                rhs = diag_operator(q_bracket(h_local(al),
                                              ct.q_alpha(cfg22)[al]))
            else:
                rhs = 0 * lhs
            assert residual_norm(head @ (lhs - rhs) @ head) <= 1e-10


def test_cached_generators_only_checks_its_corruption(cfg21):
    """The corruption is read from the config; a third argument that is not
    the config's is an error, not a second way to set it."""
    assert cached_generators(cfg21, True, cfg21.corruption) is cached_generators(cfg21, True)
    with pytest.raises(ValueError, match="flip_q_alpha=True"):
        cached_generators(cfg21, True, Corruption(flip_q_alpha=True))
    control = replace(cfg21, corruption=Corruption(flip_q_alpha=True))
    with pytest.raises(ValueError):
        cached_generators(control, False, Corruption())


def test_plain_set_is_built_once_per_process(cfg21):
    plain = cached_generators(cfg21, False)
    assert cached_generators(replace(cfg21, nu=0.2), False) is plain
    assert cached_generators(cfg21._q_one, False) is plain
    assert cached_generators(cfg21, True) is not plain


# ---------------------------------------------------------------------------
# node table against the per-node chains it replaced
# ---------------------------------------------------------------------------

def _ref_h_local_diag(cfg, basis, alpha, line, r):
    M, N = cfg.M, cfg.N

    def nf(flavor, site):
        return full_normal_number(basis, ModeId(FERMION, flavor, line, site))

    def nb(flavor, site):
        return full_normal_number(basis, ModeId(BOSON, flavor, line, site))

    if 1 <= alpha <= M - 1:
        return nf(alpha, r) - nf(alpha + 1, r)
    if alpha == M:
        return nf(M, r) + nb(1, r)
    if M < alpha <= cfg.R:
        k = alpha - M
        return nb(k, r) - nb(k + 1, r)
    v = nb(N, r) + nf(1, r + 1)
    if (cfg.line_ordering(line) == SEA and r == -0.5
            and not cfg.corruption.drop_h0_delta):
        v = v - 1.0
    return v


def _ref_local_e(cfg, basis, alpha, sign, line, r, deformed):
    M, N = cfg.M, cfg.N

    def f(flavor, site):
        return ModeId(FERMION, flavor, line, site)

    def b(flavor, site):
        return ModeId(BOSON, flavor, line, site)

    if deformed:
        def low(mode, family):
            return full_anyon(cfg, basis, mode, family)

        def dag(mode, family):
            return full_anyon(cfg, basis, mode, family, dagger=True)
    else:
        def low(mode, family):
            return full_ladder(cfg, basis, mode)

        def dag(mode, family):
            return full_ladder(cfg, basis, mode, True)

    if 1 <= alpha <= M - 1:
        if sign == "+":
            return (dag(f(alpha, r), "a") @ low(f(alpha + 1, r), "a")).tocsr()
        return (dag(f(alpha + 1, r), "a~") @ low(f(alpha, r), "a~")).tocsr()
    if alpha == M:
        if sign == "+":
            return (dag(f(M, r), "a") @ low(b(1, r), "A")).tocsr()
        return (dag(b(1, r), "A~") @ low(f(M, r), "a~")).tocsr()
    if M < alpha <= cfg.R:
        k = alpha - M
        if sign == "+":
            return (dag(b(k, r), "A") @ low(b(k + 1, r), "A")).tocsr()
        return (dag(b(k + 1, r), "A~") @ low(b(k, r), "A~")).tocsr()
    if sign == "+":
        return (dag(b(N, r), "A") @ low(f(1, r + 1), "a")).tocsr()
    return (dag(f(1, r + 1), "a~") @ low(b(N, r), "A~")).tocsr()


def _same(x, y):
    return x.shape == y.shape and (x != y).nnz == 0


@pytest.mark.parametrize("cfg", [
    LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
    LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3),
    LatticeConfig(M=2, N=1, S=2, K=2, n_max=1, nu=0.3, ordering=("sea", "empty")),
], ids=["M2N1S2", "M2N2S2", "M2N1S2-sea,empty"])
def test_node_table_reproduces_per_node_chains(cfg):
    configs = [replace(cfg, corruption=cor) for cor in (
        Corruption(), Corruption(drop_h0_delta=True), Corruption(flip_boson_disorder=True))]
    bases = {c: build_basis(c) for c in configs}
    basis = bases[cfg]
    for alpha in range(cfg.R + 1):
        for line in cfg.lines:
            for r in alg.admissible_sites(cfg, alpha):
                for c in configs[:2]:
                    assert np.array_equal(
                        full_h_local_diag(bases[c], alpha, line, r),
                        _ref_h_local_diag(c, bases[c], alpha, line, r))
                for s in ("+", "-"):
                    # the q-boson pieces, and at q = 1 the plain pieces
                    for at in (cfg, cfg._q_one):
                        assert _same(
                            full_local_e(at, basis, alpha, s, line, r, False),
                            _ref_local_e(at, basis, alpha, s, line, r, False))
                    for c in configs:
                        assert _same(
                            full_local_e(c, bases[c], alpha, s, line, r, True),
                            _ref_local_e(c, bases[c], alpha, s, line, r, True))


# ---------------------------------------------------------------------------
# central element
# ---------------------------------------------------------------------------

def test_gamma_boundary_identity(cfg21, basis21):
    from anyonrep.oscillators import number_diag
    gs = chevalley_generators(cfg21, basis21, deformed=True)
    gamma = diag_operator(central_charge_diag(gs))
    vec = (number_diag(basis21, fermion_mode(1, cfg21.sites[0]))
           + number_diag(basis21, boson_mode(cfg21.N, cfg21.sites[-1])))
    assert residual_norm(gamma - diag_operator(vec)) <= 1e-12


@pytest.mark.parametrize("ordering,expected", [("sea", 1), ("empty", 0)])
def test_gamma_bulk_eigenvalue(ordering, expected):
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3, ordering=ordering)
    basis = build_basis(cfg)
    gs = chevalley_generators(cfg, basis, deformed=True)
    P = bulk_projector(basis, 1, 0)
    gamma = diag_operator(central_charge_diag(gs))
    assert residual_norm(gamma @ P - expected * P) <= 1e-12


def test_dropping_affine_constant_shifts_gamma(cfg21):
    cfg = replace(cfg21, corruption=Corruption(drop_h0_delta=True))
    basis = build_basis(cfg)
    gs = chevalley_generators(cfg, basis, deformed=True)
    P = bulk_projector(basis, 1, 0)
    gamma = diag_operator(central_charge_diag(gs))
    assert residual_norm(gamma @ P - P) > 0.5  # no longer 1 on the bulk


# ---------------------------------------------------------------------------
# Cartan-Weyl operators
# ---------------------------------------------------------------------------

def test_cw_matches_simple_generators(cfg21, basis21):
    gs = chevalley_generators(cfg21, basis21, deformed=False)
    for alpha in range(cfg21.R + 1):
        lab = gs.cartan.simple_root_label(alpha)
        cw = cartan_weyl_generators(basis21, lab)
        assert residual_norm(cw - gs.E[(alpha, "+")]) == 0.0
    for a_ in range(1, cfg21.R + 1):
        assert residual_norm(cartan_weyl_h(basis21, a_, 0) - gs.H[a_]) == 0.0


@pytest.mark.parametrize("qspec", [{"nu": 0.3}, {"q_real": 1.3}])
def test_cartan_weyl_operators_read_no_q(qspec):
    """Cartan-Weyl operators are plain-oscillator bilinears: on a basis built
    at any q they equal those on the basis built at q = 1 bit for bit, boson
    roots and h^m (m != 0) too."""
    cfg = LatticeConfig(M=1, N=2, S=2, n_max=2, **qspec)
    basis, basis1 = build_basis(cfg), build_basis(cfg._q_one)
    roots = [RootLabel((DELTA, 1), (DELTA, 2), m=m) for m in (-1, 0, 1)]
    roots.append(RootLabel((EPS, 1), (DELTA, 2), m=1))
    for lab in roots:
        assert _same(cartan_weyl_generators(basis, lab),
                     cartan_weyl_generators(basis1, lab))
    for a_ in range(1, cfg.R + 1):
        for m in (-1, 1):
            assert _same(cartan_weyl_h(basis, a_, m), cartan_weyl_h(basis1, a_, m))


def test_a_config_beside_the_basis_reads_q():
    """A basis holds the geometry and the orderings and reads no q, so a
    function or method takes a config beside it only to read q."""
    both = set()
    for mod in (fock, oscillators, anyons, alg, verify, report, cli):
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for meth, fn in members:
                if not inspect.isfunction(fn) or (meth or "").startswith("__"):
                    continue
                types = {t for k, t in fn.__annotations__.items() if k != "return"}
                types |= {name} if meth else set()
                if {"LatticeConfig", "FockBasis"} <= types:
                    both.add(f"{name}.{meth}" if meth else name)
    assert both == {"ladder", "anyon_factor", "_factor_ops", "node_pieces",
                    "chevalley_generators", "FockBasis.memo"}


def test_only_the_basis_converts_a_config_to_q_one():
    """A basis holds its config at q = 1, so no module but fock converts a
    config to q = 1, and verify keeps no cache of its own."""
    for mod in (anyonrep, oscillators, anyons, alg, verify, report, cli):
        assert "_q_one" not in inspect.getsource(mod), mod.__name__
    assert not re.search(r"\bcache\b|lru_cache", inspect.getsource(verify))


def test_the_q_one_config_is_derived_once_per_config(monkeypatch):
    """A basis lookup converts a config to q = 1 once: a second
    ``cached_basis(cfg)`` or ``script_e`` call validates no config."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3)
    gs = cached_generators(cfg, True)
    assert cached_basis(cfg) is cached_basis(cfg)
    first = gs.script_e(1, "+")
    validated = []
    post_init = LatticeConfig.__post_init__
    monkeypatch.setattr(LatticeConfig, "__post_init__",
                        lambda self: validated.append(self) or post_init(self))
    assert cached_basis(cfg).cfg == cfg._q_one
    assert gs.script_e(1, "+") is first
    gs.script_e(2, "-")
    assert validated == []
    assert replace(cfg, nu=0.2) and len(validated) == 1  # the hook counts validations


def test_cw_empty_sum_warns(cfg21, basis21):
    lab = RootLabel((EPS, 1), (EPS, 2), m=cfg21.S)
    with pytest.warns(UserWarning, match="empty truncated sum"):
        op = cartan_weyl_generators(basis21, lab)
    assert op.nnz == 0


def test_cw_label_validation(cfg21, basis21):
    with pytest.raises(ValueError):
        RootLabel((EPS, 1), (EPS, 1))
    with pytest.raises(ValueError):
        cartan_weyl_generators(basis21, RootLabel((EPS, 3), (EPS, 1)))
