"""Ladders and anyons act on one factor of the state index f * NB + b.

The oscillator and braiding suites check every single-statistics relation on
that factor, and the generator sets, the Cartan-Weyl operators and the
coproduct suite form their single-factor sums there.  These tests hold the
facts that make this exact: the tensor product ``FockBasis.kron`` of two
factor operators has the arrays of scipy's product of their kron lifts, so
every lifted ladder and anyon is the kron lift of its factor operator and a
mixed product is formed exactly; every generator has the arrays of its
full-dimension construction; and a relation recomputed at full dimension
from the lifted operands has the suite's residual, bit for bit.  The
full-dimension evaluation of these suites lives here, as their oracle.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._compressed as compressed

from conftest import (
    full_anyon,
    full_ladder,
    full_normal_number,
    kron_lift,
    lifted_product,
    piece,
    string_exponent,
)
from anyonrep import algebra as alg
from anyonrep import verify
from anyonrep.anyons import FAMILIES, anyon_factor, suite_braiding
from anyonrep.fock import (
    BOSON,
    FERMION,
    NO_CORRUPTION,
    SEA,
    Corruption,
    LatticeConfig,
    ModeId,
    _cached_basis,
    assemble,
    build_basis,
    cached_basis,
    commutator,
    diag_operator,
    identity_op,
    ladder,
    op_adjoint,
    q_bracket,
    q_power,
    scale_columns,
    scale_rows,
    zero_op,
)
from anyonrep.oscillators import _canonical_relations, number_diag, suite_oscillators
from anyonrep.report import CATALOG, SuiteReports

STACKS = [LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
          LatticeConfig(M=1, N=2, S=2, n_max=2, nu=0.3),
          LatticeConfig(M=2, N=1, S=2, K=2, n_max=1, nu=0.3,
                        ordering=("sea", "empty"))]
STACK_IDS = ["M2N1S2", "M1N2S2", "sea,empty"]
CONTROLS = [NO_CORRUPTION, Corruption(flip_q_alpha=True),
            Corruption(drop_h0_delta=True), Corruption(flip_boson_disorder=True)]


def assert_same_arrays(x, y, bits=False):
    """Equal shapes and indptr, indices and data arrays; with ``bits`` the
    data also bit for bit, the signs of zero parts included (sp.kron, the
    lift's reference, multiplies by 1 and loses them)."""
    assert x.shape == y.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(x, name), getattr(y, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert not bits or x.data.tobytes() == y.data.tobytes()


def random_factor_operator(rng, n):
    """A complex operator with rows of several entries, empty rows, real and
    imaginary rows (zero parts of either sign) and a few stored zeros: every
    case the tensor product must carry."""
    dense = (rng.random((n, n)) < 0.3) * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    dense[::3] = 0
    dense[1::6] = dense[1::6].real  # real rows, as a ladder's
    dense[4::6] = np.conj(dense[4::6].real + 0j)  # real rows with -0.0 imaginary parts
    dense[2::6] = 1j * dense[2::6].imag  # imaginary rows: products with zero real parts
    x = sp.csr_matrix(dense)
    x.data[::7] = 0
    assert np.diff(x.indptr).max() > 1 and np.diff(x.indptr).min() == 0
    return x


# ---------------------------------------------------------------------------
# the factors are exact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", STACKS, ids=STACK_IDS)
def test_full_space_operators_are_lifted_factors(cfg):
    """Every ladder (both daggers, at q and at q = 1) and every anyon of the
    four families (both daggers) lifts to the kron lift of its factor
    operator: the same indptr, indices and data arrays."""
    basis = build_basis(cfg)
    for mode in basis.fermion_modes + basis.boson_modes:
        for at in (cfg, cfg._q_one):
            x = ladder(at, basis, mode)
            assert x.shape == (basis.size(mode.kind),) * 2
            assert_same_arrays(ladder(at, basis, mode, True), op_adjoint(x))
            for y in (x, op_adjoint(x)):
                assert_same_arrays(basis.lift(mode.kind, y), kron_lift(basis, mode.kind, y))
    for family, (kind, _) in FAMILIES.items():
        modes = basis.fermion_modes if kind == FERMION else basis.boson_modes
        for mode in modes:
            for dagger in (False, True):
                x = anyon_factor(cfg, basis, mode, family, dagger)
                assert_same_arrays(basis.lift(kind, x), kron_lift(basis, kind, x))


@pytest.mark.parametrize("seed", range(3))
def test_lift_of_a_factor_operator_is_the_kron_lift(seed):
    """x (x) 1 and 1 (x) y of random operators with rows of several entries,
    empty rows and real rows, and the identity (both None), have the arrays
    of the product of the kron lifts, bit for bit: its rounding, its signed
    zeros and its dropped zeros, the stored zeros of x and y among them.  A
    factor operator lifts as its tensor product with the identity; kron
    forms no tensor product of two factor operators (:func:`alg._entries`
    reads those)."""
    basis = build_basis(STACKS[0])
    rng = np.random.default_rng(seed)
    x = random_factor_operator(rng, basis.NF)
    y = random_factor_operator(rng, basis.NB)
    for fx, by in ((x, None), (None, y), (None, None)):
        assert_same_arrays(basis.kron(fx, by), lifted_product(basis, fx, by), bits=True)
    assert_same_arrays(basis.lift(FERMION, x), basis.kron(x, None), bits=True)
    assert_same_arrays(basis.lift(BOSON, y), basis.kron(None, y), bits=True)
    assert basis.lift(None, x) is x
    with pytest.raises(ValueError, match="one factor operator"):
        basis.kron(x, y)


def _assembled_piece(basis, ops, r, s):
    """The piece ops[r] ops[s], assembled from its entries on the smallest
    space that holds it."""
    return assemble([alg._entries(basis, lambda m, _: ops[m], 1, r, s)],
                    basis.size(r.kind if r.kind == s.kind else None))


@pytest.mark.parametrize("seed", range(3))
def test_mixed_product_is_tiled_like_the_product_of_the_lifts(seed):
    """The entries of the product of a fermion-factor and a boson-factor
    operator, with rows of several entries, in either order, assembled, are
    their product on the whole basis, bit for bit like scipy's product of
    the lifts: its complex rounding (numpy's complex * differs from it in
    about a third of random products, and is not commutative), its signed
    zeros and its dropped zeros.  Operators of one factor multiply there,
    and assemble to the canonical form of their product."""
    basis = build_basis(STACKS[0])
    rng = np.random.default_rng(seed)
    x = random_factor_operator(rng, basis.NF)
    y = random_factor_operator(rng, basis.NB)
    (f,), (b, b2) = basis.fermion_modes[:1], basis.boson_modes[:2]
    ops = {f: x, b: y}
    ref = lifted_product(basis, x, y)
    assert_same_arrays(_assembled_piece(basis, ops, f, b), ref, bits=True)
    assert_same_arrays(_assembled_piece(basis, ops, b, f), ref, bits=True)
    swapped = kron_lift(basis, BOSON, y) @ kron_lift(basis, FERMION, x)
    swapped.sort_indices()
    assert_same_arrays(swapped, ref, bits=True)
    empty = sp.csr_matrix(x.shape, dtype=complex)
    assert_same_arrays(_assembled_piece(basis, {f: empty, b: y}, f, b),
                       lifted_product(basis, empty, y), bits=True)
    ops = {b: random_factor_operator(rng, basis.NB), b2: y}
    product = ops[b] @ y
    assert not product.has_sorted_indices
    product.sort_indices()
    assert_same_arrays(_assembled_piece(basis, ops, b, b2), product, bits=True)


def test_mixed_entries_are_indexed_past_two_to_the_31():
    """A mixed piece's index f * NB + b is computed in the basis's index type:
    with NB = 2^20 and int64 indices, a fermion column of 4095 gives the
    exact column 4095 * 2^20 + b, past 2^31, not one wrapped in int32."""
    stub = SimpleNamespace(NB=2 ** 20, _idx=np.int64)
    f, b = ModeId(FERMION, 1, 1, 0.5), ModeId(BOSON, 1, 1, 0.5)
    x = sp.csr_matrix(([1.0 + 0j], ([4094], [4095])), shape=(4096, 4096))
    y = sp.csr_matrix(([2.0 + 0j], ([3], [5])), shape=(8, 8))
    rows, columns, values = alg._entries(stub, lambda m, _: {f: x, b: y}[m], 1, f, b)
    assert rows.tolist() == [4094 * 2 ** 20 + 3] and columns.tolist() == [4095 * 2 ** 20 + 5]
    assert columns[0] > 2 ** 31 and values.tolist() == [2.0 + 0j]


def test_assemble_refuses_pieces_that_share_a_position():
    """Pieces are put in place, not added: two pieces that store one
    position are refused, and disjoint ones give their union."""
    one = (np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0j]))
    other = (np.array([1]), np.array([1]), np.array([3.0 + 0j]))
    total = assemble([one, other], 2)
    assert total.toarray().tolist() == [[0, 1.0], [2.0j, 3.0]]
    with pytest.raises(ValueError, match="1 entries of the pieces share a position"):
        assemble([one, (np.array([1]), np.array([0]), np.array([3.0 + 0j]))], 2)


def test_factor_operators_are_built_once_per_config():
    """A ladder or an anyon is built once per config and key and kept, at
    every config asked for, until ``FockBasis.release`` drops all but the
    basis's config (q = 1); a config of another corruption has its own
    basis."""
    cfg = STACKS[0]
    basis = build_basis(cfg)
    mode = basis.boson_modes[0]
    a = anyon_factor(cfg, basis, mode, "A")
    assert anyon_factor(cfg, basis, mode, "A") is a
    flip = replace(cfg, corruption=Corruption(flip_boson_disorder=True))
    flipped = anyon_factor(flip, build_basis(flip), mode, "A")
    assert flipped is not a and abs(flipped - a).max() > 0.1
    b = ladder(cfg, basis, mode)
    assert ladder(cfg, basis, mode) is b
    plain = ladder(cfg._q_one, basis, mode)
    assert ladder(cfg._q_one, basis, mode) is plain and plain is not b
    others = [replace(cfg, nu=0.2), replace(cfg, nu=None, q_real=1.3)]
    held = [ladder(at, basis, mode) for at in others]
    assert ladder(cfg, basis, mode) is b and anyon_factor(cfg, basis, mode, "A") is a
    assert all(ladder(at, basis, mode) is x for at, x in zip(others, held))
    assert set(basis._memo) == {basis.cfg, cfg, *others}
    basis.release()
    assert set(basis._memo) == {basis.cfg}
    assert ladder(cfg._q_one, basis, mode) is plain
    assert ladder(cfg, basis, mode) is not b  # rebuilt, equal
    assert abs(ladder(cfg, basis, mode) - b).max() == 0


def test_the_first_q_free_build_keeps_the_config_asked_for():
    """On a fresh basis a fermionic anyon opens its config, and its ladder
    then opens the basis's config for the first time: the anyon is kept."""
    cfg = STACKS[0]
    basis = build_basis(cfg)
    a = anyon_factor(cfg, basis, basis.fermion_modes[0], "a")
    assert anyon_factor(cfg, basis, basis.fermion_modes[0], "a") is a


def test_what_reads_no_q_is_built_once_per_basis(memo_builds):
    """Runs at nu 0.3, nu 0.2 and q_real 1.3 on one basis build each fermion
    ladder, each H_alpha and each generator's pattern once, under the
    basis's config; a run under a control does so on its own basis.  No
    Cartan-Weyl operator is kept there: the suite call that reads one builds it."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3)
    for at in (cfg, replace(cfg, nu=0.2), replace(cfg, nu=None, q_real=1.3)):
        verify.run_suites(at)
    h0delta = replace(cfg, corruption=Corruption(drop_h0_delta=True))
    verify.run_suites(h0delta, ["quantum"])
    basis, h0_basis = cached_basis(cfg), cached_basis(h0delta)

    def reads_no_q(key):
        if isinstance(key[0], ModeId):  # a ladder (mode, dagger) or an anyon
            return len(key) == 2 and key[0].kind == FERMION
        return key[0] in ("H", "pattern")

    q_free = [(at, key) for at, key in memo_builds if reads_no_q(key)]
    assert {at for at, _ in q_free} == {basis.cfg, h0_basis.cfg}
    assert len(q_free) == len(set(q_free))
    keys = [key for at, key in q_free if at == basis.cfg]
    assert {(at, k) for at, k in q_free if k[0] == "H"} == {
        (b.cfg, ("H", alpha)) for alpha in range(cfg.R + 1) for b in (basis, h0_basis)}
    assert {k for k in keys if isinstance(k[0], ModeId)} == {
        (m, d) for m in basis.fermion_modes for d in (False, True)}
    assert {k for k in keys if k[0] == "pattern"} == {
        ("pattern", alpha, s) for alpha in range(cfg.R + 1) for s in "+-"}
    assert not [key for _, key in memo_builds if key[0] in ("e", "h", "script")]


PATTERNS = STACKS + [LatticeConfig(M=2, N=1, S=2, n_max=4, q_real=10.0),
                     replace(STACKS[0], corruption=Corruption(flip_boson_disorder=True)),
                     replace(STACKS[0], corruption=Corruption(flip_q_alpha=True))]


@pytest.mark.parametrize("plain_first", [False, True])
@pytest.mark.parametrize("cfg", PATTERNS, ids=STACK_IDS + ["q10", "disorder", "qalpha"])
def test_operators_share_their_operands_patterns(cfg, plain_first):
    """Every set on a basis holds one pattern per generator, whichever set is
    built first; a rescaled generator holds its generator's, an anyon its
    ladder's; each holds its own values."""
    _cached_basis.cache_clear()
    basis = cached_basis(cfg)
    if plain_first:
        alg.cached_generators(cfg, False)
    deformed, plain = alg.cached_generators(cfg, True), alg.cached_generators(cfg, False)
    for key, E in deformed.E.items():
        for other in (plain.E[key], deformed.script_e(*key)):
            assert np.shares_memory(E.indices, other.indices), key
            assert np.shares_memory(E.indptr, other.indptr), key
            assert not np.shares_memory(E.data, other.data), key
    for mode in basis.fermion_modes + basis.boson_modes:
        for family, (kind, _) in FAMILIES.items():
            for dagger in (False, True) if kind == mode.kind else ():
                x, a = ladder(cfg, basis, mode, dagger), anyon_factor(cfg, basis, mode, family, dagger)
                assert np.shares_memory(x.indices, a.indices) and np.shares_memory(x.indptr, a.indptr)
                assert not np.shares_memory(x.data, a.data)


def test_a_generator_off_its_pattern_is_refused():
    """A later set whose generator leaves the kept pattern is refused, as a
    dressed piece that leaves its plain one is."""
    basis = build_basis(STACKS[0])
    first = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=complex))
    assert alg._on_pattern(basis, ("pattern", 9, "+"), first) is first
    same = alg._on_pattern(basis, ("pattern", 9, "+"), 2 * first)
    assert np.shares_memory(same.indices, first.indices) and np.shares_memory(same.indptr, first.indptr)
    assert same.data.tolist() == [2]
    with pytest.raises(ValueError, match="leaves the pattern"):
        alg._on_pattern(basis, ("pattern", 9, "+"), first.T.tocsr())


def test_one_suite_builds_only_the_sets_it_reads(memo_builds):
    """The deformed suites alone build no plain set to take a pattern from."""
    cfg = STACKS[0]
    verify.run_suites(cfg, ["quantum", "serre"])
    assert [key for _, key in memo_builds if key[0] == "set"] == [("set", True)]


def _arrays(value) -> list:
    """Every numpy array an operator, a generator set or a memo entry holds."""
    if sp.issparse(value):
        return [value.data, value.indices, value.indptr]
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, alg.GeneratorSet):
        return _arrays([*value.H.values(), *value.E.values()])
    if isinstance(value, (tuple, list)):
        return [a for x in value for a in _arrays(x)]
    return []


def test_a_verify_run_changes_no_array_of_an_operator(monkeypatch):
    """Operators share their arrays, so none may change in place: every
    array of every memo entry and rescaled generator built during a full run
    with a sampled q holds the bytes it held when built, and no operator that
    one suite call alone reads is left in the memo."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3)
    _cached_basis.cache_clear()
    held = {}

    def snapshot(value):
        held.setdefault(id(value), (value, [a.tobytes() for a in _arrays(value)]))
        return value

    memo, script_e = alg.FockBasis.memo, alg.GeneratorSet.script_e
    monkeypatch.setattr(alg.FockBasis, "memo",
                        lambda self, at, key, build: memo(self, at, key, lambda: snapshot(build())))
    monkeypatch.setattr(alg.GeneratorSet, "script_e",
                        lambda self, *key: snapshot(script_e(self, *key)))
    verify.run_suites(cfg, q_samples=1)
    kinds = {type(value) for value, _ in held.values()}
    assert alg.GeneratorSet in kinds and sp.csr_matrix in kinds and tuple in kinds
    for value, before in held.values():
        assert [a.tobytes() for a in _arrays(value)] == before, type(value)
    basis = cached_basis(cfg)
    assert set(basis._memo) == {basis.cfg}
    assert not [key for key in basis._memo[basis.cfg] if key[0] in ("script", "e", "h")]


# ---------------------------------------------------------------------------
# the generators equal their full-dimension construction
# ---------------------------------------------------------------------------

def _ref_local_e(cfg, basis, alpha, sign, line, r, dressed):
    """A local piece as the product of the two lifted operators."""
    upper, lower = alg._node_modes(cfg, alpha, line, r)
    tilde = ""
    if sign == "-":
        upper, lower, tilde = lower, upper, "~"

    def op(mode, dagger):
        if dressed:
            family = ("a" if mode.kind == FERMION else "A") + tilde
            return full_anyon(cfg, basis, mode, family, dagger)
        return full_ladder(cfg, basis, mode, dagger)

    return (op(upper, True) @ op(lower, False)).tocsr()


def _ref_h_local_diag(cfg, basis, alpha, line, r):
    """:n_upper: -+ :n_lower: of node alpha on the whole basis."""
    upper, lower = alg._node_modes(cfg, alpha, line, r)
    n_up = full_normal_number(basis, upper)
    n_low = full_normal_number(basis, lower)
    if alpha not in (0, cfg.M):
        return n_up - n_low
    if (alpha == 0 and cfg.line_ordering(line) == SEA and r == -0.5
            and not cfg.corruption.drop_h0_delta):
        return n_up + n_low - 1.0
    return n_up + n_low


def _ref_generators(cfg, basis, deformed):
    """H and E summed at full dimension, piece by piece."""
    if not deformed:
        cfg = cfg._q_one
    H, E = {}, {}
    for alpha in range(cfg.R + 1):
        sites = [(ln, r) for ln in cfg.lines for r in alg.admissible_sites(cfg, alpha)]
        hd = np.zeros(basis.dim)
        for ln, r in sites:
            hd += _ref_h_local_diag(cfg, basis, alpha, ln, r)
        H[alpha] = diag_operator(hd)
        for sign in ("+", "-"):
            total = zero_op(basis)
            for ln, r in sites:
                total = total + _ref_local_e(cfg, basis, alpha, sign, ln, r, deformed)
            E[(alpha, sign)] = total.tocsr()
    return H, E


def _ref_cartan_weyl(cfg, basis, label):
    cfg = cfg._q_one
    total = zero_op(basis)
    for line in cfg.lines:
        for r in cfg.sites:
            if r + label.m in cfg.sites:
                up = full_ladder(cfg, basis, alg._mode_for(*label.pos, line, r), True)
                dn = full_ladder(cfg, basis, alg._mode_for(*label.neg, line, r + label.m))
                total = total + up @ dn
    return total.tocsr()


def _ref_cartan_weyl_h(cfg, basis, a, m):
    cfg = cfg._q_one
    terms = [(w, ModeId(kind, flavor, line, r), ModeId(kind, flavor, line, r + m))
             for (kind, flavor), w in alg.h_coefficients(cfg.M, cfg.N, a).items()
             for line in cfg.lines for r in cfg.sites if r + m in cfg.sites]
    return sum((w * (full_ladder(cfg, basis, mr, True) @ full_ladder(cfg, basis, ms))
                for w, mr, ms in terms), zero_op(basis)).tocsr()


def _sequential_sum(basis, terms, op):
    """sum_i w_i op(r_i, True) op(s_i, False) as the generators were summed
    before they were assembled from entries: the pieces of one statistics
    added one at a time with scipy's + from the zero operator of their
    factor and the sum lifted, the mixed pieces formed as matrices on the
    whole basis and added the same way, and the groups added."""
    total = None
    for space in (FERMION, BOSON, None):
        group = [(w, r, s) for w, r, s in terms
                 if (r.kind if r.kind == s.kind else None) == space]
        if group:
            part = sum((piece(basis, op, *t) for t in group), zero_op(basis, space))
            part = basis.lift(space, part)
            total = part if total is None else total + part
    return zero_op(basis) if total is None else total.tocsr()


ASSEMBLY = {
    "M2N2S2": LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3),
    "M2N1S4": LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3),
    "sea,empty": STACKS[2],
    "real-q": LatticeConfig(M=2, N=2, S=2, n_max=2, q_real=1.3),
    **{name: LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3, corruption=corruption)
       for name, corruption in zip(["qalpha", "h0delta", "disorder"], CONTROLS[1:])},
}


@pytest.mark.parametrize("cfg", ASSEMBLY.values(), ids=ASSEMBLY.keys())
def test_assembled_generators_equal_the_sequential_sum(cfg, monkeypatch):
    """Every E of the plain and the deformed set, every Cartan-Weyl root
    generator at m = -1, 0, 1 and every h_a^{+-1}, assembled once from the
    entries of their pieces, has the data, indices and indptr of the sum of
    the pieces as matrices, added one at a time, byte for byte, signed zeros
    included."""
    basis, reference = build_basis(cfg), build_basis(cfg)
    for deformed in (False, True):
        at = cfg if deformed else basis.cfg
        gs = alg.chevalley_generators(cfg, basis, deformed)
        for alpha in range(cfg.R + 1):
            for sign in ("+", "-"):
                terms = [(1, *alg._node_modes(at, alpha, ln, r, sign))
                         for ln in at.lines for r in alg.admissible_sites(at, alpha)]
                ref = _sequential_sum(reference, terms,
                                      alg._factor_ops(at, reference, sign, deformed))
                assert_same_arrays(gs.E[(alpha, sign)], ref, bits=True)
    cartan = alg.cartan_data(cfg.M, cfg.N)
    labels = [replace(cartan.simple_root_label(al), m=m)
              for al in range(cfg.R + 1) for m in (-1, 0, 1)]
    assembled = ([alg.cartan_weyl_generators(basis, lab) for lab in labels]
                 + [alg.cartan_weyl_h(basis, a, m) for a in range(1, cfg.R + 1) for m in (-1, 1)])
    monkeypatch.setattr(alg, "_bilinear_sum", _sequential_sum)
    summed = ([alg.cartan_weyl_generators(reference, lab) for lab in labels]
              + [alg.cartan_weyl_h(reference, a, m) for a in range(1, cfg.R + 1) for m in (-1, 1)])
    for x, y in zip(assembled, summed):
        assert x.nnz
        assert_same_arrays(x, y, bits=True)


@pytest.mark.parametrize("cfg", STACKS, ids=STACK_IDS)
@pytest.mark.parametrize("corruption", CONTROLS,
                         ids=["none", "qalpha", "h0delta", "disorder"])
def test_generators_equal_their_full_dimension_construction(cfg, corruption):
    """Every H and E of the plain and the deformed set, summed on the node's
    factor and lifted once or formed as tensor products at the mixed nodes,
    has the arrays of the sum of the lifted products, under no corruption
    and each control."""
    cfg = replace(cfg, corruption=corruption)
    basis = build_basis(cfg)
    for deformed in (False, True):
        gs = alg.chevalley_generators(cfg, basis, deformed)
        H, E = _ref_generators(cfg, basis, deformed)
        for al in H:
            assert_same_arrays(gs.H[al], H[al], bits=True)
        for key in E:
            assert_same_arrays(gs.E[key], E[key], bits=True)
            assert E[key].nnz


@pytest.mark.parametrize("cfg", STACKS, ids=STACK_IDS)
def test_cartan_weyl_operators_equal_their_full_dimension_construction(cfg, monkeypatch):
    """Every root label the Cartan-Weyl suite builds, of one statistics or
    mixed, and h_1^m at m = +-1 have the arrays of the sum of the lifted
    products.  A fresh basis, so the suite's checks are not memo hits."""
    _cached_basis.cache_clear()
    labels = []
    build = verify.cartan_weyl_generators

    def recorded(basis, label):
        labels.append(label)
        return build(basis, label)

    monkeypatch.setattr(verify, "cartan_weyl_generators", recorded)
    verify.suite_cartan_weyl(cfg)
    basis = cached_basis(cfg)
    assert labels and {lab.parity for lab in labels} == {0, 1}
    for label in labels:
        assert_same_arrays(build(basis, label), _ref_cartan_weyl(cfg, basis, label),
                           bits=True)
    for m in (1, -1):
        h = alg.cartan_weyl_h(basis, 1, m)
        assert h.nnz
        assert_same_arrays(h, _ref_cartan_weyl_h(cfg, basis, 1, m), bits=True)


# ---------------------------------------------------------------------------
# the factor checks equal the full-dimension oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bulk", [(0, 1), (1, 0), (1, 1)])
def test_factor_bulk_restricts_like_the_full_bulk(bulk):
    """A product of factor operators restricted to a factor's bulk has the
    residual and the label of the lifted product on the full bulk, for
    either statistics, under a margin and under a headroom."""
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=2, nu=0.3)
    basis = cached_basis(cfg)
    for kind, family in ((FERMION, "a"), (BOSON, "A")):
        modes = [m for m in basis.fermion_modes + basis.boson_modes
                 if m.kind == kind and abs(m.site) < 1]  # off the margin
        x = anyon_factor(cfg, basis, modes[0], family, True)
        y = anyon_factor(cfg, basis, modes[-1], family, False)
        lx, ly = kron_lift(basis, kind, x), kron_lift(basis, kind, y)
        on_factor = SuiteReports("braiding", cfg.tol, basis)
        on_factor.check("eq42a", [(1, x, y), (-cfg.q, y, x)], x @ y,
                        bulk=bulk, factor=kind)
        full = SuiteReports("braiding", cfg.tol, basis)
        full.check("eq42a", [(1, lx, ly), (-cfg.q, ly, lx)], lx @ ly, bulk=bulk)
        (a,), (b,) = on_factor.reports, full.reports
        assert a.residual > 0.1
        assert (a.residual.hex(), a.projector) == (b.residual.hex(), b.projector)


def _oscillator_oracle(cfg):
    """A sample of every single-statistics oscillator family, written at full
    dimension from the lifted ladders: (id, lhs, rhs, bulk)."""
    basis, q = cached_basis(cfg), cfg.q
    one, plain = identity_op(basis), cfg._q_one
    f1, f2 = basis.fermion_modes[:2]
    m1, m2 = basis.boson_modes[:2]
    c1, c2, cd1 = (full_ladder(cfg, basis, f1), full_ladder(cfg, basis, f2),
                   full_ladder(cfg, basis, f1, True))
    d1, d2, dd1 = (full_ladder(plain, basis, m1), full_ladder(plain, basis, m2),
                   full_ladder(plain, basis, m1, True))
    b, bd = full_ladder(cfg, basis, m1), full_ladder(cfg, basis, m1, True)
    b2, bd2 = full_ladder(cfg, basis, m2), full_ladder(cfg, basis, m2, True)
    n = number_diag(basis, m1)
    return [
        (f"eq20[{f1},{f1}+]", commutator(c1, cd1, -1), one, None),
        (f"eq20[{f1},{f2}]", commutator(c1, c2, -1), None, None),
        (f"eq21[{m1},{m1}+]", commutator(d1, dd1), one, (0, 1)),
        (f"eq21[{m1},{m2}]", commutator(d1, d2), None, None),
        (f"eq30[{f1},{m1}]", commutator(c1, d1), None, None),
        (f"eq30[{f2},{m2}+]", commutator(c2, full_ladder(plain, basis, m2, True)), None, None),
        (f"eq49a[{m1}]", commutator(b, bd, q), diag_operator(q_power(q, -n)), (0, 1)),
        (f"eq49b[{m1}]", commutator(b, bd, q ** -1), diag_operator(q_power(q, n)), (0, 1)),
        (f"eq49d[{m1}]", scale_rows(b, n) - scale_columns(b, n), -1 * b, None),
        (f"eq49e[{m1}]", scale_rows(bd, n) - scale_columns(bd, n), bd, None),
        (f"eq50a[{m1}]", [(1, bd, b)], diag_operator(q_bracket(n, q)), None),
        (f"eq50b[{m1}]", [(1, b, bd)], diag_operator(q_bracket(n + 1, q)), (0, 1)),
        (f"eq49c[{m1},{m2}]", commutator(b, b2), None, None),
        (f"eq49a0[{m1},{m2}]", commutator(b, bd2), None, None),
        (f"eq49d0[{m1},{m2}]", scale_rows(b2, n) - scale_columns(b2, n), None, None),
    ]


def _braiding_oracle(cfg):
    """A sample of every braiding family, written at full dimension from the
    lifted anyons of flavor 1 at one ordered pair x after y and at x."""
    basis, q = cached_basis(cfg), cfg.q
    one = identity_op(basis)
    x, y = (1, 0.5), (1, -0.5)

    def A(kind, pt, family, dagger=False):
        return full_anyon(cfg, basis, ModeId(kind, 1, *pt), family, dagger)

    ar, asr, adr, ads = (A(FERMION, x, "a"), A(FERMION, y, "a"),
                         A(FERMION, x, "a", True), A(FERMION, y, "a", True))
    tr, ts, tdr, tds = (A(FERMION, x, "a~"), A(FERMION, y, "a~"),
                        A(FERMION, x, "a~", True), A(FERMION, y, "a~", True))
    Ar, As, Adr, Ads = (A(BOSON, x, "A"), A(BOSON, y, "A"),
                        A(BOSON, x, "A", True), A(BOSON, y, "A", True))
    Tr, Ts, Tdr, Tds = (A(BOSON, x, "A~"), A(BOSON, y, "A~"),
                        A(BOSON, x, "A~", True), A(BOSON, y, "A~", True))
    w = string_exponent(basis, ModeId(FERMION, 1, *x))
    n = diag_operator(number_diag(basis, ModeId(FERMION, 1, *x)))
    nb = number_diag(basis, ModeId(BOSON, 1, *x))
    pair, at = f"i=1,{x},{y}", f"i=1,{x}"
    bpair, bat = f"k=1,{x},{y}", f"k=1,{x}"
    # X Y - c Y X as the products the suite states (c = 0: X Y alone)
    return [
        (f"eq42a[{pair}]", commutator(ar, asr, -q ** -1), None, None),
        (f"eq42b[{pair}]", commutator(adr, ads, -q ** -1), None, None),
        (f"eq42c[{pair}]", commutator(adr, asr, -q), None, None),
        (f"eq42d[{pair}]", commutator(ar, ads, -q), None, None),
        (f"eq42ta[{pair}]", commutator(tr, ts, -q), None, None),
        (f"eq42tb[{pair}]", commutator(tdr, tds, -q), None, None),
        (f"eq42tc[{pair}]", commutator(tdr, ts, -q ** -1), None, None),
        (f"eq42td[{pair}]", commutator(tr, tds, -q ** -1), None, None),
        (f"eq44[{pair}]", commutator(tr, asr, -1), None, None),
        (f"eq44x[{pair}]", commutator(ts, ar, -1), None, None),
        (f"eq44d[{pair}]", commutator(tdr, ads, -1), None, None),
        (f"eq45[{pair}]", commutator(tdr, asr, -1), None, None),
        (f"eq45x[{pair}]", commutator(tds, ar, -1), None, None),
        (f"eq45b[{pair}]", commutator(tr, ads, -1), None, None),
        (f"eq43[{at}]", commutator(ar, adr, -1), one, None),
        (f"eq43n[{at}]", [(1, ar, ar)], None, None),
        (f"eq43nd[{at}]", [(1, adr, adr)], None, None),
        (f"eq43t[{at}]", commutator(tr, tdr, -1), one, None),
        (f"eq44s[{at}]", commutator(tr, ar, -1), None, None),
        (f"eq46a[{at}]", commutator(tr, adr, -1), diag_operator(q_power(q, w)), None),
        (f"eq46b[{at}]", commutator(tdr, ar, -1), diag_operator(q_power(q, -w)), None),
        (f"eq47[{at}]", [(1, adr, ar)], n, None),
        (f"eq47t[{at}]", [(1, tdr, tr)], n, None),
        (f"eq53a[{bpair}]", commutator(Ar, As, q), None, None),
        (f"eq53b[{bpair}]", commutator(Adr, Ads, q), None, None),
        (f"eq53c[{bpair}]", commutator(Adr, As, q ** -1), None, None),
        (f"eq53d[{bpair}]", commutator(Ar, Ads, q ** -1), None, None),
        (f"eq53ta[{bpair}]", commutator(Tr, Ts, q ** -1), None, None),
        (f"eq53tb[{bpair}]", commutator(Tdr, Tds, q ** -1), None, None),
        (f"eq54a[{bat}]", commutator(Ar, Adr, q), diag_operator(q_power(q, -nb)), (0, 1)),
        (f"eq54b[{bat}]", commutator(Ar, Adr, q ** -1), diag_operator(q_power(q, nb)), (0, 1)),
        (f"eq54ta[{bat}]", commutator(Tr, Tdr, q ** -1), diag_operator(q_power(q, nb)), (0, 1)),
        (f"eq50A[{bat}]", [(1, Adr, Ar)], diag_operator(q_bracket(nb, q)), None),
    ]


@pytest.mark.parametrize("suite, corruption", [
    ("oscillators", NO_CORRUPTION),
    ("braiding", NO_CORRUPTION),
    ("braiding", Corruption(flip_boson_disorder=True)),
], ids=["oscillators", "braiding", "braiding-control"])
def test_factor_checks_equal_the_full_dimension_oracle(cfg22, suite, corruption):
    """Each sampled relation, checked at full dimension from the lifted
    operands, has the suite's residual (compared by float.hex) and label.
    The sample covers every family of the suite, the mixed eq30 included,
    and under the disorder control the failing eq53 reports fail alike."""
    cfg = replace(cfg22, corruption=corruption)
    if suite == "oscillators":
        reports, oracle = suite_oscillators(cfg), _oscillator_oracle(cfg)
    else:
        reports, oracle = suite_braiding(cfg), _braiding_oracle(cfg)
    by_id = {r.relation_id: r for r in reports}
    full = SuiteReports(suite, cfg.tol, cached_basis(cfg))
    for rid, lhs, rhs, bulk in oracle:
        full.check(rid, lhs, rhs, bulk=bulk)
    for ref in full.reports:
        got = by_id[ref.relation_id]
        assert (got.residual.hex(), got.projector) == (ref.residual.hex(), ref.projector), \
            ref.relation_id
    sampled = {rid.split("[", 1)[0] for rid, *_ in oracle}
    assert sampled == {fam for s, fam, _, _ in CATALOG if s == suite}
    assert any(r.residual > 0 for r in full.reports)
    failing = {r.relation_id.split("[", 1)[0] for r in full.reports if not r.passed}
    assert failing == ({"eq53a", "eq53b", "eq53c", "eq53d", "eq53ta", "eq53tb"}
                       if corruption else set())


@pytest.mark.parametrize("cfg", [LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
                                 LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3),
                                 LatticeConfig(M=2, N=1, S=2, K=2, n_max=2, nu=0.3,
                                               ordering=("sea", "empty"))],
                         ids=["M2N1S2", "M2N2S2", "sea,empty"])
def test_eq30_on_its_factors_equals_the_whole_basis_check(cfg):
    """eq30 decided on the entries of its two factor ladders has the residual
    (by float.hex), label and order of the whole-basis check of the
    commutator of the lifted ladders, the form it replaces."""
    basis = cached_basis(cfg)
    full = SuiteReports("oscillators", cfg.tol, basis)
    for mf in basis.fermion_modes[:4]:
        c = basis.lift(FERMION, ladder(basis.cfg, basis, mf))
        for mb in basis.boson_modes[:4]:
            for tag, dagger in (("", False), ("+", True)):
                d = basis.lift(BOSON, ladder(basis.cfg, basis, mb, dagger))
                full.check(f"eq30[{mf},{mb}{tag}]", commutator(c, d),
                           params={"modes": [str(mf), str(mb)]})
    got = [r for r in suite_oscillators(cfg) if r.relation_id.startswith("eq30[")]
    assert len(got) == len(full.reports) == 2 * min(4, basis.F) * min(4, basis.B)
    strip = [{k: v for k, v in vars(r).items() if k != "wall_time"}
             for r in got + full.reports]
    assert strip[:len(got)] == strip[len(got):]
    assert [r.residual.hex() for r in got] == [r.residual.hex() for r in full.reports]


@pytest.mark.parametrize("cfg", STACKS, ids=STACK_IDS)
def test_the_canonical_block_forms_no_whole_basis_product(cfg, monkeypatch):
    """eq20, eq21 and eq30 form every product on a factor: none of the
    whole basis's shape."""
    shapes, matmat = [], compressed.csr_matmat

    def recording(n_row, n_col, *arrays):
        shapes.append((n_row, n_col))
        return matmat(n_row, n_col, *arrays)

    monkeypatch.setattr(compressed, "csr_matmat", recording)
    basis = cached_basis(cfg)
    _canonical_relations(basis)
    assert shapes and (basis.dim, basis.dim) not in shapes
