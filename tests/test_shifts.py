"""Checks decided without their products: the particle-number and Cartan
shifts of the generator patterns (``algebra.label_shift``), the empty
restrictions and exact-zero oracle checks they decide, and the float
coefficients at a real q."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _compressed as compressed

from anyonrep import algebra, fock, verify
from anyonrep.fock import (
    BOSON,
    FERMION,
    NUMBERS,
    Corruption,
    FockBasis,
    LatticeConfig,
    _cached_basis,
    cached_basis,
    entry_rows,
    number_labels,
)
from anyonrep.report import SuiteReports

BASE = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3)
FLAG_SETS = {
    "M2N1S2": (BASE, 0),
    "M2N2S2": (dataclasses.replace(BASE, N=2), 0),
    "M2N1S4-nmax1-q1": (dataclasses.replace(BASE, S=4, n_max=1), 1),
    "sea,empty": (dataclasses.replace(BASE, K=2, ordering=("sea", "empty")), 0),
    "q_real-1.3": (dataclasses.replace(BASE, nu=None, q_real=1.3), 0),
    **{control: (dataclasses.replace(BASE, corruption=Corruption(**{field: True})), 0)
       for control, field in (("qalpha", "flip_q_alpha"), ("h0delta", "drop_h0_delta"),
                              ("disorder", "flip_boson_disorder"))},
}


def _fields(results: dict) -> list:
    """Every report's fields but its wall time, the residual as float.hex."""
    return [(key, {k: v.hex() if k == "residual" else v
                   for k, v in vars(r).items() if k != "wall_time"})
            for key, reps in results.items() for r in reps]


def _run_counting(cfg, q_samples, monkeypatch) -> tuple:
    """(report fields, sparse products formed) of one run_suites on a fresh basis."""
    formed = []
    matmul = compressed._cs_matrix._matmul_sparse
    monkeypatch.setattr(compressed._cs_matrix, "_matmul_sparse",
                        lambda self, other: formed.append(1) or matmul(self, other))
    _cached_basis.cache_clear()
    try:
        return _fields(verify.run_suites(cfg, q_samples=q_samples)), len(formed)
    finally:
        monkeypatch.setattr(compressed._cs_matrix, "_matmul_sparse", matmul)


@pytest.mark.parametrize("name", list(FLAG_SETS))
def test_decided_checks_equal_the_formed_ones(name, monkeypatch):
    """With no shift known every check forms its products; the reports of a
    run that decides checks by their operands' shifts are the same, field
    for field and the residuals by float.hex, and it forms fewer products."""
    cfg, q_samples = FLAG_SETS[name]
    decided, fewer = _run_counting(cfg, q_samples, monkeypatch)
    monkeypatch.setattr(verify, "label_shift", lambda basis, x, label=NUMBERS: None)
    formed, more = _run_counting(cfg, q_samples, monkeypatch)
    assert decided == formed
    assert fewer < more


def _per_entry(x: sp.csr_matrix, label: np.ndarray) -> np.ndarray:
    """label[row] - label[column] at every stored entry of x."""
    return label[entry_rows(x)] - label[x.indices]


@pytest.mark.parametrize("cfg", [BASE, dataclasses.replace(BASE, N=2, S=4, n_max=1),
                                 FLAG_SETS["sea,empty"][0]], ids=["M2N1S2", "M2N2S4", "stack"])
def test_each_shift_is_the_one_every_entry_makes(cfg):
    """A pattern's shift is the difference every stored entry makes, read
    entry by entry: each particle number, and the half-steps of every h_a
    but the affine node's, whose H_0 leaves out the lattice ends, so that
    E_1 moves it by more than one value and has no shift there."""
    _cached_basis.cache_clear()
    basis, gs = cached_basis(cfg), algebra.cached_generators(cfg, True)
    numbers = [basis.lift(kind, table[:, k]) for kind in (FERMION, BOSON)
               for table in [number_labels(basis, kind)] for k in range(table.shape[1])]
    for key, E in gs.E.items():
        shift = algebra.label_shift(basis, E)
        assert [set(_per_entry(E, n).tolist()) for n in numbers] == [{s} for s in shift], key
        for node in range(cfg.R + 1):
            moves = set(_per_entry(E, (2 * gs.h(node)).astype(int)).tolist())
            if node:
                assert moves == {algebra.label_shift(basis, E, node)}, (key, node)
            else:
                assert algebra.label_shift(basis, E, node) is None
    assert len(set(_per_entry(gs.E[1, "+"], 2 * gs.h(0)).tolist())) > 1
    E = gs.E[1, "+"]
    wide = sp.csr_matrix((E.data, E.indices, E.indptr), shape=(basis.dim, basis.dim + 1))
    assert algebra._address(E.T) == algebra._address(wide) == algebra._address(E)
    for x in (gs.H[1], 2 * E, E.T.tocsr(), E.T, wide):
        assert algebra.label_shift(basis, x) is None


def test_an_infinite_operand_forms_the_oracle_product(cfg21):
    """An oracle check whose operands' shifts decide it, but whose operand
    holds an infinite entry, forms its product and reads NaN, as it does with
    no shift known: inf * 0 is no zero."""
    _cached_basis.cache_clear()
    basis, gs = cached_basis(cfg21), algebra.cached_generators(cfg21, True)
    Y, X = gs.E[2, "+"], gs.E[1, "+"]
    Y = sp.csr_matrix((np.full(Y.nnz, np.inf), Y.indices, Y.indptr), shape=Y.shape)

    def hopf(d):
        return np.zeros(len(d))

    closed, node = 0.0, 1
    residuals = []
    for shift in (None, lambda x, label: algebra.label_shift(basis, x, label)):
        out = SuiteReports("serre", cfg21.tol, basis, shift)
        assert not out._scales_by_zero(Y, X, closed, hopf, node)
        with np.errstate(invalid="ignore"):
            out.check_scalings("eq12-oracle[1,2,+]", Y, X, lambda: gs.h(node), closed, hopf,
                               node=node)
        residuals.append(out.reports[0].residual)
    assert all(math.isnan(r) for r in residuals)
    finite = SuiteReports("serre", cfg21.tol, basis,
                          lambda x, label: algebra.label_shift(basis, x, label))
    assert finite._scales_by_zero(gs.E[2, "+"], X, closed, hopf, node)


PRODUCTS = 113  # 142 with no shift known


def test_shifts_live_beside_the_patterns_and_operators_die_with_their_suite(monkeypatch):
    """Once suite_cartan_weyl returns, no Cartan-Weyl operator's indices is
    alive: no shift or memo entry holds one.  The basis memo holds shift
    entries for the registered generator patterns only, and one run at
    M2 N1 S2 n_max 2 forms a pinned number of sparse products."""
    cfg = BASE
    refs = []
    for name in ("cartan_weyl_generators", "cartan_weyl_h"):
        build = getattr(verify, name)

        def recorded(*args, _build=build):
            x = _build(*args)
            refs.append(weakref.ref(x.indices))
            return x
        monkeypatch.setattr(verify, name, recorded)
    _, products = _run_counting(cfg, 0, monkeypatch)
    assert products == PRODUCTS
    basis = cached_basis(cfg)
    assert refs and not [r for r in refs if r() is not None]
    kept = basis._memo[basis.cfg]
    patterns = {key[1:] for key in kept if key[0] == "pattern"}
    assert {key[1:] for key in kept if key[0] == "shift"} <= patterns
    assert set(kept["patterns",].values()) == patterns


def test_a_real_q_takes_float_coefficients(monkeypatch):
    """At a real q the row coefficients and the Serre quartic's q are floats,
    and the reports equal those of the complex coefficients bit for bit."""
    cfg = dataclasses.replace(BASE, N=2, nu=None, q_real=1.3)
    coefficients = []
    commutator = verify.commutator

    def recorded(x, y, c=1.0):
        coefficients.append(c)
        return commutator(x, y, c)
    for module in (verify, verify.oscillators):
        monkeypatch.setattr(module, "commutator", recorded)
    names = ["oscillators", "braiding", "serre"]
    _cached_basis.cache_clear()
    real = _fields(verify.run_suites(cfg, names))
    assert coefficients and not [c for c in coefficients if isinstance(c, complex)]
    for module in (verify, verify.oscillators):
        monkeypatch.setattr(module, "real_if_exact", lambda c: complex(c))
    _cached_basis.cache_clear()
    assert _fields(verify.run_suites(cfg, names)) == real


def test_stack_keeps_the_arrays_and_dtypes_of_its_blocks(monkeypatch):
    """FockBasis.stack holds each block's data, columns and row starts moved
    by the blocks before it, in the blocks' dtypes, a zero block rows with no
    entries; it builds one CSR matrix, none for a zero block."""
    blocks = [sp.random(3, 4, density=0.5, format="csr", random_state=1),
              None,
              sp.random(3, 4, density=0.4, format="csr", random_state=2, dtype=complex),
              None]
    built = []
    csr = sp.csr_matrix
    monkeypatch.setattr(fock.sp, "csr_matrix", lambda *a, **k: built.append(1) or csr(*a, **k))
    got = FockBasis.stack(blocks)
    monkeypatch.setattr(fock.sp, "csr_matrix", csr)
    assert len(built) == 1
    dense = np.zeros((12, 16), dtype=complex)
    for j, b in enumerate(blocks):
        if b is not None:
            dense[3 * j:3 * j + 3, 4 * j:4 * j + 4] = b.toarray()
    assert got.shape == (12, 16) and got.dtype == complex
    assert np.array_equal(got.toarray(), dense)
    assert got.indices.dtype == got.indptr.dtype == np.int32
    n0, n2 = blocks[0].nnz, blocks[2].nnz
    assert got.indptr.tolist() == [*blocks[0].indptr[:-1], *[n0] * 3,
                                   *(blocks[2].indptr[:-1] + n0), *[n0 + n2] * 4]
    assert got.data.tolist() == [*blocks[0].data, *blocks[2].data]
    assert got.indices.tolist() == [*blocks[0].indices, *(blocks[2].indices + 8)]
