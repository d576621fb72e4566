"""Ladders and anyons act on one factor of the state index f * NB + b.

The oscillator and braiding suites check every single-statistics relation on
that factor.  These tests hold the two facts that make this exact: every
full-space ladder and anyon is the lift of its factor operator, array for
array, and a relation recomputed at full dimension from the lifted operands
has the suite's residual, bit for bit.  The full-dimension evaluation of
these suites lives here, as their oracle.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from anyonrep.anyons import FAMILIES, anyon, anyon_factor, string_exponent, suite_braiding
from anyonrep.fock import (
    BOSON,
    FERMION,
    NO_CORRUPTION,
    Corruption,
    LatticeConfig,
    ModeId,
    _q_one,
    annihilate,
    boson_annihilate,
    build_basis,
    cached_basis,
    create,
    diag_operator,
    fermion_annihilate,
    identity_op,
    ladder,
    op_adjoint,
    q_bracket,
    q_power,
    scale_columns,
    scale_rows,
)
from anyonrep.oscillators import number_diag, suite_oscillators
from anyonrep.report import CATALOG, SuiteReports

STACKS = [LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
          LatticeConfig(M=1, N=2, S=2, n_max=2, nu=0.3),
          LatticeConfig(M=2, N=1, S=2, K=2, n_max=1, nu=0.3,
                        ordering=("sea", "empty"))]


def kron_lift(basis, kind, x):
    """The reference lift x (x) 1 (fermions) or 1 (x) x (bosons)."""
    one = sp.identity(basis.NB if kind == FERMION else basis.NF, dtype=complex,
                      format="csr")
    return (sp.kron(x, one) if kind == FERMION else sp.kron(one, x)).tocsr()


def assert_same_arrays(x, y):
    assert x.shape == y.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(x, name), getattr(y, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# the factors are exact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", STACKS, ids=["M2N1S2", "M1N2S2", "sea,empty"])
def test_full_space_operators_are_lifted_factors(cfg):
    """Every ladder (both daggers, at q and at q = 1) and every anyon of the
    four families (both daggers) equals the kron lift of its factor
    operator: the same indptr, indices and data arrays."""
    basis = build_basis(cfg)
    typed = {FERMION: fermion_annihilate, BOSON: boson_annihilate}
    for mode in basis.fermion_modes + basis.boson_modes:
        for at in (cfg, _q_one(cfg)):
            x = ladder(at, basis, mode)
            assert x.shape == ((basis.NF,) * 2 if mode.kind == FERMION
                               else (basis.NB,) * 2)
            assert_same_arrays(annihilate(at, basis, mode), kron_lift(basis, mode.kind, x))
            assert_same_arrays(typed[mode.kind](at, basis, mode),
                               kron_lift(basis, mode.kind, x))
            assert_same_arrays(create(at, basis, mode),
                               kron_lift(basis, mode.kind, op_adjoint(x)))
    for family, (kind, _) in FAMILIES.items():
        modes = basis.fermion_modes if kind == FERMION else basis.boson_modes
        for mode in modes:
            for dagger in (False, True):
                x = anyon_factor(cfg, basis, mode, family, dagger)
                assert_same_arrays(anyon(cfg, basis, mode, family, dagger),
                                   kron_lift(basis, kind, x))


@pytest.mark.parametrize("seed", range(3))
def test_lift_of_a_boson_factor_operator_is_the_kron_lift(seed):
    """On the boson factor any operator lifts like sp.kron, rows with
    several entries and empty rows included; on the fermion factor such an
    operator is refused rather than lifted wrong."""
    basis = build_basis(STACKS[0])
    rng = np.random.default_rng(seed)
    for kind, n in ((BOSON, basis.NB), (FERMION, basis.NF)):
        dense = (rng.random((n, n)) < 0.3) * (rng.normal(size=(n, n)) + 1j)
        dense[::3] = 0  # some empty rows
        x = sp.csr_matrix(dense)
        assert np.diff(x.indptr).max() > 1 and np.diff(x.indptr).min() == 0
        if kind == BOSON:
            assert_same_arrays(basis.lift_operator(kind, x), kron_lift(basis, kind, x))
        else:
            with pytest.raises(ValueError, match="one entry per row"):
                basis.lift_operator(kind, x)


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
        lx, ly = basis.lift_operator(kind, x), basis.lift_operator(kind, y)
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
    one, plain = identity_op(basis), _q_one(cfg)
    f1, f2 = basis.fermion_modes[:2]
    m1, m2 = basis.boson_modes[:2]
    c1, c2, cd1 = (annihilate(cfg, basis, f1), annihilate(cfg, basis, f2),
                   create(cfg, basis, f1))
    d1, d2, dd1 = (annihilate(plain, basis, m1), annihilate(plain, basis, m2),
                   create(plain, basis, m1))
    b, bd = annihilate(cfg, basis, m1), create(cfg, basis, m1)
    b2, bd2 = annihilate(cfg, basis, m2), create(cfg, basis, m2)
    n = number_diag(cfg, basis, m1)
    return [
        (f"eq20[{f1},{f1}+]", c1 @ cd1 + cd1 @ c1, one, None),
        (f"eq20[{f1},{f2}]", c1 @ c2 + c2 @ c1, None, None),
        (f"eq21[{m1},{m1}+]", [(1, d1, dd1), (-1, dd1, d1)], one, (0, 1)),
        (f"eq21[{m1},{m2}]", d1 @ d2 - d2 @ d1, None, None),
        (f"eq49a[{m1}]", [(1, b, bd), (-q, bd, b)],
         diag_operator(q_power(q, -n)), (0, 1)),
        (f"eq49b[{m1}]", [(1, b, bd), (-1 / q, bd, b)],
         diag_operator(q_power(q, n)), (0, 1)),
        (f"eq49d[{m1}]", scale_rows(b, n) - scale_columns(b, n), -1 * b, None),
        (f"eq49e[{m1}]", scale_rows(bd, n) - scale_columns(bd, n), bd, None),
        (f"eq50a[{m1}]", bd @ b, diag_operator(q_bracket(n, q)), None),
        (f"eq50b[{m1}]", [(1, b, bd)], diag_operator(q_bracket(n + 1, q)), (0, 1)),
        (f"eq49c[{m1},{m2}]", b @ b2 - b2 @ b, None, None),
        (f"eq49a0[{m1},{m2}]", b @ bd2 - bd2 @ b, None, None),
        (f"eq49d0[{m1},{m2}]", scale_rows(b2, n) - scale_columns(b2, n), None, None),
    ]


def _braiding_oracle(cfg, corruption):
    """A sample of every braiding family, written at full dimension from the
    lifted anyons of flavor 1 at one ordered pair x after y and at x."""
    basis, q = cached_basis(cfg), cfg.q
    one = identity_op(basis)
    x, y = (1, 0.5), (1, -0.5)

    def A(kind, pt, family, dagger=False):
        return anyon(cfg, basis, ModeId(kind, 1, *pt), family, dagger,
                     corruption=corruption)

    ar, asr, adr, ads = (A(FERMION, x, "a"), A(FERMION, y, "a"),
                         A(FERMION, x, "a", True), A(FERMION, y, "a", True))
    tr, ts, tdr, tds = (A(FERMION, x, "a~"), A(FERMION, y, "a~"),
                        A(FERMION, x, "a~", True), A(FERMION, y, "a~", True))
    Ar, As, Adr, Ads = (A(BOSON, x, "A"), A(BOSON, y, "A"),
                        A(BOSON, x, "A", True), A(BOSON, y, "A", True))
    Tr, Ts, Tdr, Tds = (A(BOSON, x, "A~"), A(BOSON, y, "A~"),
                        A(BOSON, x, "A~", True), A(BOSON, y, "A~", True))
    w = string_exponent(cfg, basis, ModeId(FERMION, 1, *x))
    n = diag_operator(number_diag(cfg, basis, ModeId(FERMION, 1, *x)))
    nb = number_diag(cfg, basis, ModeId(BOSON, 1, *x))
    pair, at = f"i=1,{x},{y}", f"i=1,{x}"
    bpair, bat = f"k=1,{x},{y}", f"k=1,{x}"
    return [
        (f"eq42a[{pair}]", ar @ asr + (asr @ ar) / q, None, None),
        (f"eq42b[{pair}]", adr @ ads + (ads @ adr) / q, None, None),
        (f"eq42c[{pair}]", adr @ asr + q * (asr @ adr), None, None),
        (f"eq42d[{pair}]", ar @ ads + q * (ads @ ar), None, None),
        (f"eq42ta[{pair}]", tr @ ts + q * (ts @ tr), None, None),
        (f"eq42tb[{pair}]", tdr @ tds + q * (tds @ tdr), None, None),
        (f"eq42tc[{pair}]", tdr @ ts + (ts @ tdr) / q, None, None),
        (f"eq42td[{pair}]", tr @ tds + (tds @ tr) / q, None, None),
        (f"eq44[{pair}]", tr @ asr + asr @ tr, None, None),
        (f"eq44x[{pair}]", ts @ ar + ar @ ts, None, None),
        (f"eq44d[{pair}]", tdr @ ads + ads @ tdr, None, None),
        (f"eq45[{pair}]", tdr @ asr + asr @ tdr, None, None),
        (f"eq45x[{pair}]", tds @ ar + ar @ tds, None, None),
        (f"eq45b[{pair}]", tr @ ads + ads @ tr, None, None),
        (f"eq43[{at}]", ar @ adr + adr @ ar, one, None),
        (f"eq43n[{at}]", ar @ ar, None, None),
        (f"eq43nd[{at}]", adr @ adr, None, None),
        (f"eq43t[{at}]", tr @ tdr + tdr @ tr, one, None),
        (f"eq44s[{at}]", tr @ ar + ar @ tr, None, None),
        (f"eq46a[{at}]", tr @ adr + adr @ tr, diag_operator(q_power(q, w)), None),
        (f"eq46b[{at}]", tdr @ ar + ar @ tdr, diag_operator(q_power(q, -w)), None),
        (f"eq47[{at}]", adr @ ar, n, None),
        (f"eq47t[{at}]", tdr @ tr, n, None),
        (f"eq53a[{bpair}]", Ar @ As - q * (As @ Ar), None, None),
        (f"eq53b[{bpair}]", Adr @ Ads - q * (Ads @ Adr), None, None),
        (f"eq53c[{bpair}]", Adr @ As - (As @ Adr) / q, None, None),
        (f"eq53d[{bpair}]", Ar @ Ads - (Ads @ Ar) / q, None, None),
        (f"eq53ta[{bpair}]", Tr @ Ts - (Ts @ Tr) / q, None, None),
        (f"eq53tb[{bpair}]", Tdr @ Tds - (Tds @ Tdr) / q, None, None),
        (f"eq54a[{bat}]", [(1, Ar, Adr), (-q, Adr, Ar)],
         diag_operator(q_power(q, -nb)), (0, 1)),
        (f"eq54b[{bat}]", [(1, Ar, Adr), (-1 / q, Adr, Ar)],
         diag_operator(q_power(q, nb)), (0, 1)),
        (f"eq54ta[{bat}]", [(1, Tr, Tdr), (-1 / q, Tdr, Tr)],
         diag_operator(q_power(q, nb)), (0, 1)),
        (f"eq50A[{bat}]", Adr @ Ar, diag_operator(q_bracket(nb, q)), None),
    ]


@pytest.mark.parametrize("suite, corruption", [
    ("oscillators", NO_CORRUPTION),
    ("braiding", NO_CORRUPTION),
    ("braiding", Corruption(flip_boson_disorder=True)),
], ids=["oscillators", "braiding", "braiding-control"])
def test_factor_checks_equal_the_full_dimension_oracle(cfg22, suite, corruption):
    """Each sampled relation, checked at full dimension from the lifted
    operands, has the suite's residual (compared by float.hex) and label.
    The sample covers every family of the suite but the mixed eq30, and
    under the disorder control the failing eq53 reports fail alike."""
    if suite == "oscillators":
        reports, oracle = suite_oscillators(cfg22), _oscillator_oracle(cfg22)
    else:
        reports = suite_braiding(cfg22, corruption)
        oracle = _braiding_oracle(cfg22, corruption)
    by_id = {r.relation_id: r for r in reports}
    full = SuiteReports(suite, cfg22.tol, cached_basis(cfg22))
    for rid, lhs, rhs, bulk in oracle:
        full.check(rid, lhs, rhs, bulk=bulk)
    for ref in full.reports:
        got = by_id[ref.relation_id]
        assert (got.residual.hex(), got.projector) == (ref.residual.hex(), ref.projector), \
            ref.relation_id
    sampled = {rid.split("[", 1)[0] for rid, *_ in oracle}
    assert sampled == {fam for s, fam, _, _ in CATALOG if s == suite} - {"eq30"}
    assert any(r.residual > 0 for r in full.reports)
    failing = {r.relation_id.split("[", 1)[0] for r in full.reports if not r.passed}
    assert failing == ({"eq53a", "eq53b", "eq53c", "eq53d", "eq53ta", "eq53tb"}
                       if corruption else set())
