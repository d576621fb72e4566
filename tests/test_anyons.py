import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (bulk_projector, disorder_factor, full_anyon, full_ladder, index_for,
                      string_exponent)
from anyonrep import report
from anyonrep.anyons import BRAIDING, FAMILIES, anyon_factor, suite_braiding
from anyonrep.fock import (
    FERMION,
    Corruption,
    LatticeConfig,
    _cached_basis,
    boson_mode,
    build_basis,
    cached_basis,
    diag_operator,
    fermion_mode,
    identity_op,
    ladder,
    op_adjoint,
    q_power,
    residual_norm,
)
from anyonrep.oscillators import Q_BOSON, number_diag, suite_oscillators
from anyonrep.report import CATALOG, reports_ok


# ---------------------------------------------------------------------------
# disorder factors
# ---------------------------------------------------------------------------

def test_disorder_on_all_empty_state_sea(cfg21, basis21):
    """Hand evaluation on the two-site lattice: for the all-empty state under
    the sea ordering, :n_i(-1/2): = -1, so the string of K_i(+1/2) picks up
    base -1/2 times eps(-1) times (-1) = -1/2, i.e. eigenvalue q^{-1/2};
    the string of K_i(-1/2) sees only the bare positive site and stays 1."""
    q = cfg21.q
    empty = 0
    k_plus = disorder_factor(cfg21, basis21, fermion_mode(1, +0.5))
    k_minus = disorder_factor(cfg21, basis21, fermion_mode(1, -0.5))
    assert abs(k_plus.diagonal()[empty] - q_power(q, -0.5)) < 1e-14
    assert abs(k_minus.diagonal()[empty] - 1.0) < 1e-14
    # bosonic strings carry the opposite base sign and +1 at the filled sea
    kp = disorder_factor(cfg21, basis21, boson_mode(1, +0.5))
    assert abs(kp.diagonal()[empty] - q_power(q, -0.5)) < 1e-14


def test_disorder_trivial_under_empty_ordering():
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3, ordering="empty")
    basis = build_basis(cfg)
    one = identity_op(basis)
    for mode in (fermion_mode(1, 0.5), boson_mode(1, -0.5)):
        K = disorder_factor(cfg, basis, mode)
        assert abs(K.diagonal()[0] - 1.0) < 1e-14  # all :n: vanish there
    # and on the all-empty state every factor is exactly 1; elsewhere not
    vals = disorder_factor(cfg, basis, fermion_mode(1, 0.5)).diagonal()
    assert not np.allclose(vals, 1.0)


def test_disorder_unitary_at_unit_modulus(cfg21, basis21):
    one = identity_op(basis21)
    for mode in (fermion_mode(1, 0.5), boson_mode(1, 0.5)):
        K = disorder_factor(cfg21, basis21, mode)
        Kt = disorder_factor(cfg21, basis21, mode, tilde=True)
        assert residual_norm(K @ op_adjoint(K) - one) < 1e-13
        assert residual_norm(K @ Kt - one) < 1e-13  # opposite exponents


def test_disorder_inverse_not_adjoint_for_real_q():
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, q_real=1.3)
    basis = build_basis(cfg)
    K = disorder_factor(cfg, basis, fermion_mode(1, 0.5))
    Kt = disorder_factor(cfg, basis, fermion_mode(1, 0.5), tilde=True)
    one = identity_op(basis)
    assert residual_norm(K @ Kt - one) < 1e-13
    assert residual_norm(K @ op_adjoint(K) - one) > 0.1


def test_disorder_factors_are_diagonal_and_commute(cfg21, basis21):
    ops = [disorder_factor(cfg21, basis21, fermion_mode(1, 0.5)),
           disorder_factor(cfg21, basis21, boson_mode(1, -0.5), tilde=True)]
    for K in ops:
        off = K - diag_operator(K.diagonal())
        assert residual_norm(off) == 0.0
    assert residual_norm(ops[0] @ ops[1] - ops[1] @ ops[0]) == 0.0


def test_string_commutes_with_own_site_ladder(cfg21, basis21):
    # eps(0) = 0 removes the target mode from its own string
    K = disorder_factor(cfg21, basis21, fermion_mode(1, 0.5))
    c = full_ladder(cfg21, basis21, fermion_mode(1, 0.5))
    assert residual_norm(K @ c - c @ K) == 0.0


# ---------------------------------------------------------------------------
# anyons
# ---------------------------------------------------------------------------

def test_anyon_family_validation(cfg21, basis21):
    with pytest.raises(ValueError):
        full_anyon(cfg21, basis21, fermion_mode(1, 0.5), "A")
    with pytest.raises(ValueError):
        full_anyon(cfg21, basis21, boson_mode(1, 0.5), "a")
    with pytest.raises(ValueError):
        full_anyon(cfg21, basis21, fermion_mode(1, 0.5), "nope")


def test_anyons_collapse_at_q_one():
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, q_real=1.0)
    basis = build_basis(cfg)
    a = full_anyon(cfg, basis, fermion_mode(1, 0.5), "a")
    c = full_ladder(cfg, basis, fermion_mode(1, 0.5))
    assert residual_norm(a - c) == 0.0
    A = full_anyon(cfg, basis, boson_mode(1, -0.5), "A")
    d = full_ladder(cfg, basis, boson_mode(1, -0.5))
    assert residual_norm(A - d) == 0.0


@pytest.mark.parametrize("q, q_inv", [({"nu": 0.3}, {"nu": -0.3}),
                                       ({"q_real": 1.3}, {"q_real": 1 / 1.3})])
@pytest.mark.parametrize("lines", [{}, {"K": 2, "ordering": ("sea", "empty")}])
def test_tilded_family_is_the_family_at_inverse_q(q, q_inv, lines):
    """The q <-> 1/q mirror: a~ and A~ at q are a and A at 1/q, on every
    mode, with and without the dagger."""
    common = dict(M=2, N=1, S=2, n_max=2, **lines)
    cfg, cfg_inv = LatticeConfig(**common, **q), LatticeConfig(**common, **q_inv)
    basis = build_basis(cfg)
    for mode in basis.fermion_modes + basis.boson_modes:
        family = "a" if mode.kind == FERMION else "A"
        for dagger in (False, True):
            tilded = full_anyon(cfg, basis, mode, family + "~", dagger)
            mirror = full_anyon(cfg_inv, basis, mode, family, dagger)
            assert residual_norm(tilded - mirror) <= 1e-14


def test_number_identity_exact(cfg21, basis21):
    for fam in ("a", "a~"):
        for site in cfg21.sites:
            mode = fermion_mode(2, site)
            lo = full_anyon(cfg21, basis21, mode, fam)
            hi = full_anyon(cfg21, basis21, mode, fam, dagger=True)
            assert residual_norm(
                hi @ lo - diag_operator(number_diag(basis21, mode))) == 0.0


def test_braiding_spot_relation(cfg21, basis21):
    q = cfg21.q
    a_hi = full_anyon(cfg21, basis21, fermion_mode(1, 0.5), "a")
    a_lo = full_anyon(cfg21, basis21, fermion_mode(1, -0.5), "a")
    assert residual_norm(a_hi @ a_lo + (a_lo @ a_hi) / q) <= 1e-10


def test_same_site_mixed_pair_gives_string_diagonal(cfg21, basis21):
    q = cfg21.q
    mode = fermion_mode(1, -0.5)
    t = full_anyon(cfg21, basis21, mode, "a~")
    ad = full_anyon(cfg21, basis21, mode, "a", dagger=True)
    w = string_exponent(basis21, mode)
    rhs = diag_operator(q_power(q, w))
    assert residual_norm(t @ ad + ad @ t - rhs) <= 1e-13


def test_bosonic_same_site_headroom(cfg21, basis21):
    q = cfg21.q
    mode = boson_mode(1, 0.5)
    A = full_anyon(cfg21, basis21, mode, "A")
    Ad = full_anyon(cfg21, basis21, mode, "A", dagger=True)
    nvec = number_diag(basis21, mode)
    head = bulk_projector(basis21, 0, 1)
    lhs = A @ Ad - q * (Ad @ A) - diag_operator(q_power(q, -nvec))
    assert residual_norm(head @ lhs @ head) <= 1e-10


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("qspec", [{"nu": 0.1}, {"nu": 0.3}, {"q_real": 1.3}])
def test_suite_braiding_passes(qspec):
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, **qspec)
    reports = suite_braiding(cfg)
    assert reports_ok(reports)
    assert all(r.residual <= 1e-10 for r in reports if r.applicable)


def test_suite_braiding_two_lines():
    cfg = LatticeConfig(M=2, N=1, S=2, K=2, n_max=2, nu=0.3)
    reports = suite_braiding(cfg)
    assert reports_ok(reports)
    # every line contributes its own on-site relations
    for line in (1, 2):
        tagged = [r for r in reports
                  if r.relation_id.startswith("eq43[") and f"({line}," in r.relation_id]
        assert tagged


def test_cross_line_string_sign():
    """A particle on a higher line counts as 'later' in the lattice order:
    for a target on line 1 it enters the string with eps = +1."""
    cfg = LatticeConfig(M=1, N=2, S=2, K=2, n_max=1, nu=0.3, ordering="empty")
    basis = build_basis(cfg)
    state = [0] * basis.F
    state[basis.fermion_slot(fermion_mode(1, -0.5, line=2))] = 1
    idx = index_for(basis, state, [0] * basis.B)
    K = disorder_factor(cfg, basis, fermion_mode(1, 0.5))
    assert abs(K.diagonal()[idx] - q_power(cfg.q, -0.5)) < 1e-14


def test_corrupted_boson_disorder_fails_braiding(cfg21):
    reports = suite_braiding(dataclasses.replace(
        cfg21, corruption=Corruption(flip_boson_disorder=True)))
    assert not reports_ok(reports)
    bad = [r for r in reports if not r.satisfied]
    assert any(r.relation_id.startswith("eq53") for r in bad)


# ---------------------------------------------------------------------------
# the scaled construction
# ---------------------------------------------------------------------------

STACKS = [LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
          LatticeConfig(M=2, N=1, S=2, K=2, n_max=1, nu=0.3,
                        ordering=("sea", "empty"))]


@pytest.mark.parametrize("cfg", STACKS, ids=["M2N1S2", "sea,empty"])
@pytest.mark.parametrize("flip", [False, True])
def test_scaled_anyon_equals_string_product(cfg, flip):
    """Scaling the oscillator's rows (columns of the adjoint) by the string
    gives the product with the diagonal disorder factor entry for entry."""
    from anyonrep.anyons import FAMILIES
    cfg = dataclasses.replace(cfg, corruption=Corruption(flip_boson_disorder=flip))
    basis = build_basis(cfg)
    for family, (kind, tilde) in FAMILIES.items():
        modes = basis.fermion_modes if kind == FERMION else basis.boson_modes
        for mode in modes:
            osc = full_ladder(cfg, basis, mode)
            for dagger in (False, True):
                if dagger:
                    ref = op_adjoint(osc) @ disorder_factor(cfg, basis, mode, not tilde)
                else:
                    ref = disorder_factor(cfg, basis, mode, tilde) @ osc
                out = full_anyon(cfg, basis, mode, family, dagger)
                assert out.nnz == ref.nnz and (out != ref).nnz == 0


def test_suite_braiding_builds_each_anyon_once(monkeypatch):
    from anyonrep import anyons
    calls = []
    build = anyons.anyon_factor

    def counted(cfg, basis, mode, family, dagger=False):
        calls.append((mode, family, dagger))
        return build(cfg, basis, mode, family, dagger)

    monkeypatch.setattr(anyons, "anyon_factor", counted)
    reports = suite_braiding(LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3))
    assert reports_ok(reports)
    # 3 flavors x 2 sites x 2 families x 2 daggers
    assert len(calls) == len(set(calls)) == 24


def test_braiding_rows_that_share_a_key_are_one_check(monkeypatch):
    """Rows with the same coefficient, right side (named or not) and bulk
    are one check_family call: per fermion flavor 3 over the site pairs and
    4 over the points, per boson flavor 2 and 3, so 19 calls at M = 2,
    N = 1 where one call per row made 56."""
    calls = []
    check_family = report.SuiteReports.check_family
    monkeypatch.setattr(report.SuiteReports, "check_family",
                        lambda self, ids, *a, **kw: calls.append(ids) or check_family(
                            self, ids, *a, **kw))
    reports = suite_braiding(LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3))
    assert reports_ok(reports)
    assert len(calls) == 19
    assert sorted(rid for ids in calls for rid in ids) == sorted(r.relation_id for r in reports)


def test_a_check_over_two_families_tags_each_report_with_its_own():
    """A check_family over the ids of two catalog families gives each report
    its own family's equation tag, with and without a right side."""
    basis = cached_basis(LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3))
    out = report.SuiteReports("braiding", 1e-10, basis)
    one = identity_op(basis, FERMION)
    lhs, ids = basis.stack([one, one]), ["eq42a[1]", "eq43[2]"]
    tags = {family: tag for _, family, tag, _ in CATALOG}
    for rhs in (None, lhs):
        got = out.check_family(ids, lhs, rhs, factor=FERMION)
        assert [r.equation for r in got] == [tags["eq42a"], tags["eq43"]] == [
            "Eq. (42)", "Eq. (43)"]


# ---------------------------------------------------------------------------
# the relation rows
# ---------------------------------------------------------------------------

CANONICAL = ("eq20", "eq21", "eq30")


def test_each_braiding_and_q_boson_family_is_one_row_in_catalog_order():
    """The braiding table and the q-boson table each state every family of
    their suite once, in CATALOG order (the canonical eq20, eq21 and eq30
    are not rows); the q-oscillator rows of b and of A are one statement."""
    for suite, table in (("braiding", BRAIDING), ("oscillators", Q_BOSON)):
        families = [row.family for rows in table.values() for row in rows]
        assert families == [f for s, f, _, _ in CATALOG if s == suite and f not in CANONICAL]
    rows = {row.family: row for table in (BRAIDING, Q_BOSON)
            for group in table.values() for row in group}
    for of_b, of_a in (("eq49a", "eq54a"), ("eq49b", "eq54b"), ("eq50a", "eq50A")):
        b, a = rows[of_b], rows[of_a]
        assert a == b._replace(family=of_a, x=b.x.replace("b", "A"), y=b.y.replace("b", "A"))


def test_each_tilded_row_is_its_partner_at_inverse_q():
    """A "t" family is its partner with the anyon families tilded, the power
    of q negated and a q-power rhs mirrored (q^n <-> q^-n)."""
    rows = {row.family: row for group in BRAIDING.values() for row in group}
    tilded = [family for family in rows if re.fullmatch(r"eq\d+t[a-d]?", family)]
    assert tilded == ["eq42ta", "eq42tb", "eq42tc", "eq42td", "eq43t", "eq47t",
                      "eq53ta", "eq53tb", "eq54ta"]

    def tilde(operand):
        name, at = operand.split()
        return f"{name[0]}~{name[1:]} {at}"

    for family in tilded:
        partner = rows[family.replace("t", "", 1)]
        assert rows[family] == partner._replace(
            family=family, x=tilde(partner.x), y=tilde(partner.y), power=-partner.power,
            rhs={"q^n": "q^-n", "q^-n": "q^n"}.get(partner.rhs, partner.rhs)), family


def test_the_single_factor_suites_multiply_only_in_restrict(monkeypatch):
    """With the ladders and anyons built beforehand, every sparse product the
    oscillator and braiding suites form (the canonical block included, on a
    fresh basis) is formed inside report.restrict."""
    cfg = LatticeConfig(M=2, N=1, S=2, K=2, n_max=1, nu=0.3, ordering=("sea", "empty"))
    _cached_basis.cache_clear()
    basis = cached_basis(cfg)
    for mode in basis.fermion_modes + basis.boson_modes:
        for dagger in (False, True):
            ladder(basis.cfg, basis, mode, dagger), ladder(cfg, basis, mode, dagger)
            for family, (kind, _) in FAMILIES.items():
                if kind == mode.kind:
                    anyon_factor(cfg, basis, mode, family, dagger)
    inside, products = [], []
    # the class that defines sparse `@` for every format
    sparse = next(c for c in sp.csr_matrix.__mro__ if "__matmul__" in vars(c))
    restrict, matmul = report.restrict, sparse.__matmul__

    def restricting(*args, **kwargs):
        inside.append(True)
        try:
            return restrict(*args, **kwargs)
        finally:
            inside.pop()

    def multiply(x, y):
        products.append(bool(inside))
        return matmul(x, y)

    monkeypatch.setattr(report, "restrict", restricting)
    monkeypatch.setattr(sparse, "__matmul__", multiply)
    reports = suite_oscillators(cfg) + suite_braiding(cfg)
    monkeypatch.undo()
    assert reports_ok(reports)
    assert {r.relation_id.split("[")[0] for r in reports} >= {"eq20", "eq30", "eq42a", "eq54a"}
    assert products and all(products)
