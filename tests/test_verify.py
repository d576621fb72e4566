import dataclasses
import gc
import inspect
import re
import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._compressed as compressed
from hypothesis import given, settings, strategies as st

from conftest import bulk_projector, full_local_e, local_e
from anyonrep.algebra import (
    admissible_sites,
    cached_basis,
    cached_generators,
    cartan_data,
    cartan_weyl_generators,
    compose_roots,
)
from anyonrep import algebra, fock, report, verify
from anyonrep.oscillators import number_factor, suite_oscillators
from anyonrep.fock import (
    Corruption,
    FockBasis,
    LatticeConfig,
    _cached_basis,
    identity_op,
    diag_operator,
    q_bracket,
    residual_norm,
    supercommutator,
)
from anyonrep.report import (
    CATALOG,
    SuiteReports,
    bulk_label,
    check_identity,
    not_applicable,
    reports_ok,
    restrict,
)
from anyonrep.verify import (
    Q_FREE,
    SUITES,
    _largest_entry,
    ad_q,
    run_suites,
    suite_cartan_weyl,
    suite_central_charge,
    suite_classical_limit,
    suite_coproduct,
    suite_quantum,
    suite_serre,
    suite_undeformed,
)


# ---------------------------------------------------------------------------
# check_identity
# ---------------------------------------------------------------------------

def test_check_identity_trivial(cfg21):
    gs = cached_generators(cfg21, True)
    [rep] = check_identity(["x"], "-", gs.H[1], gs.H[1], tol=1e-10)
    assert rep.residual == 0.0 and rep.passed
    [rep] = check_identity(["x"], "-", gs.H[1] @ gs.H[2], gs.H[2] @ gs.H[1], tol=1e-10)
    assert rep.residual == 0.0


def test_check_identity_shape_guard(cfg21):
    import scipy.sparse as sp
    gs = cached_generators(cfg21, True)
    with pytest.raises(ValueError):
        check_identity(["x"], "-", gs.H[1], sp.identity(3, dtype=complex), tol=1e-10)


def test_eq7c_against_dense_oracle(cfg21):
    """Recompute the alpha = beta = 1 pairing with plain dense numpy."""
    gs = cached_generators(cfg21, True)
    basis = cached_basis(cfg21)
    Ep = gs.E[(1, "+")].toarray()
    Em = gs.E[(1, "-")].toarray()
    H = gs.H[1].toarray()
    q = cfg21.q
    lhs = Ep @ Em - Em @ Ep  # both grades even
    rhs = np.diag([(q ** h - q ** -h) / (q - 1 / q) for h in np.diag(H).real])
    P = bulk_projector(basis, 1, 1).toarray()
    dense_res = np.abs(P @ (lhs - rhs) @ P).max()
    assert dense_res <= 1e-10
    out = SuiteReports("quantum", cfg21.tol, basis)
    out.check("eq7c[1,1]", supercommutator(gs.E[(1, "+")], gs.E[(1, "-")], 0, 0),
              diag_operator(q_bracket(gs.h(1), gs.q_alpha(1))), bulk=(1, 1))
    [rep] = out.reports
    assert rep.passed
    assert abs(rep.residual - dense_res) <= 1e-12


def test_bulk_spec_equals_projector_sandwich():
    """A check that names its bulk as (margin, headroom) reduces the same
    entries as the explicit projector sandwich (or right product) of the
    formed operators, bit for bit, and labels them from the same spec; sides
    given as products are restricted before they are multiplied."""
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    gs = cached_generators(cfg, True)
    basis = cached_basis(cfg)
    E = gs.E
    qa = gs.q_alpha(1)
    operators = [
        (supercommutator(E[(0, "+")], E[(0, "-")], 1, 1),
         diag_operator(q_bracket(gs.h(0), gs.q_alpha(0)))),
        (E[(1, "+")] @ E[(1, "-")], gs.H[1]),
        ([(1, E[(1, "+")], E[(1, "-")])], gs.H[1]),
        (E[(0, "+")] + gs.H[2], None),
        (E[(2, "-")] @ E[(1, "-")], None),
        # the Serre word of nodes 1 and 2, and a mix of lengths on both sides
        ([(1, E[(1, "+")], E[(1, "+")], E[(2, "+")]),
          (-(qa + 1 / qa), E[(1, "+")], E[(2, "+")], E[(1, "+")]),
          (1, E[(2, "+")], E[(1, "+")], E[(1, "+")])], None),
        ([(0.5j, E[(0, "+")], E[(1, "-")], E[(2, "+")]), (1, gs.H[2]),
          (-qa, E[(2, "+")], E[(0, "+")])],
         [(1, E[(1, "+")], E[(1, "-")]), (2, gs.H[1])]),
    ]
    out = SuiteReports("quantum", cfg.tol, basis)
    reference = []
    for bulk in [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]:
        P = bulk_projector(basis, *bulk)
        for side in ("both", "right"):
            for lhs, rhs in operators:
                full = restrict(lhs, None, side)
                diff = full - (0 * full if rhs is None else restrict(rhs, None, side))
                sandwich = P @ diff @ P if side == "both" else diff @ P
                reference.append((residual_norm(sandwich),
                                  f"margin={bulk[0]}"
                                  + (f",headroom={bulk[1]}" if bulk[1] else "")
                                  + (",right" if side == "right" else "")))
                out.check("eq7c", lhs, rhs, bulk=bulk, side=side)
    assert [(r.residual, r.projector) for r in out.reports] == reference
    assert len({res for res, _ in reference}) > 5  # not all zero


def test_zero_rhs_reduces_the_canonical_form_without_mutation():
    # duplicates (3, -3) in row 0 sum to 0; the largest summed entry is 1
    lhs = sp.csr_matrix((np.array([3, -3, 1], dtype=complex), np.array([0, 0, 1]),
                         np.array([0, 2, 3])), shape=(2, 2))

    def residual(x):
        zero = sp.csr_matrix(x.shape, dtype=complex)
        [report] = check_identity(["x"], "-", x, zero, tol=1e-10)
        return report.residual

    alone = restrict(lhs)
    assert alone is not lhs and not np.shares_memory(alone.indices, lhs.indices)
    assert residual(alone) == 1.0
    kept = restrict(lhs, np.array([True, True]))
    assert kept.nnz == 3
    assert residual(kept) == 1.0
    corner = restrict(lhs, np.array([True, False]))
    assert residual(corner) == 0.0
    assert corner.nnz == 2 and list(corner.data) == [3, -3]
    assert lhs.nnz == 3 and list(lhs.data) == [3, -3, 1]


def _restrict_per_product(terms, mask=None, side="both"):
    """The reference of :func:`restrict`: each product restricted on its own
    factors, the rows of its first (side "both") and the columns of its last,
    then multiplied out and the products summed in order."""
    if sp.issparse(terms):
        terms = [(1, terms)]
    total = None
    for c, *factors in terms:
        if mask is not None:
            if side == "both":
                factors[0] = factors[0][mask]
            factors[-1] = factors[-1][:, mask]
        x, *rest = factors if side == "both" else factors[::-1]
        for f in rest:
            x = x @ f if side == "both" else f @ x
        if c != 1:
            x = c * x
        total = x if total is None else total + x
    return total.tocsr()


def _bulk_row_products(terms, mask):
    """Each product of ``terms`` formed left to right from the bulk rows of
    its first factor, every other factor whole."""
    if sp.issparse(terms):
        terms = [(1, terms)]
    products = []
    for _, x, *rest in terms:
        x = x[mask]
        for f in rest:
            x = x @ f
        products.append(x)
    return products


def _hex_entries(x: sp.spmatrix):
    """Shape, pattern and entries, each by float.hex, of x in canonical form."""
    x = x.tocsr(copy=True)
    x.sum_duplicates()
    return (x.shape, x.indptr.tolist(), x.indices.tolist(),
            [(float(v.real).hex(), float(v.imag).hex()) for v in x.data])


def test_restrict_equals_the_per_product_reference(monkeypatch):
    """restrict takes the bulk columns once, of the sum, and equals the
    product-by-product reference by float.hex: random complex factors, one
    to three per product, scalars 1, -q and 0.5j, masks that keep no state,
    every state or some, both sides, and terms whose kept entries cancel to
    exactly zero.  A side-"both" restriction column-indexes one matrix, its
    sum, with no more rows than its bulk, where a product holds entries, and
    none where every product is empty."""
    rng = np.random.default_rng(23)
    n, scalars = 12, [1, -np.exp(1j * np.pi * 0.3), 0.5j]

    def factor():
        return (sp.random(n, n, density=0.3, format="csr", random_state=rng)
                + 1j * sp.random(n, n, density=0.3, format="csr", random_state=rng)).tocsr()

    indexed = []  # the rows of every matrix whose columns are fancy-indexed
    minor = compressed._cs_matrix._minor_index_fancy

    def recording_minor(self, idx):
        indexed.append(self.shape[0])
        return minor(self, idx)

    monkeypatch.setattr(compressed._cs_matrix, "_minor_index_fancy", recording_minor)
    for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool), rng.random(n) < 0.5):
        # B and B2 agree on the kept columns, so (1, A, B) and (-1, A, B2) cancel there
        A, B = factor(), factor()
        B2 = (B + factor() @ sp.diags((~mask).astype(float))).tocsr()
        cases = [factor(), [(1, A, B), (-1, A, B2)], [(0.5j, A), (1, A, B), (-1, A, B2)]]
        cases += [[(scalars[k], *(factor() for _ in range(rng.integers(1, 4))))
                   for k in rng.integers(0, 3, size=rng.integers(1, 4))] for _ in range(8)]
        for side in ("both", "right"):
            for terms in cases:
                summed = any(x.nnz for x in _bulk_row_products(terms, mask))
                indexed.clear()
                got = restrict(terms, mask, side)
                if side == "both":
                    assert len(indexed) == summed and max(indexed, default=0) <= mask.sum()
                assert _hex_entries(got) == _hex_entries(_restrict_per_product(terms, mask, side))
    assert restrict([(1, A, B), (-1, A, B2)], mask).nnz == 0 < (A @ B - A @ B2).nnz


def test_a_product_stops_at_its_first_empty_partial_product(monkeypatch):
    """restrict multiplies a product on only while its partial product holds
    entries, left to right from X1's bulk rows (side "both") or right to left
    from Xn's bulk columns (side "right"), and leaves an empty one out of the
    sum: scipy's sparse product is called once per step up to the first
    empty partial product."""
    formed = []
    matmul = compressed._cs_matrix._matmul_sparse
    monkeypatch.setattr(compressed._cs_matrix, "_matmul_sparse",
                        lambda self, other: formed.append(1) or matmul(self, other))

    def at(*entries):
        rows, cols = zip(*entries)
        return sp.csr_matrix((np.ones(len(rows), dtype=complex), (rows, cols)), shape=(4, 4))

    mask = np.array([True, True, False, False])
    C = at((2, 0), (3, 1))
    cases = [([(1, at((2, 0)), C, C)], "both", 0, 0),   # X1's bulk rows are empty
             ([(1, at((0, 1)), at((2, 3)), C)], "both", 1, 0),   # X1 X2 is empty
             ([(1, at((0, 2)), C, at((0, 1)))], "both", 2, 1),
             ([(1, C, C, at((0, 2)))], "right", 0, 0),   # Xn's bulk columns are empty
             ([(1, C, at((1, 3)), at((2, 0)))], "right", 1, 0),   # X2 Xn is empty
             ([(1, at((0, 2)), at((2, 3)), at((3, 1))), (2, at((2, 0)), C)], "both", 2, 1)]
    for terms, side, steps, nnz in cases:
        formed.clear()
        got = restrict(terms, mask, side)
        assert (len(formed), got.nnz) == (steps, nnz), (terms, side)
        assert _hex_entries(got) == _hex_entries(_restrict_per_product(terms, mask, side))


def test_an_empty_sum_is_a_fresh_matrix_of_the_restricted_shape():
    """With every product left out, restrict returns a new empty matrix of
    the restricted shape, (k, k) on side "both", (n, k) on side "right" and
    (n, n) unmasked, never a kept restriction or an operand."""
    n, mask = 4, np.array([True, False, True, False])
    low = sp.csr_matrix((np.ones(2, dtype=complex), ([1, 3], [1, 3])), shape=(n, n))
    high = sp.csr_matrix((np.ones(2, dtype=complex), ([0, 2], [0, 2])), shape=(n, n))
    for terms, m, side, shape in (([(1, low, high), (2, low, low)], mask, "both", (2, 2)),
                                  ([(1, high, low.T), (-1, low.T)], mask, "right", (n, 2)),
                                  ([(1, low, high)], None, "both", (n, n)),
                                  (low @ high, None, "both", (n, n))):
        kept = {}
        got = restrict(terms, m, side, kept)
        assert got.shape == shape and got.nnz == 0 and got.format == "csr"
        assert bool(kept) == (m is not None)
        held = [v for part in kept.values() for v in part if sp.issparse(v)]
        held += [f for t in (terms if isinstance(terms, list) else [(1, terms)]) for f in t[1:]]
        assert all(got is not x and not np.shares_memory(got.indptr, x.indptr) for x in held)


def test_leaving_out_empty_products_changes_no_report(cfg22, monkeypatch):
    """Every suite that forms relation products reports the same, residuals
    by float.hex, as with each product formed whole and added
    (``_restrict_per_product``): leaving out the products that an empty
    partial product makes empty changes no residual."""
    names = ["oscillators", "braiding", "quantum", "serre", "undeformed", "cartanweyl"]
    got = run_suites(cfg22, names)
    monkeypatch.setattr(report, "restrict", lambda terms, mask=None, side="both", kept=None:
                        _restrict_per_product(terms, mask, side))
    _cached_basis.cache_clear()
    want = run_suites(cfg22, names)
    assert list(got) == list(want)
    for name in names:
        assert [r.residual.hex() for r in got[name]] == [r.residual.hex() for r in want[name]]
        strip = [{k: v for k, v in vars(r).items() if k != "wall_time"}
                 for r in got[name] + want[name]]
        assert strip[:len(got[name])] == strip[len(got[name]):], name


def test_check_identity_reduces_one_residual_per_block():
    """A family's reports hold the residuals of its diagonal blocks, each
    summed and reduced alone: an empty block reads 0, duplicates sum within
    their block, and a nonzero rhs block is subtracted from its own rows."""
    blocks = [None,
              sp.csr_matrix((np.array([3, -3, 1j]), np.array([0, 0, 1]), np.array([0, 2, 3])),
                            shape=(2, 2)),
              sp.csr_matrix(np.array([[0, 2], [0.5, 0]], dtype=complex))]
    basis = cached_basis(LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3))
    lhs = basis.stack(blocks)
    rhs = basis.stack([None, None, sp.csr_matrix(np.array([[0, 2], [0, 0]], dtype=complex))])
    reports = check_identity(["a", "b", "c"], "-", lhs, rhs, tol=0.75,
                             params=[{"k": 0}, None, {"k": 2}])
    assert [(r.relation_id, r.residual, r.passed, r.params) for r in reports] == [
        ("a", 0.0, True, {"k": 0}), ("b", 1.0, False, {}), ("c", 0.5, True, {"k": 2})]
    # no rhs is a zero right side
    assert [r.residual for r in check_identity(["a", "b", "c"], "-", lhs, tol=0.75)] == [
        0.0, 1.0, 2.0]


def test_check_identity_takes_restricted_operands_only():
    """SuiteReports is the one place a bulk is applied.  The label keyword is
    not named ``projector``: perfbench/tracing.py reads that keyword of
    check_identity as a CSR matrix."""
    params = inspect.signature(check_identity).parameters
    assert list(params)[2:4] == ["lhs", "rhs"]
    assert not {"bulk", "side", "basis", "mask", "projector"} & set(params)


def test_two_sided_bulks_form_no_full_dimension_product(cfg22, monkeypatch):
    """A check restricts its products before it multiplies them: every
    product it forms on a two-sided bulk has fewer rows than the basis, and
    on a right side fewer columns; a two-sided bulk column-indexes no matrix
    with all the basis's rows.  The relation operands, the q-commutators
    and ad_q included, reach the check as products: once the generators are
    built, the quantum, Serre and undeformed suites form no product outside
    a check (``check_family``, or ``check_scalings`` for the oracle's one
    product).  A fresh basis, so the suites' checks are not memo hits."""
    _cached_basis.cache_clear()
    calls, families = [], set()
    where = [None]
    matmat = compressed.csr_matmat

    def recording_matmat(n_row, n_col, *arrays):
        calls.append((where[0], n_row, n_col))
        return matmat(n_row, n_col, *arrays)

    indexed = []  # (side, rows) of every matrix whose columns are fancy-indexed
    minor = compressed._cs_matrix._minor_index_fancy

    def recording_minor(self, idx):
        indexed.append((where[0], self.shape[0]))
        return minor(self, idx)

    check_family = SuiteReports.check_family
    check_scalings = SuiteReports.check_scalings

    def recording_check(self, relation_ids, lhs, rhs=None, *, bulk=None,
                        side="both", **kwargs):
        if not sp.issparse(lhs):  # a call may check rows of several families
            families.update(rid.split("[", 1)[0] for rid in relation_ids)
        where[0] = side if bulk is not None else "identity"
        try:
            return check_family(self, relation_ids, lhs, rhs, bulk=bulk, side=side, **kwargs)
        finally:
            where[0] = None

    def recording_scalings(self, relation_id, x, *args, bulk=None, **kwargs):
        if not sp.issparse(x):
            families.add(relation_id.split("[", 1)[0])
        where[0] = "both" if bulk is not None else "identity"
        try:
            return check_scalings(self, relation_id, x, *args, bulk=bulk, **kwargs)
        finally:
            where[0] = None

    for deformed in (True, False):
        gs = cached_generators(cfg22, deformed)
        for key in gs.E:
            gs.script_e(*key)
    monkeypatch.setattr(compressed, "csr_matmat", recording_matmat)
    monkeypatch.setattr(SuiteReports, "check_family", recording_check)
    monkeypatch.setattr(SuiteReports, "check_scalings", recording_scalings)
    monkeypatch.setattr(compressed._cs_matrix, "_minor_index_fancy", recording_minor)
    run_suites(cfg22, ["quantum", "serre", "undeformed"])
    dim = cached_basis(cfg22).dim
    assert [c for c in calls if c[0] is None] == []
    rows = [n_row for side, n_row, _ in calls if side == "both"]
    cols = [n_col for side, _, n_col in calls if side == "right"]
    assert rows and max(rows) < dim
    assert cols and max(cols) < dim
    column_indexed = [n_row for side, n_row in indexed if side == "both"]
    assert column_indexed and max(column_indexed) < dim
    calls.clear()
    run_suites(cfg22, ["oscillators", "braiding"])
    rows = [n_row for side, n_row, _ in calls if side == "both"]
    assert rows and max(rows) < dim
    assert {"eq7c", "eq2c", "eq8", "eq3", "eq8-img", "eq9-alphaM", "eq4-alphaM",
            "eq9-alphaM-img", "eq9-alpha0-cyclic", "eq9-alpha0-skip",
            "eq4-alpha0-cyclic", "eq4-alpha0-skip", "eq10-alphaM", "eq12-oracle",
            "eq21", "eq49a", "eq49b", "eq50b", "eq54a", "eq54b", "eq54ta"} <= families


def test_kept_restrictions_give_the_fresh_reports_and_die_with_the_suite(cfg22, monkeypatch):
    """A suite call keeps each product factor's bulk rows or columns: serre,
    which restricts the same generators in many checks, reports the same
    (residuals by float.hex) as with every restriction made afresh, and
    indexes no operator twice with one mask, which fresh restrictions do.
    Nothing kept outlives the suite: with the cyclic collector off, a weakref
    to each kept restriction is dead once the suite returns."""
    for deformed in (True, False):
        gs = cached_generators(cfg22, deformed)
        for key in gs.E:
            gs.script_e(*key)
    restrict, getitem = report.restrict, sp.csr_matrix.__getitem__
    indexed, kept_parts = [], []

    def recording(self, key):
        rows = not isinstance(key, tuple)
        mask = key if rows else key[1]
        if isinstance(mask, np.ndarray):  # (the operator, the mask): no id is reused
            indexed.append((self, mask, rows))
        return getitem(self, key)

    def keeping(terms, mask=None, side="both", kept=None):
        out = restrict(terms, mask, side, kept)
        kept_parts.extend(weakref.ref(v[-1]) for v in kept.values()
                          if isinstance(v, tuple) and sp.issparse(v[-1]))
        return out

    def repeats():
        counts = Counter((id(x), id(mask), rows) for x, mask, rows in indexed)
        indexed.clear()
        return max(counts.values())

    monkeypatch.setattr(sp.csr_matrix, "__getitem__", recording)
    monkeypatch.setattr(report, "restrict", keeping)
    gc.disable()
    try:
        got = suite_serre(cfg22)
        assert kept_parts and all(ref() is None for ref in kept_parts)
    finally:
        gc.enable()
    assert repeats() == 1
    monkeypatch.setattr(report, "restrict",
                        lambda terms, mask=None, side="both", kept=None:
                        restrict(terms, mask, side))
    fresh = suite_serre(cfg22)
    assert repeats() > 1
    assert [r.residual.hex() for r in got] == [r.residual.hex() for r in fresh]
    strip = [{k: v for k, v in vars(r).items() if k != "wall_time"} for r in got + fresh]
    assert strip[:len(got)] == strip[len(got):]


STACKED = {
    "M2N1S2": LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
    "sea-empty": LatticeConfig(M=2, N=1, S=2, n_max=2, K=2, ordering=("sea", "empty"), nu=0.3),
}


def _block(side, n: int, j: int):
    """Block j of a side stacked over n blocks: a matrix, products of stacks
    (each factor's block) or None."""
    def block(x):
        r, c = x.shape[0] // n, x.shape[1] // n
        return x[j * r:(j + 1) * r, j * c:(j + 1) * c]
    if side is None or sp.issparse(side):
        return side if side is None else block(side)
    return [(c, *map(block, factors)) for c, *factors in side]


CONTROLS = {"plain": Corruption(), "qalpha": Corruption(flip_q_alpha=True),
            "h0delta": Corruption(drop_h0_delta=True),
            "disorder": Corruption(flip_boson_disorder=True)}


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("name", STACKED)
def test_stacked_families_equal_their_one_relation_checks(name, control, monkeypatch):
    """Every single-factor family of the oscillator and braiding suites is
    checked at once, stacked over its blocks, and each of its reports is the
    one-relation check of its block: the same residual by float.hex and the
    same fields, its own family's equation tag included.  Rows that share
    their coefficient, right side and bulk are one call over the blocks of
    several families (eq42a with eq42tc, eq49c with eq49a0), and every
    family a call names is recorded.  A weight family (eq49d, eq49e, eq49d0)
    is also its blocks' sparse form [diag(h), x] - w x.  Covered: masked
    families (eq54a, eq21 at (0, 1)), a rhs that is 1 on some blocks and zero
    on others (eq20 with m1 == m2) and the disorder control tripping eq53*,
    under each negative control.  The mixed eq30 is decided on its factors'
    entries, all its reports in one call."""
    corruption = CONTROLS[control]
    cfg = dataclasses.replace(STACKED[name], corruption=corruption)
    seen, mixed = [], Counter()
    check_family, check_weights = SuiteReports.check_family, SuiteReports.check_weights
    check_factor_commutators = SuiteReports.check_factor_commutators

    def recording(self, relation_ids, lhs, rhs=None, **kwargs):
        reports = check_family(self, relation_ids, lhs, rhs, **kwargs)
        seen.append((self, relation_ids, lhs, rhs, None, kwargs, reports))
        return reports

    def recording_weights(self, relation_ids, x, weights, **kwargs):
        reports = check_weights(self, relation_ids, x, weights, **kwargs)
        [weight] = weights
        seen.append((self, relation_ids, x, None, weight, kwargs, reports))
        return reports

    def recording_mixed(self, relation_ids, pairs, **kwargs):
        mixed[self.suite, relation_ids[0].split("[", 1)[0]] += len(relation_ids)
        return check_factor_commutators(self, relation_ids, pairs, **kwargs)

    _cached_basis.cache_clear()
    monkeypatch.setattr(SuiteReports, "check_family", recording)
    monkeypatch.setattr(SuiteReports, "check_weights", recording_weights)
    monkeypatch.setattr(SuiteReports, "check_factor_commutators", recording_mixed)
    run_suites(cfg, ["oscillators", "braiding"])
    monkeypatch.undo()
    calls, stacked, masked, mixed_rhs, tripped = Counter(), set(), set(), set(), set()
    weighed, grouped = set(), set()
    for out, ids, lhs, rhs, weight, kwargs, reports in seen:
        n, of = len(ids), [rid.split("[", 1)[0] for rid in ids]
        blocks = {family: [j for j in range(n) if of[j] == family] for family in of}
        grouped.add(frozenset(blocks))
        for family, js in blocks.items():
            calls[out.suite, family] += 1
            if len(js) > 1:
                stacked.add((out.suite, family))
            if kwargs.get("bulk"):
                masked.add((family, kwargs["bulk"]))
            if rhs is not None and 0 < sum(_block(rhs, n, j).nnz > 0 for j in js) < len(js):
                mixed_rhs.add(family)
        ones = [SuiteReports(out.suite, out.tol, out.basis) for _ in range(2)]
        for j, rid in enumerate(ids):
            x, ps = _block(lhs, n, j), kwargs["params"][j]
            if weight is None:
                ones[0].check(rid, x, _block(rhs, n, j), **dict(kwargs, params=ps))
                continue
            weighed.add(of[j])
            h, w, bulk = weight
            h = h[j * x.shape[0]:(j + 1) * x.shape[0]]
            ones[0].emit(ones[0].check_weights([rid], x, [(h, w, bulk)],
                                               **dict(kwargs, params=[ps])))
            ones[1].check(rid, fock.scale_rows(x, h) - fock.scale_columns(x, h), x * w,
                          bulk=bulk, **dict(kwargs, params=ps))
        for one in ones[:1 if weight is None else 2]:
            assert [r.residual.hex() for r in reports] == [r.residual.hex() for r in one.reports]
            strip = [{k: v for k, v in vars(r).items() if k != "wall_time"}
                     for r in reports + one.reports]
            assert strip[:n] == strip[n:], ids[0]
        tripped |= {r.relation_id.split("[", 1)[0] for r in reports if not r.passed}
    single_factor = {(suite, family) for suite, family, _, _ in CATALOG
                     if suite in ("oscillators", "braiding") and family != "eq30"}
    # one check per flavor (and form), a family over many blocks where it has them
    assert all(calls[key] <= 2 * max(cfg.M, cfg.N) for key in single_factor)
    assert {frozenset({"eq42a", "eq42b", "eq42tc", "eq42td"}),
            frozenset({"eq49c", "eq49a0"}), frozenset({"eq54b", "eq54ta"})} <= grouped
    basis = cached_basis(cfg)
    assert mixed == {("oscillators", "eq30"): 2 * min(4, basis.F) * min(4, basis.B)}
    assert ("oscillators", "eq30") not in calls
    assert stacked == single_factor if cfg.K == 2 else stacked < single_factor
    assert weighed == {"eq49d", "eq49e", "eq49d0"}
    assert {("eq54a", (0, 1)), ("eq21", (0, 1))} <= masked
    assert {"eq20", "eq21"} <= mixed_rhs
    assert {f[:4] for f in tripped} == ({"eq53"} if corruption.flip_boson_disorder else set())


def test_projector_labels_follow_the_spec_format():
    """Every label is 'identity', '-' or margin=m[,headroom=h][,right]."""
    label = re.compile(r"identity|-|margin=\d+(,headroom=[1-9]\d*)?(,right)?")
    seen = set()
    for N in (1, 2):
        for n_max in (2, 1):
            cfg = LatticeConfig(M=2, N=N, S=2, n_max=n_max, nu=0.3)
            for reps in run_suites(cfg).values():
                seen |= {r.projector for r in reps}
    assert all(label.fullmatch(p) for p in seen), seen
    assert {"margin=0,headroom=2,right", "margin=0,headroom=1,right"} <= seen


def test_not_applicable_reports_are_satisfied():
    rep = not_applicable("x", "-", "too small")
    assert rep.satisfied and not rep.applicable


# ---------------------------------------------------------------------------
# quantum adjoint action
# ---------------------------------------------------------------------------

def ad_q_hopf(genset, alpha, Y, grade_of_Y, sign="+") -> list:
    """The Hopf form (:func:`verify.hopf_form`) as two products, q^{+-h} as
    scalings: the oracle the closed form ``ad_q`` is checked against."""
    X, sgn, exponent, h = verify.hopf_form(genset, alpha, grade_of_Y, sign)
    qa, h = genset.q_alpha(alpha), h()
    SX = -fock.q_power(qa, exponent) * fock.scale_columns(X, fock.q_power(qa, h))
    return [(1, X, Y), (sgn, fock.scale_rows(Y, fock.q_power(qa, -h)), SX)]


def test_ad_q_matches_hopf_oracle(cfg22):
    gs = cached_generators(cfg22, True)
    ct = gs.cartan
    P1 = bulk_projector(cached_basis(cfg22), 1, 1)
    for al in range(cfg22.R + 1):
        for be in range(cfg22.R + 1):
            if al == be:
                continue
            for s, sgn in (("+", 1), ("-", -1)):
                Y = gs.script_e(be, s)
                closed = restrict(ad_q(gs, al, Y, sgn * ct.a[al][be], ct.parity[be], s))
                oracle = restrict(ad_q_hopf(gs, al, Y, ct.parity[be], s))
                diff = closed - oracle
                if al == 0:
                    diff = P1 @ diff @ P1
                assert residual_norm(diff) <= 1e-10, (al, be, s)


def test_the_oracle_forms_share_their_first_product(cfg22):
    """The premise of eq12-oracle deciding on Y E alone: both forms begin
    with the same product (1, X, Y), so no defect of either can show in it,
    and the closed form's other term is Y E with the Hopf form's E."""
    gs = cached_generators(cfg22, True)
    ct = gs.cartan
    for al in range(cfg22.R + 1):
        for be in range(cfg22.R + 1):
            for s, sgn in (("+", 1), ("-", -1)):
                Y = gs.script_e(be, s)
                closed = ad_q(gs, al, Y, sgn * ct.a[al][be], ct.parity[be], s)
                assert closed[0] == ad_q_hopf(gs, al, Y, ct.parity[be], s)[0], (al, be, s)
                X = verify.hopf_form(gs, al, ct.parity[be], s)[0]
                assert closed[1][1:] == (Y, X) and X is gs.script_e(al, s), (al, be, s)


def test_eq12_oracle_fails_on_a_wrong_weight(cfg22, monkeypatch):
    """Without its shared product the oracle still has teeth: a closed form
    given the weight w + 1 fails every eq12-oracle check off the affine node.
    (On two sites the affine node's bulk, margin 1, keeps the vacuum alone.)"""
    def wrong(gs, alpha, Y, weight_of_Y, grade_of_Y, sign="+"):
        return ad_q(gs, alpha, Y, weight_of_Y + 1, grade_of_Y, sign)

    monkeypatch.setattr(verify, "ad_q", wrong)
    oracle = [r for r in suite_serre(cfg22) if r.relation_id.startswith("eq12-oracle")]
    assert all(r.passed == (r.params["alpha"] == 0) for r in oracle) and len(oracle) == 24


def test_eq12_oracle_fails_on_a_wrong_hopf_exponent(cfg22, monkeypatch):
    """The mirror of a wrong weight: a Hopf form whose antipode carries
    q^{e+1} fails all 18 eq12-oracle checks off the affine node."""
    form = verify.hopf_form

    def wrong(gs, alpha, grade_of_Y, sign="+"):
        X, sgn, e, h = form(gs, alpha, grade_of_Y, sign)
        return X, sgn, e + 1, h

    monkeypatch.setattr(verify, "hopf_form", wrong)
    oracle = [r for r in suite_serre(cfg22) if r.relation_id.startswith("eq12-oracle")]
    assert len(oracle) == 24 and sum(not r.passed for r in oracle) == 18
    assert all(r.passed == (r.params["alpha"] == 0) for r in oracle)


@pytest.mark.parametrize("cfg", [LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3),
                                 LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)],
                         ids=["M2N2S2", "M2N1S4"])
def test_each_oracle_check_forms_one_product(cfg, monkeypatch):
    """eq12-oracle is decided on the entries of Y E: each check forms exactly
    one sparse product where Y's bulk rows hold entries, and none where they
    do not, as under the affine node's bulk they can: restrict stops at an
    empty partial product.  scipy sizes every product it forms, and skips
    csr_matmat where the product is empty."""
    counts, inside = [], [False]
    check_scalings = SuiteReports.check_scalings

    def recording(name, k):
        kernel = getattr(compressed, name)

        def recorded(*args):
            if inside[0]:
                counts[-1][k] += 1
            return kernel(*args)
        monkeypatch.setattr(compressed, name, recorded)

    def recording_check(self, relation_id, x, *args, bulk=None, **kwargs):
        (_, Y, _), = x
        counts.append([0, 0, (Y if bulk is None else Y[self.mask(bulk)]).nnz > 0])
        inside[0] = relation_id.startswith("eq12-oracle")
        try:
            return check_scalings(self, relation_id, x, *args, bulk=bulk, **kwargs)
        finally:
            inside[0] = False

    recording("csr_matmat_maxnnz", 0)
    recording("csr_matmat", 1)
    monkeypatch.setattr(SuiteReports, "check_scalings", recording_check)
    oracle = [r for r in suite_serre(cfg) if r.relation_id.startswith("eq12-oracle")]
    assert len(counts) == len(oracle) == 2 * cfg.R * (cfg.R + 1)
    assert all(sized == rows and formed <= sized for sized, formed, rows in counts)
    assert all(formed == 1 for (_, formed, _), r in zip(counts, oracle) if r.params["alpha"])
    assert {rows for *_, rows in counts} == {True, False}


def test_ad_q_on_itself_at_isotropic_nodes(cfg22):
    """At an isotropic node the adjoint of a generator on itself is the plain
    anticommutator (the weight factor is q^0), and the oracle agrees."""
    gs = cached_generators(cfg22, True)
    P1 = bulk_projector(cached_basis(cfg22), 1, 1)
    for al in (0, cfg22.M):
        Y = gs.script_e(al, "+")
        out = restrict(ad_q(gs, al, Y, gs.cartan.a[al][al], 1))
        anti = restrict(supercommutator(Y, Y, 1, 1))
        assert residual_norm(out - anti) <= 1e-13
        diff = out - restrict(ad_q_hopf(gs, al, Y, 1))
        if al == 0:
            diff = P1 @ diff @ P1
        assert residual_norm(diff) <= 1e-10


def test_ad_q_classical_reduction():
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, q_real=1.0)
    gs = cached_generators(cfg, True)
    ct = gs.cartan
    for al, be in [(1, 2), (2, 1)]:
        Y = gs.script_e(be, "+")
        out = restrict(ad_q(gs, al, Y, ct.a[al][be], ct.parity[be]))
        classical = restrict(supercommutator(gs.script_e(al, "+"), Y,
                                             ct.parity[al], ct.parity[be]))
        assert residual_norm(out - classical) <= 1e-12


def test_ad_q_annihilates_identity(cfg21):
    gs = cached_generators(cfg21, True)
    one = identity_op(cached_basis(cfg21))
    out = restrict(ad_q(gs, 1, one, 0, 0))
    assert residual_norm(out) <= 1e-13


# ---------------------------------------------------------------------------
# diagonal scalings against the diagonal-matrix products they replace
# ---------------------------------------------------------------------------

CFG22_Q = [LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3),
           LatticeConfig(M=2, N=2, S=2, n_max=2, q_real=1.3)]
# four sites: the bulk (1, 0) of the affine node keeps more than the vacuum
CFG21_S4 = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)


@pytest.mark.parametrize("cfg", CFG22_Q, ids=["nu", "real-q"])
def test_weight_scaling_equals_cartan_commutator(cfg):
    """scale_rows(X, h) - scale_columns(X, h), the form of Eq. (7b), is
    H @ X - X @ H entry for entry, for every H_alpha and every generator."""
    gs = cached_generators(cfg, True)
    for al in gs.H:
        H, h = gs.H[al], gs.h(al)
        for X in list(gs.E.values()) + list(gs.H.values()):
            scaled = fock.scale_rows(X, h) - fock.scale_columns(X, h)
            assert (scaled != H @ X - X @ H).nnz == 0, al


def _weight_cases(cfg):
    """(suite, ids, x, h, w, bulk, factor) of three weight checks: a
    full-dimension generator under the bulk (1, 0) (eq7b), the q-boson family
    stacked over its modes, w = -1 (eq49d), and stacked over mode pairs,
    w = 0 (eq49d0)."""
    gs = cached_generators(cfg, True)
    basis = cached_basis(cfg)
    ms = basis.boson_modes
    pairs = [(m1, m2) for m1 in ms for m2 in ms if m1 != m2]
    return [("quantum", [f"eq7b[0,{be},+]"], gs.E[(be, "+")], gs.h(0), gs.cartan.a[0][be],
             (1, 0), None) for be in gs.H] + [
        ("oscillators", [f"eq49d[{m}]" for m in ms],
         basis.stack([fock.ladder(cfg, basis, m) for m in ms]),
         np.concatenate([number_factor(basis, m) for m in ms]), -1, None, fock.BOSON),
        ("oscillators", [f"eq49d0[{m1},{m2}]" for m1, m2 in pairs],
         basis.stack([fock.ladder(cfg, basis, m2) for _, m2 in pairs]),
         np.concatenate([number_factor(basis, m1) for m1, _ in pairs]), 0, None, fock.BOSON)]


@pytest.mark.parametrize("cfg", CFG22_Q + [CFG21_S4], ids=["nu", "real-q", "S4"])
def test_check_weights_equals_the_sparse_form(cfg):
    """check_weights reads [diag(h), x] - w x off x's stored entries: each
    report is the one of the sparse form scale_rows - scale_columns against
    w x, the residual equal by float.hex, at the true weight and one off."""
    basis = cached_basis(cfg)
    for suite, ids, x, h, w, bulk, factor in _weight_cases(cfg):
        out = SuiteReports(suite, cfg.tol, basis)
        for weight in (w, w + 1):
            reports = out.check_weights(ids, x, [(h, weight, bulk)], factor=factor)
            sparse = out.check_family(ids, fock.scale_rows(x, h) - fock.scale_columns(x, h),
                                      x * weight, bulk=bulk, factor=factor)
            assert [r.residual.hex() for r in reports] == [r.residual.hex() for r in sparse]
            strip = [{k: v for k, v in vars(r).items() if k != "wall_time"}
                     for r in reports + sparse]
            assert strip[:len(ids)] == strip[len(ids):], ids[0]


def test_check_weights_sees_a_weight_off_by_one():
    """No negative control reaches a weight family: with w + 1 the defect is
    -x, so the residual is max |x| on the bulk, to rounding, and the check
    fails."""
    basis = cached_basis(CFG21_S4)
    for suite, ids, x, h, w, bulk, factor in _weight_cases(CFG21_S4):
        out = SuiteReports(suite, CFG21_S4.tol, basis)
        n, r = len(ids), x.shape[0] // len(ids)
        mask = (np.tile(out.mask(bulk), n) if bulk
                else np.ones(x.shape[0], dtype=bool))
        peaks = [np.abs(restrict(x[j * r:(j + 1) * r, j * r:(j + 1) * r],
                                 mask[j * r:(j + 1) * r]).data).max(initial=0.0)
                 for j in range(n)]
        assert all(rep.passed for rep in out.check_weights(ids, x, [(h, w, bulk)],
                                                           factor=factor))
        reports = out.check_weights(ids, x, [(h, w + 1, bulk)], factor=factor)
        assert min(peaks) > 0 and not any(rep.passed for rep in reports)
        assert [rep.residual for rep in reports] == pytest.approx(peaks, rel=1e-15), ids[0]


def _reference_weights(self, relation_ids, x, weights, *, factor=None, params=None):
    """check_weights one relation at a time, as the defect CSR of each weight
    reduced by check_identity against a zero right side: the per-relation
    arithmetic the grouped passes replace."""
    bands, starts = len(relation_ids) // len(weights), np.diff(x.indptr)
    reports = []
    for k, (h, w, bulk) in enumerate(weights):
        block = slice(k * bands, (k + 1) * bands)
        ids = relation_ids[block]
        defect = (np.multiply(x.data, np.repeat(h, starts))
                  - np.multiply(x.data, h[x.indices])) - x.data * w
        if bulk is not None:
            mask = np.tile(self.mask(bulk, factor), bands)
            defect[~(np.repeat(mask, starts) & mask[x.indices])] = 0
        reports += check_identity(
            ids, self.equation(ids[0]), sp.csr_matrix((defect, x.indices, x.indptr), x.shape),
            sp.csr_matrix(x.shape, dtype=complex), tol=self.tol, label=bulk_label(bulk),
            params=params and params[block])
    return reports


def _reference_scalings(self, relation_id, x, h, closed, hopf, *, node, bulk=None,
                        params=None):
    """check_scalings with q_power taken on every entry of Y E, the defect a CSR
    reduced by check_identity."""
    mask = None if bulk is None else self.mask(bulk)
    x, h = restrict(x, mask), h() if mask is None else h()[mask]
    defect = x.data * (closed - hopf(np.repeat(h, np.diff(x.indptr)) - h[x.indices]))
    self.reports += check_identity(
        [relation_id], self.equation(relation_id),
        sp.csr_matrix((defect, x.indices, x.indptr), x.shape), tol=self.tol,
        label=bulk_label(bulk), params=[params])


ENTRYWISE = ("eq7b", "eq2b", "eq1b", "eq12-oracle", "eq49d", "eq49e", "eq49d0")


@pytest.mark.parametrize("corrupt", ["none", "weight", "exponent"])
@pytest.mark.parametrize("ordering", ["sea", "empty"])
def test_entrywise_families_equal_the_per_relation_arithmetic(ordering, corrupt, monkeypatch):
    """Every weight and Hopf-oracle report equals the one the per-relation
    arithmetic gives (one defect CSR per weight through check_identity, q_power
    on every entry of Y E): the same fields and the residual equal by
    float.hex.  A weight w + 1 or an antipode exponent e + 1 makes the
    residuals nonzero, so those are compared too.  A weight pass is cut into
    pieces shorter than these operators, so each pass spans several."""
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, ordering=(ordering,), nu=0.3)
    monkeypatch.setattr(report, "_PIECE", 1000)
    shift = 1 if corrupt == "weight" else 0
    if corrupt == "exponent":
        form = verify.hopf_form

        def wrong_exponent(*args):
            X, sgn, e, h = form(*args)
            return X, sgn, e + 1, h
        monkeypatch.setattr(verify, "hopf_form", wrong_exponent)

    def entrywise(weights, scalings):
        def shifted(self, relation_ids, x, ws, **kwargs):
            return weights(self, relation_ids, x, [(h, w + shift, b) for h, w, b in ws],
                           **kwargs)
        monkeypatch.setattr(SuiteReports, "check_weights", shifted)
        monkeypatch.setattr(SuiteReports, "check_scalings", scalings)
        _cached_basis.cache_clear()
        names = ["oscillators", "quantum", "serre", "undeformed", "cartanweyl"]
        return [{k: v for k, v in vars(r).items() if k != "wall_time"}
                for reps in run_suites(cfg, names).values() for r in reps
                if r.relation_id.split("[", 1)[0] in ENTRYWISE]

    got = entrywise(SuiteReports.check_weights, SuiteReports.check_scalings)
    want = entrywise(_reference_weights, _reference_scalings)
    assert [r["residual"].hex() for r in got] == [r["residual"].hex() for r in want]
    assert got == want
    assert {r["relation_id"].split("[", 1)[0] for r in got} == set(ENTRYWISE)
    failing = {r["relation_id"].split("[", 1)[0] for r in got if not r["passed"]}
    assert failing == {"none": set(), "weight": set(ENTRYWISE) - {"eq12-oracle"},
                       "exponent": {"eq12-oracle"}}[corrupt]


def test_entrywise_checks_sort_nothing_and_tabulate_each_exponent_once(monkeypatch):
    """A weight or oracle check forms no CSR to reduce: it reaches neither
    scipy's index sort or duplicate sum nor check_identity, which other checks
    do reach.  The oracle hands q_power one exponent per half-step in range,
    never one per entry, and check_weights takes each operator once, with all
    its Cartan vectors."""
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    where, hits, exponents, operators = [None], Counter(), [], defaultdict(list)

    def hook(owner, name, record):
        original = getattr(owner, name)

        def hooked(*args, **kwargs):
            record(*args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, hooked)

    for owner, name in ((compressed, "csr_sort_indices"), (report, "check_identity"),
                        (compressed._cs_matrix, "sum_duplicates")):
        hook(owner, name, lambda *args, name=name: hits.update([(where[0], name)]))
    hook(verify, "q_power", lambda q, x: where[0] and exponents.append(np.asarray(x)))
    for name in ("check_weights", "check_scalings"):
        def check(self, *args, _name=name, _check=getattr(SuiteReports, name), **kwargs):
            if _name == "check_weights":
                operators[self.suite].append(args[1])
            where[0] = _name
            try:
                return _check(self, *args, **kwargs)
            finally:
                where[0] = None
        monkeypatch.setattr(SuiteReports, name, check)
    _cached_basis.cache_clear()
    run_suites(cfg, ["quantum", "undeformed", "cartanweyl", "serre"])
    assert {name for place, name in hits if place is None} == {
        "csr_sort_indices", "check_identity", "sum_duplicates"}
    assert not [(place, name) for place, name in hits if place is not None]
    steps = [2 * x for x in exponents if x.ndim]
    assert len(steps) == 2 * cfg.R * (cfg.R + 1)
    assert all(len(k) <= k.max() - k.min() + 1 for k in steps)
    roots = cfg.R + 1  # the simple roots 1..R and one affine root, each at m = -1, 0, 1
    assert {suite: len(xs) for suite, xs in operators.items()} == {
        "quantum": 2 * (cfg.R + 1), "undeformed": 2 * (cfg.R + 1), "cartanweyl": 3 * roots}
    assert all(len({id(x) for x in xs}) == len(xs) for xs in operators.values())


def test_the_oracle_refuses_a_diagonal_off_the_half_integers(cfg21):
    """check_scalings reads h in half-steps: a diagonal that is not
    half-integral is refused, not truncated."""
    basis = cached_basis(cfg21)
    out = SuiteReports("serre", cfg21.tol, basis)
    with pytest.raises(ValueError, match="half-integral"):
        out.check_scalings("eq12-oracle[1,2,+]", identity_op(basis),
                           lambda: np.arange(basis.dim) / 3, 1.0, lambda d: d, node=1)


def _ad_q_hopf_diagonal_matrices(gs, alpha, Y, grade_of_Y, sign):
    """The Hopf oracle with q^{+-H_alpha} formed as diagonal matrices and
    multiplied in, the form the scalings of :func:`ad_q_hopf` replace."""
    X = gs.script_e(alpha, sign)
    qa = gs.q_alpha(alpha)
    aa = gs.cartan.a[alpha][alpha]
    exponent = aa if sign == "+" else -aa
    q_h = diag_operator(fock.q_power(qa, gs.H[alpha].diagonal().real))
    q_minus_h = diag_operator(fock.q_power(qa, (-1 * gs.H[alpha]).diagonal().real))
    SX = -fock.q_power(qa, exponent) * (X @ q_h)
    sgn = -1.0 if (gs.grade(alpha) * grade_of_Y) % 2 else 1.0
    return (X @ Y + sgn * (q_minus_h @ Y @ SX)).tocsr()


@pytest.mark.parametrize("cfg", CFG22_Q, ids=["nu", "real-q"])
def test_scaled_hopf_oracle_equals_diagonal_matrix_form(cfg):
    gs = cached_generators(cfg, True)
    ct = gs.cartan
    for al in range(cfg.R + 1):
        for be in range(cfg.R + 1):
            for s in ("+", "-"):
                Y = gs.script_e(be, s)
                ref = _ad_q_hopf_diagonal_matrices(gs, al, Y, ct.parity[be], s)
                out = restrict(ad_q_hopf(gs, al, Y, ct.parity[be], s))
                assert residual_norm(out - ref) <= 1e-15, (al, be, s)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("MN", [(2, 1), (2, 2)])
def test_suite_quantum(MN):
    cfg = LatticeConfig(M=MN[0], N=MN[1], S=2, n_max=2, nu=0.3)
    reports = suite_quantum(cfg)
    assert reports_ok(reports)
    assert all(r.residual <= 1e-10 for r in reports
               if r.applicable and not r.informational)


def test_suite_serre_both_cutoffs():
    for n_max in (2, 3):
        cfg = LatticeConfig(M=2, N=2, S=2, n_max=n_max, nu=0.3)
        reports = suite_serre(cfg)
        assert reports_ok(reports)
        ids = {r.relation_id for r in reports}
        assert any(i.startswith("eq9-alpha0-cyclic") for i in ids)
        assert any(i.startswith("eq9-alpha0-skip") for i in ids)
        assert any(i.startswith("eq9-alphaM") for i in ids)


def test_suite_serre_quartic_not_applicable_for_n1(cfg21):
    reports = suite_serre(cfg21)
    assert reports_ok(reports)
    na = {r.relation_id for r in reports if not r.applicable}
    assert "eq9-alphaM" in na


@pytest.mark.parametrize("MN", [(2, 1), (2, 2)])
def test_suite_undeformed(MN):
    cfg = LatticeConfig(M=MN[0], N=MN[1], S=2, n_max=2, nu=0.3)
    assert reports_ok(suite_undeformed(cfg))


@pytest.mark.parametrize("MN", [(1, 2), (3, 2), (2, 3)])
def test_all_suites_other_flavor_contents(MN):
    """M=1 has adjacent odd nodes; rank 4 widens the Serre pair sets."""
    cfg = LatticeConfig(M=MN[0], N=MN[1], S=2, n_max=2, nu=0.3)
    for name, reps in run_suites(cfg).items():
        assert reports_ok(reps), (name, [r.relation_id for r in reps
                                         if not r.satisfied])


@pytest.mark.parametrize("ordering", [("sea", "sea"), ("sea", "empty")])
def test_defining_relations_on_line_stacks(ordering):
    cfg = LatticeConfig(M=2, N=1, S=2, K=2, n_max=1, nu=0.3, ordering=ordering)
    out = run_suites(cfg, ["quantum", "serre", "undeformed"])
    for name, reps in out.items():
        assert reports_ok(reps), name


def test_suite_coproduct(cfg22):
    reports = suite_coproduct(cfg22)
    assert reports_ok(reports)
    control = [r for r in reports if "tailflip" in r.relation_id]
    assert len(control) == 1 and control[0].expect_fail
    assert control[0].residual > 1e-3  # the wrong tail is visibly wrong


@pytest.mark.parametrize("ordering", [("sea", "sea"), ("sea", "empty")])
def test_coproduct_split_on_line_stacks(ordering):
    cfg = LatticeConfig(M=2, N=1, S=2, K=2, n_max=2, nu=0.3, ordering=ordering)
    reports = suite_coproduct(cfg)
    assert reports_ok(reports)
    splits = [r for r in reports if r.relation_id.startswith("eq11a-split")]
    assert splits and all(r.residual <= 1e-12 for r in splits)


def test_suite_coproduct_builds_each_local_piece_once(monkeypatch):
    """Each local piece is formed once over anyons and once over q-bosons,
    as its entries: one node_pieces call per node, sign and statistics, each
    yielding every site once, and no other _entries call (the generator set
    is built before)."""
    cfg = LatticeConfig(M=2, N=2, S=2, K=2, n_max=1, nu=0.3,
                        ordering=("sea", "empty"))
    cached_generators(cfg, True)
    calls, formed, entries = [], [], algebra._entries

    def counted(cfg, basis, alpha, sign, dressed):
        calls.append((alpha, sign, dressed))
        for k, piece in enumerate(algebra.node_pieces(cfg, basis, alpha, sign, dressed)):
            formed.append((alpha, sign, k, dressed))
            yield piece

    monkeypatch.setattr(verify, "node_pieces", counted)
    monkeypatch.setattr(algebra, "_entries", lambda *args: formed.append(args[3:]) or entries(*args))
    assert reports_ok(suite_coproduct(cfg))
    keys = [(al, s) for al in range(cfg.R + 1) for s in ("+", "-")]
    assert sorted(calls) == sorted((*key, d) for key in keys for d in (False, True))
    pieces = [(*key, k, d) for key in keys for d in (False, True)
              for k in range(cfg.K * len(admissible_sites(cfg, key[0])))]
    sites = [f for f in formed if len(f) == 4]
    assert len(sites) == len(set(sites)) == len(pieces) and set(sites) == set(pieces)
    assert len(formed) == 2 * len(pieces)  # one _entries call per piece


def test_coproduct_control_not_applicable_without_inverse_nodes(cfg21):
    reports = suite_coproduct(cfg21)
    control = [r for r in reports if "tailflip" in r.relation_id]
    assert len(control) == 1 and not control[0].applicable


def _coproduct_on_the_whole_basis(cfg):
    """The coproduct reports with every tail, Cartan part, half and weight
    lifted to the whole basis, the oracle of the suite that reads them at
    the pieces' entries: eq57 against each piece's tail, and the split
    summed into E_L and E_R, scaled by q^{H_R/2} and q^{-H_L/2} and lifted."""
    gs = cached_generators(cfg, True)
    basis = cached_basis(cfg)
    out, splits = SuiteReports("coproduct", cfg.tol), SuiteReports("coproduct", cfg.tol)
    control = cfg.M + 1 if cfg.N >= 2 else None
    worst_flip = 0.0
    cut = (cfg.K + 1) // 2
    for alpha in range(cfg.R + 1):
        qa = gs.q_alpha(alpha)
        space = algebra.node_factor(cfg, alpha)
        zero = np.zeros(basis.size(space))
        sites = [(ln, r) for ln in cfg.lines for r in admissible_sites(cfg, alpha)]
        expos = [algebra.eq57_exponent(basis, alpha, ln, r) for ln, r in sites]
        tails = [fock.q_power(qa, x) for x in expos]
        if alpha:
            left = [ln < cut or (ln == cut and r < 0) for ln, r in sites]
            h = [algebra._h_local_diag(basis, alpha, ln, r) for ln, r in sites]
            HL = sum((v for v, lf in zip(h, left) if lf), zero)
            HR = sum((v for v, lf in zip(h, left) if not lf), zero)
            halves = [fock.q_power(qa, x - 0.5 * HR if lf else x + 0.5 * HL)
                      for x, lf in zip(expos, left)]
        worst = 0.0
        for s in ("+", "-"):
            EL = ER = fock.zero_op(basis, space)
            for i, (ln, r) in enumerate(sites):
                E = local_e(cfg, basis, alpha, s, ln, r, True)
                ehat = local_e(cfg, basis, alpha, s, ln, r, False)
                worst = max(worst, residual_norm(E - fock.scale_columns(ehat, tails[i])))
                if alpha == control:
                    flipped = fock.scale_columns(ehat, fock.q_power(1 / qa, expos[i]))
                    worst_flip = max(worst_flip, residual_norm(E - flipped))
                if alpha:
                    half = fock.scale_columns(ehat, halves[i])
                    if left[i]:
                        EL = EL + half
                    else:
                        ER = ER + half
            if alpha:
                rhs = basis.lift(space, fock.scale_columns(EL, fock.q_power(qa, 0.5 * HR))
                                 + fock.scale_rows(ER, fock.q_power(qa, -0.5 * HL)))
                splits.check(f"eq11a-split[{alpha},{s}]", gs.E[(alpha, s)], rhs,
                             params={"alpha": alpha, "sign": s})
        out.record(f"eq57[{alpha}]", worst,
                   params={"alpha": alpha,
                           "form": "two-site tail" if alpha == 0 else "standard"})
    if control is None:
        out.not_applicable("eq57-tailflip-control", "no q^-1 node (N = 1)")
    else:
        out.record(f"eq57-tailflip-control[{control}]", worst_flip, tol=1e-3,
                   params={"alpha": control, "note": "sensitivity control, must fail"},
                   expect_fail=True)
    return out.reports + splits.reports


COPRODUCT = {
    "M2N1S2": LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
    "M2N2S2": LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3),
    "M1N2S2": LatticeConfig(M=1, N=2, S=2, n_max=2, nu=0.3),
    "sea-empty": LatticeConfig(M=2, N=1, S=2, n_max=2, K=2, ordering=("sea", "empty"), nu=0.3),
    "real-q": LatticeConfig(M=2, N=2, S=2, n_max=2, q_real=1.3),
    "M2N1S4": LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3),
    **{name: LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3, corruption=Corruption(**{flag: True}))
       for name, flag in (("qalpha", "flip_q_alpha"), ("h0delta", "drop_h0_delta"),
                          ("disorder", "flip_boson_disorder"))},
}


@pytest.mark.parametrize("cfg", COPRODUCT.values(), ids=COPRODUCT.keys())
def test_coproduct_on_factors_equals_the_whole_basis_suite(cfg):
    """Every report of the suite that reads each diagonal at the pieces'
    entries is the whole-basis suite's, every float equal by float.hex,
    params included."""
    got = suite_coproduct(cfg)
    assert any(r.relation_id.startswith("eq11a-split") for r in got)
    assert _hex_fields(got) == _hex_fields(_coproduct_on_the_whole_basis(cfg))


def test_coproduct_forms_no_full_dimension_vector(cfg22, monkeypatch):
    """No diagonal of the whole basis reaches q_power, a scaling or a lift
    while the suite runs: each is read at the stored entries of the piece it
    scales.  The generator set is built before, so that its Cartan parts,
    summed at full dimension at the mixed nodes, are a memo hit."""
    cached_generators(cfg22, True)
    dim, seen = cached_basis(cfg22).dim, []

    def watched(f):
        def call(*args, **kw):
            seen.extend(a.shape for a in args if isinstance(a, np.ndarray) and a.size == dim)
            return f(*args, **kw)
        return call

    for name in ("q_power", "scale_entries", "scale_rows", "scale_columns"):
        if hasattr(verify, name):
            monkeypatch.setattr(verify, name, watched(getattr(verify, name)))
    monkeypatch.setattr(FockBasis, "lift", watched(FockBasis.lift))
    reports = suite_coproduct(cfg22)
    assert reports_ok(reports) and seen == []


def _repeated_pieces(cfg, basis, alpha, s, dressed):
    """Every site of the node yields the first site's piece."""
    first = next(algebra.node_pieces(cfg, basis, alpha, s, dressed))
    return (first for _ in cfg.lines for _ in admissible_sites(cfg, alpha))


def _moved_pieces(cfg, basis, alpha, s, dressed):
    """The node's pieces, each dressed one with its columns reversed."""
    for rows, columns, values in algebra.node_pieces(cfg, basis, alpha, s, dressed):
        yield rows, columns[::-1] if dressed else columns, values


def test_coproduct_refuses_pieces_that_share_an_entry(cfg22, monkeypatch):
    """The split is summed piece by piece as the half-sums scale it only
    because the pieces of different sites store disjoint entries: a node
    whose every site yields the first site's piece is refused."""
    monkeypatch.setattr(verify, "node_pieces", _repeated_pieces)
    with pytest.raises(ValueError, match="share a position"):
        suite_coproduct(cfg22)


@pytest.mark.parametrize("suite", ["coproduct", "classical"])
def test_pieces_compare_by_value_only_on_the_plain_pattern(cfg22, suite, monkeypatch):
    """Both suites compare a dressed piece with its plain one value by value,
    and classical reads each generator entry as one piece's: so a dressed
    piece off the plain pattern is refused by both, and plain pieces that
    share a position by classical."""
    monkeypatch.setattr(verify, "node_pieces", _moved_pieces)
    with pytest.raises(ValueError, match="leave the plain pattern"):
        verify.SUITES[suite](cfg22)
    if suite == "classical":
        monkeypatch.setattr(verify, "node_pieces", _repeated_pieces)
        with pytest.raises(ValueError, match="share a position"):
            suite_classical_limit(cfg22)


def test_split_degenerates_to_additivity_at_q_one():
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, q_real=1.0)
    gs = cached_generators(cfg, True)
    for alpha in range(1, cfg.R + 1):
        for s in ("+", "-"):
            total = sum((full_local_e(cfg, cached_basis(cfg), alpha, s, 1, r, True)
                         for r in cfg.sites), 0 * gs.H[0])
            assert residual_norm(gs.E[(alpha, s)] - total) <= 1e-13


def test_suite_classical(cfg21):
    reports = suite_classical_limit(cfg21)
    assert reports_ok(reports)
    slope = [r for r in reports if r.relation_id == "limit-slope"][0]
    assert abs(slope.params["ratio"] - 2) <= 0.2


def _classical_from_whole_sets(cfg):
    """The classical reports as whole generator sets give them, the oracle of
    the local-piece form: chevalley_generators at q = 1, 1 + 1e-6 and
    1 + 2e-6 against the plain set, max |E - E_plain| over the generators,
    and [H]_q against H on the set at q = 1."""
    basis = cached_basis(cfg)
    plain = algebra.chevalley_generators(basis.cfg, basis, False)

    def deformed_at(q_real):
        return algebra.chevalley_generators(dataclasses.replace(basis.cfg, q_real=q_real),
                                            basis, True)

    def distance(gs):
        return max(residual_norm(gs.E[key] - plain.E[key]) for key in gs.E)

    out = SuiteReports("classical", 1e-12)
    gs1 = deformed_at(1.0)
    out.record("limit-q1", distance(gs1))
    worst = max(float(np.abs(q_bracket(gs1.h(al), 1.0) - gs1.h(al)).max()) for al in gs1.H)
    out.record("limit-qbracket", worst, params={"note": "[H]_q -> H at q=1"})
    r1, r2 = distance(deformed_at(1 + 1e-6)), distance(deformed_at(1 + 2e-6))
    ratio = r2 / r1 if r1 else float("inf")
    out.record("limit-slope", abs(ratio - 2.0), tol=0.2,
               params={"r_eps": r1, "r_2eps": r2, "ratio": ratio})
    return out.reports


def _hex_fields(reports):
    """Each report's fields but its wall time, every float by float.hex."""
    def hexed(v):
        return v.hex() if isinstance(v, float) else v
    return [{k: hexed(v) if k != "params" else {p: hexed(x) for p, x in v.items()}
             for k, v in vars(r).items() if k != "wall_time"} for r in reports]


CLASSICAL = {
    "M2N1S2": LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
    "M2N2S2": LatticeConfig(M=2, N=2, S=2, n_max=2, nu=0.3),
    "sea-empty": LatticeConfig(M=2, N=1, S=2, n_max=2, K=2, ordering=("sea", "empty"), nu=0.3),
    "real-q": LatticeConfig(M=2, N=1, S=2, n_max=2, q_real=1.3),
    "qalpha": LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3,
                            corruption=Corruption(flip_q_alpha=True)),
    "h0delta": LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3,
                             corruption=Corruption(drop_h0_delta=True)),
    "disorder": LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3,
                              corruption=Corruption(flip_boson_disorder=True)),
    "M2N1S4": LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3),
}


@pytest.mark.parametrize("cfg", CLASSICAL.values(), ids=CLASSICAL.keys())
def test_classical_on_local_pieces_equals_the_whole_sets(cfg):
    """limit-q1, limit-qbracket and limit-slope, read off the local pieces,
    are the reports the whole sets give, every float equal by float.hex,
    params included."""
    got = suite_classical_limit(cfg)
    assert [r.relation_id for r in got] == ["limit-q1", "limit-qbracket", "limit-slope"]
    assert got[2].params["r_eps"] > 0
    assert _hex_fields(got) == _hex_fields(_classical_from_whole_sets(cfg))


def test_classical_builds_no_set_and_no_whole_basis_piece(cfg22, monkeypatch):
    """On a fresh basis, so nothing is a memo hit, classical calls no
    chevalley_generators and lifts no operator (FockBasis.kron): no piece is
    a whole-basis matrix, and the mixed pieces of nodes 0 and M are read as
    the entries of their two factors' tensor product."""
    _cached_basis.cache_clear()
    calls = []
    build, kron = algebra.chevalley_generators, FockBasis.kron
    monkeypatch.setattr(algebra, "chevalley_generators",
                        lambda *args: calls.append("set") or build(*args))
    monkeypatch.setattr(FockBasis, "kron",
                        lambda self, x, y: calls.append("kron") or kron(self, x, y))
    assert reports_ok(suite_classical_limit(cfg22))
    assert calls == []
    cached_generators(cfg22, True)
    assert calls[0] == "set" and "kron" in calls


def test_coproduct_and_classical_make_no_two_factor_kron_call(cfg22, monkeypatch):
    """Neither suite forms a mixed piece X (x) Y on the whole basis: every
    FockBasis.kron call of theirs, the generator set's included, lifts one
    factor operator."""
    _cached_basis.cache_clear()
    calls, kron = [], FockBasis.kron
    monkeypatch.setattr(FockBasis, "kron",
                        lambda self, x, y: calls.append((x is None, y is None)) or kron(self, x, y))
    assert reports_ok(suite_coproduct(cfg22)) and reports_ok(suite_classical_limit(cfg22))
    assert calls and (False, False) not in calls


@pytest.mark.parametrize("ordering,expected", [
    ("sea", 1), ("empty", 0), (("sea", "sea"), 2), (("sea", "empty"), 1),
])
def test_suite_central(ordering, expected):
    K = len(ordering) if isinstance(ordering, tuple) else 1
    cfg = LatticeConfig(M=2, N=1, S=2, K=K, n_max=2, nu=0.3, ordering=ordering)
    reports = suite_central_charge(cfg)
    assert reports_ok(reports)
    g = [r for r in reports if r.relation_id == "eq29-gamma"][0]
    assert g.params["expected"] == expected
    assert g.residual <= 1e-12


def test_suite_cartan_weyl():
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    reports = suite_cartan_weyl(cfg)
    assert reports_ok(reports)
    lam1 = [r for r in reports if r.relation_id == "eq1a-scalar[m=1]"][0]
    lam2 = [r for r in reports if r.relation_id == "eq1a-scalar[m=2]"][0]
    assert lam1.params["lambda"][0] == pytest.approx(2.0, abs=1e-10)
    assert lam2.params["lambda"][0] == pytest.approx(4.0, abs=1e-10)
    lin = [r for r in reports if r.relation_id == "eq1a-linearity"][0]
    assert lin.residual <= 1e-8
    cocycle = [r for r in reports if r.relation_id.startswith("eq1c")]
    assert cocycle and all(r.satisfied for r in cocycle)


def test_suite_cartan_weyl_builds_each_generator_once(memo_builds, monkeypatch):
    """eq6-cw, eq1b at m = 0 and the cocycle chains share the simple-root
    labels: a suite call builds each simple-root generator once and keeps it
    for the call; a Cartan-Weyl operator never enters the basis memo, so
    another run builds them again."""
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    built, build = [], verify.cartan_weyl_generators
    monkeypatch.setattr(verify, "cartan_weyl_generators",
                        lambda basis, label: built.append(label) or build(basis, label))
    simple = [cartan_data(cfg.M, cfg.N).simple_root_label(al) for al in range(cfg.R + 1)]
    for nu in (0.3, 0.2):
        built.clear()
        run_suites(dataclasses.replace(cfg, nu=nu))
        counts = Counter(built)
        assert all(counts[label] == 1 for label in simple), counts
        assert len(counts) > len(simple)
    assert not [key for _, key in memo_builds if key[0] in ("e", "h")]


@pytest.mark.parametrize("suite", [suite_oscillators])
def test_q_free_reports_are_made_once_per_basis_tol_and_corruption(suite, monkeypatch):
    """Another nu returns a fresh list of the same reports without a check;
    another corruption or tol checks again."""
    calls = []
    check_family = SuiteReports.check_family
    monkeypatch.setattr(SuiteReports, "check_family",
                        lambda self, *a, **kw: calls.extend(a[0]) or check_family(self, *a, **kw))
    _cached_basis.cache_clear()
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3)
    first = suite(cfg)
    q_free = [r for r in first if not r.relation_id.startswith(("eq49", "eq50"))]
    assert q_free and calls
    calls.clear()
    again = suite(dataclasses.replace(cfg, nu=0.2))
    assert again is not first and again[:len(q_free)] == q_free
    assert all(a is b for a, b in zip(q_free, again))
    assert all(rid.startswith(("eq49", "eq50")) for rid in calls)
    first.clear()
    assert suite(cfg)[:len(q_free)] == q_free
    for other in (dataclasses.replace(cfg, tol=1e-11),
                  dataclasses.replace(cfg, corruption=Corruption(drop_h0_delta=True))):
        calls.clear()
        rerun = suite(other)
        assert calls and not any(a is b for a, b in zip(q_free, rerun))


@pytest.mark.parametrize("name", verify.Q_FREE)
def test_sampled_q_free_reports_are_the_base_reports(name, monkeypatch):
    """A run checks a suite that reads no q once: at each sampled nu it holds
    a fresh list of the very report objects of the base key, under every
    corruption."""
    calls = []
    check_family = SuiteReports.check_family
    monkeypatch.setattr(SuiteReports, "check_family",
                        lambda self, *a, **kw: calls.extend(a[0]) or check_family(self, *a, **kw))
    for corruption in (Corruption(), Corruption(drop_h0_delta=True)):
        cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3, corruption=corruption)
        run_suites(cfg, [name])
        once = list(calls)
        calls.clear()
        out = run_suites(cfg, [name], q_samples=2)
        assert calls == once and once
        calls.clear()
        base = out.pop(name)
        assert list(out) == [f"{name}@nu={nu:.6f}" for nu in verify._nu_samples(cfg, 2)]
        for sampled in out.values():
            assert sampled is not base and len(sampled) == len(base)
            assert all(a is b for a, b in zip(sampled, base))


def test_classical_keeps_the_operators_that_read_no_q(memo_builds):
    """suite_classical_limit builds sets at and near q = 1 on the shared basis;
    the operators of the basis's config outlive them, so suite_cartan_weyl
    builds nothing after it."""
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    suite_cartan_weyl(cfg)
    assert memo_builds
    suite_classical_limit(cfg)
    memo_builds.clear()
    assert reports_ok(suite_cartan_weyl(cfg))
    assert memo_builds == []


def test_cocycle_projector_label_names_headroom():
    # a composition with an odd root runs under headroom 1; the label says so
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    cocycle = [r for r in suite_cartan_weyl(cfg)
               if r.relation_id.startswith("eq1c") and r.applicable]
    assert cocycle
    for r in cocycle:
        assert r.projector == "margin=1,headroom=1"


def test_cocycle_pivot_equals_dense_argmax():
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    basis = cached_basis(cfg)
    ct = cartan_data(cfg.M, cfg.N)
    r1, r2 = ct.simple_root_label(cfg.R), ct.simple_root_label(0)
    P = bulk_projector(basis, 1, 1)
    Z = (P @ cartan_weyl_generators(basis, compose_roots(r1, r2)) @ P).tocsr()
    assert Z.nnz
    dense = np.abs(Z.toarray())
    assert _largest_entry(Z) == np.unravel_index(np.argmax(dense), dense.shape)

    # unsorted columns and ties: the first maximum in row-major order wins;
    # duplicates are summed first, as in the dense matrix
    for data, indices, indptr in (([3, -3, 3j], [2, 0, 0], [0, 2, 2, 3]),
                                  ([3, -3, 2, 2, 3j], [2, 0, 1, 1, 0], [0, 2, 4, 5])):
        Z = sp.csr_matrix((np.array(data, dtype=complex), np.array(indices),
                           np.array(indptr)), shape=(3, 3))
        dense = np.abs(Z.toarray())
        before = [a.copy() for a in (Z.data, Z.indices, Z.indptr)]
        assert _largest_entry(Z) == np.unravel_index(np.argmax(dense), dense.shape)
        assert all(np.array_equal(a, b) for a, b in zip((Z.data, Z.indices, Z.indptr), before))


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("cfg", [LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3),
                                 LatticeConfig(M=2, N=2, S=2, n_max=1, q_real=1.3),
                                 LatticeConfig(M=2, N=1, S=2, n_max=4, q_real=10.0)],
                         ids=["M2N1S2", "M2N2S2-q1.3", "q10"])
def test_the_checks_that_cannot_fail_read_exactly_zero(cfg, control):
    """eq30, limit-q1 and limit-qbracket hold by IEEE arithmetic, not by the
    algebra, so they read exactly 0.0 under every negative control: an entry
    of eq30 is one product and ``*`` and ``+`` commute; q_power(1, x) is 1
    and q_number(n, 1) is n, so the dressed pieces at q = 1 are the plain
    ones and [h]_1 is h."""
    cfg = dataclasses.replace(cfg, corruption=CONTROLS[control])
    _cached_basis.cache_clear()
    reports = [r for rs in run_suites(cfg, ["oscillators", "classical"]).values() for r in rs]
    exact = [r for r in reports
             if r.relation_id.startswith("eq30[") or r.relation_id in ("limit-q1", "limit-qbracket")]
    assert len(exact) == 2 + sum(r.relation_id.startswith("eq30[") for r in reports) > 2
    assert all(r.residual == 0.0 and r.passed for r in exact), [
        (r.relation_id, r.residual) for r in exact if r.residual]


def test_restrict_never_returns_an_operand():
    """A lone unmasked matrix, or one product of one factor, is its own sum:
    restrict returns an equal copy, so a caller that sorts or sums its result
    in place changes no operand (operators share their arrays)."""
    x = sp.csr_matrix((np.array([3, -3, 1j]), np.array([1, 0, 1]), np.array([0, 2, 3])),
                      shape=(2, 2))
    for terms in (x, [(1, x)], [(1, x, sp.csr_matrix((2, 2), dtype=complex)), (1, x)]):
        for mask, side in ((None, "both"), (None, "right")):
            got = restrict(terms, mask, side)
            assert got is not x and not any(np.shares_memory(a, b) for a in (
                got.data, got.indices, got.indptr) for b in (x.data, x.indices, x.indptr))
            assert _hex_entries(got) == _hex_entries(x)


def test_limit_slope_sets_are_not_cached(memo_builds):
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3)
    suite_classical_limit(cfg)
    # no set: the limit is read off the local pieces of the sets at and near q = 1
    assert [key for _, key in memo_builds if key[0] == "set"] == []


def test_run_suites_releases_a_q_after_its_last_reader(monkeypatch):
    """run_suites releases the basis memo once no later suite of a pass reads
    the pass's q: a suite of ``Q_FREE``, or ``classical``, that starts after
    the last suite that reads it finds only the basis's config there, and a
    suite that reads it after another finds what that one built."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3)
    _cached_basis.cache_clear()
    basis = cached_basis(cfg)
    starts = []
    for name, suite in SUITES.items():
        monkeypatch.setitem(SUITES, name, lambda at, name=name, suite=suite: (
            starts.append((name, at, set(basis._memo))) or suite(at)))

    def reads_q(name):
        return name not in Q_FREE and name != "classical"

    for names in (list(SUITES), [s for s in SUITES if s != "classical"],
                  ["oscillators", "central", "cartanweyl"], ["classical", "central"]):
        starts.clear()
        run_suites(cfg, names, q_samples=1)
        passes = defaultdict(list)
        for name, at, held in starts:
            passes[at].append((name, held))
        assert len(passes) == 1 + any(map(reads_q, names))
        for at, run in passes.items():
            readers = [i for i, (name, _) in enumerate(run) if reads_q(name)]
            for i, (name, held) in enumerate(run):
                if i > max(readers, default=-1):
                    assert held == {basis.cfg}, (names, name)
                elif i > readers[0]:
                    assert at in held, (names, name)
        assert set(basis._memo) == {basis.cfg}


@pytest.mark.parametrize("control", CONTROLS)
def test_each_suite_alone_gives_the_full_run_reports(control):
    """A suite's reports do not depend on what an earlier suite left in the
    memo: each suite run alone on a fresh basis gives the full run's reports,
    every float equal by float.hex."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3, corruption=CONTROLS[control])
    _cached_basis.cache_clear()
    full = run_suites(cfg)
    for name in SUITES:
        _cached_basis.cache_clear()
        alone = run_suites(cfg, [name])
        assert _hex_fields(alone[name]) == _hex_fields(full[name]), name


def test_cartan_weyl_operators_live_for_the_check_that_reads_them(monkeypatch):
    """cartanweyl keeps the simple-root generators for its call; every other
    e_root^m and h_a^m it builds is freed once the check that reads it is
    made, so none is alive when a later report is recorded."""
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3)
    simple = {cartan_data(cfg.M, cfg.N).simple_root_label(al) for al in range(cfg.R + 1)}
    built, alive = [], []
    for name in ("cartan_weyl_generators", "cartan_weyl_h"):
        monkeypatch.setattr(verify, name, lambda basis, *key, build=getattr(verify, name): (
            built.append((key, weakref.ref(op := build(basis, *key)))) or op))
    record = SuiteReports.record
    monkeypatch.setattr(SuiteReports, "record", lambda self, rid, *a, **kw: alive.extend(
        (rid, key) for key, ref in built if ref() is not None and key[0] not in simple)
        or record(self, rid, *a, **kw))
    reports = suite_cartan_weyl(cfg)
    assert {key for key, _ in built} > {(label,) for label in simple}
    assert any(r.relation_id.startswith("eq1c-cocycle") and r.applicable for r in reports)
    assert any(r.relation_id.startswith("eq1a-scalar") for r in reports) and alive == []


def test_script_e_is_built_once_per_deformed_set(memo_builds, monkeypatch):
    """The rescaled generators live for a Serre suite call, held by its copy
    of the deformed set: the quantum and Serre suites at two nu build each
    one once per nu, none enters the basis memo, and the kept set holds none."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3)
    built, scale = [], algebra.scale_columns
    monkeypatch.setattr(algebra, "scale_columns", lambda x, v: built.append(x) or scale(x, v))
    for nu in (0.3, 0.2):
        at = dataclasses.replace(cfg, nu=nu)
        gs, built[:] = cached_generators(at, True), []
        run_suites(at, ["quantum", "serre"])
        assert len(built) == len(gs.E) and {*map(id, built)} == {*map(id, gs.E.values())}, nu
        assert gs._script == {}
    assert not [key for _, key in memo_builds if key[0] == "script"]
    assert gs.script_e(0, "+") is gs.script_e(0, "+")


def test_a_corruption_shares_no_basis_and_no_memo_entry(memo_builds):
    """Two configs that differ only in corruption have two bases: each run
    builds every memo entry it reads on its own basis, none is shared."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3)
    control = dataclasses.replace(cfg, corruption=Corruption(flip_boson_disorder=True))
    run_suites(cfg)
    plain = list(memo_builds)
    memo_builds.clear()
    run_suites(control)
    assert {at.corruption for at, _ in plain} == {cfg.corruption}
    assert {at.corruption for at, _ in memo_builds} == {control.corruption}
    assert Counter(key for _, key in memo_builds) == Counter(key for _, key in plain)
    bases = cached_basis(cfg), cached_basis(control)
    assert bases[0] is not bases[1]
    assert not set(bases[0]._memo) & set(bases[1]._memo)
    held = [{id(v) for ops in b._memo.values() for v in ops.values()} for b in bases]
    assert held[0] and not held[0] & held[1]


def test_a_dropped_basis_is_freed_without_the_cyclic_collector():
    """A generator set holds no basis, so the sets in a basis's memo make no
    reference cycle: with the cyclic collector off, a basis the cache drops
    is freed once no other reference holds it."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3)
    _cached_basis.cache_clear()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_suites(cfg, ["quantum", "serre", "undeformed"])
        cached_generators(cfg, False), cached_generators(cfg, True)
        basis = weakref.ref(cached_basis(cfg))
        _cached_basis.cache_clear()
        assert basis() is None
    finally:
        if enabled:
            gc.enable()


def test_one_basis_per_geometry(monkeypatch):
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=1, nu=0.3)
    assert cached_basis(cfg) is cached_basis(dataclasses.replace(cfg, nu=0.2))
    assert cached_basis(cfg) is cached_basis(
        dataclasses.replace(cfg, nu=None, q_real=1.3))

    built = []
    monkeypatch.setattr(fock, "build_basis",
                        lambda c: built.append(c) or fock.FockBasis(c))
    _cached_basis.cache_clear()
    for nu in (0.3, 0.2):
        run_suites(dataclasses.replace(cfg, nu=nu))
    assert len(built) == 1


def test_cocycle_is_vacuous_on_small_bulks():
    """Where the bulk leaves no room, every eq1c-cocycle chain is n/a: S = 2
    with margin 1 pins both sites to the vacuum, and at N = 2, n_max = 1
    headroom 1 leaves no bosons.  Only M2N1S4 n_max 1 reads a constant."""
    vacuous = [dict(M=2, N=1, S=2, n_max=2), dict(M=2, N=2, S=2, n_max=2),
               dict(M=3, N=2, S=2, n_max=2), dict(M=1, N=2, S=2, n_max=2),
               dict(M=2, N=2, S=4, n_max=1)]
    for kw in vacuous:
        cocycle = [r for r in suite_cartan_weyl(LatticeConfig(nu=0.3, **kw))
                   if r.relation_id.startswith("eq1c-cocycle")]
        assert cocycle, kw
        for r in cocycle:
            assert not r.applicable, (kw, r.relation_id)
            assert r.params["reason"] == "target vanishes on the bulk"
    for ordering in ("sea", "empty"):
        cfg = LatticeConfig(M=2, N=1, S=4, n_max=1, nu=0.3, ordering=ordering)
        applicable = [r.relation_id for r in suite_cartan_weyl(cfg)
                      if r.relation_id.startswith("eq1c-cocycle") and r.applicable]
        assert applicable == ["eq1c-cocycle[eps2-delta1:m=0,delta1-eps1:m=1]"]


def test_truncation_robustness_larger_lattice():
    """Going from S=2 to S=4 must not push bulk residuals above tol.

    One documented exception: the affine-affine pairing eq7c[0,0] under the
    sea ordering.  Its string tails inherit the +1 normal-ordering constant
    of the negative-site bosons, leaving a per-bond scalar that cutoff Fock
    bosons cannot absorb; the deep-bulk matrix element is q^{-1} instead of
    [H_0]_q.  Under the empty ordering the tails are coherent and the
    relation holds at any size.
    """
    cfg = LatticeConfig(M=2, N=1, S=4, n_max=2, nu=0.3)
    for suite in ("coproduct", "central"):
        reports = run_suites(cfg, [suite])[suite]
        assert reports_ok(reports), suite
    quantum = run_suites(cfg, ["quantum"])["quantum"]
    bad = [r for r in quantum if not r.satisfied]
    assert [r.relation_id for r in bad] == ["eq7c[0,0]"]
    assert bad[0].residual == pytest.approx(abs(1 - 1 / cfg.q), abs=1e-12)
    cfg_e = LatticeConfig(M=2, N=1, S=4, n_max=2, nu=0.3, ordering="empty")
    for suite in ("quantum", "coproduct", "central"):
        reports = run_suites(cfg_e, [suite])[suite]
        assert reports_ok(reports), suite


def _eq7c_observed_form(cfg):
    """|1 - q^-1| max_{1 <= k <= S/2 - 1} |[k]_q|, 0 at S = 2."""
    q = cfg.q
    return abs(1 - 1 / q) * max((abs(fock.q_number(k, q)) for k in range(1, cfg.S // 2)),
                                default=0.0)


@pytest.mark.parametrize("spec", [
    dict(M=2, N=1, S=2, n_max=2, nu=0.3),
    dict(M=2, N=1, S=2, n_max=2, nu=0.3, K=2),
    dict(M=2, N=1, S=4, n_max=1, nu=0.1),
    dict(M=2, N=1, S=4, n_max=2, nu=0.2),
    dict(M=2, N=1, S=4, n_max=1, nu=0.7),
    dict(M=1, N=2, S=4, n_max=1, nu=0.3),
    dict(M=2, N=1, S=4, n_max=1, q_real=1.3),
    dict(M=2, N=1, S=4, n_max=1, q_real=0.7),
    dict(M=2, N=1, S=6, n_max=1, nu=0.2),
    dict(M=1, N=2, S=6, n_max=1, nu=0.85),
], ids=lambda spec: "-".join(f"{k}{v}" for k, v in spec.items()))
def test_eq7c_affine_pairing_residual_observed_form(spec):
    """Under the sea ordering the eq7c[0,0] residual is |1 - q^-1| times the
    largest |[k]_q| for 1 <= k <= S/2 - 1: an observed form, not a derived
    one.  At S = 4 it is |1 - q^-1| for real q too; at S = 6 real q departs
    from it below q = 1 (README, known truncation limits)."""
    cfg = LatticeConfig(dim_cap=300_000, **spec)
    (r,) = [r for r in suite_quantum(cfg) if r.relation_id == "eq7c[0,0]"]
    assert r.residual == pytest.approx(_eq7c_observed_form(cfg), abs=1e-12)
    assert r.satisfied == (cfg.S == 2)


@pytest.mark.parametrize("spec", [
    *(dict(M=2, N=2, S=2, nu=nu) for nu in (0.15, 0.3, 0.45, 0.7)),
    *(dict(M=3, N=2, S=2, nu=nu) for nu in (0.15, 0.7)),
    dict(M=2, N=2, S=4, nu=0.45),
], ids=lambda spec: "-".join(f"{k}{v}" for k, v in spec.items()))
def test_node_m_quartic_image_residual_observed_form(spec):
    """At n_max 1 and N >= 2, eq9-alphaM-img[-] reads |[2]_q| = |q + q^-1|
    and its [+] passes: an observed form, not a derived one.  The headroom
    min(2, n_max) = 1 is below the two boson raisings of the word.  At n_max 2
    both pass (README, known truncation limits)."""
    cfg = LatticeConfig(n_max=1, **spec)
    reps = {r.relation_id: r for r in suite_serre(cfg)}
    minus, plus = reps["eq9-alphaM-img[-]"], reps["eq9-alphaM-img[+]"]
    assert minus.residual == pytest.approx(abs(fock.q_number(2, cfg.q)), rel=1e-12)
    assert not minus.passed and plus.passed
    if cfg.S == 2 and spec["nu"] < 0.5:  # n_max 2 needs [2]_q > 0
        reps = {r.relation_id: r for r in suite_serre(dataclasses.replace(cfg, n_max=2))}
        assert reps["eq9-alphaM-img[-]"].passed and reps["eq9-alphaM-img[+]"].passed


# ---------------------------------------------------------------------------
# sensitivity and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("corruption,expect_in", [
    (Corruption(flip_q_alpha=True), "coproduct"),
    (Corruption(drop_h0_delta=True), "central"),
    (Corruption(flip_boson_disorder=True), "braiding"),
])
def test_negative_controls_trip_suites(cfg21, corruption, expect_in):
    out = run_suites(dataclasses.replace(cfg21, corruption=corruption))
    failing = {name for name, reps in out.items() if not reports_ok(reps)}
    assert expect_in in failing


def test_run_suites_deterministic(cfg21):
    r1 = run_suites(cfg21, ["quantum", "braiding"])
    r2 = run_suites(cfg21, ["quantum", "braiding"])
    for name in r1:
        assert [(a.relation_id, a.residual) for a in r1[name]] == \
               [(a.relation_id, a.residual) for a in r2[name]]


def test_run_suites_rejects_unknown(cfg21):
    with pytest.raises(KeyError):
        run_suites(cfg21, ["nope"])


@settings(max_examples=8, deadline=None)
@given(st.floats(0.0, 2.0))
def test_pass_status_invariant_under_unit_rescaling(theta):
    """Rescaling E^+- by u^{+-1} with |u| = 1 leaves every relation's
    pass/fail status unchanged."""
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3)
    gs = cached_generators(cfg, True)
    ct = gs.cartan
    u = np.exp(1j * np.pi * theta)
    basis = cached_basis(cfg)
    P = bulk_projector(basis, 1, 1)
    for al in range(cfg.R + 1):
        Ep = u * gs.E[(al, "+")]
        Em = gs.E[(al, "-")] / u
        lhs = restrict(supercommutator(Ep, Em, ct.parity[al], ct.parity[al]))
        rhs = diag_operator(q_bracket(gs.h(al), gs.q_alpha(al)))
        assert residual_norm(P @ (lhs - rhs) @ P) <= cfg.tol
        comm = gs.H[al] @ Ep - Ep @ gs.H[al] - ct.a[al][al] * Ep
        proj = P if al == 0 else None
        r = residual_norm(P @ comm @ P if proj is not None else comm)
        assert r <= cfg.tol


def test_catalog_covers_required_ids():
    ids = {rid for _, rid, _, _ in CATALOG}
    assert {"eq7c", "eq9-alpha0-cyclic", "eq9-alpha0-skip"} <= ids
    tags = {rid: tag for _, rid, tag, _ in CATALOG}
    assert tags["eq7c"] == "Eq. (7c)"
    assert set(SUITES) == {s for s, _, _, _ in CATALOG}


def test_catalog_is_exactly_what_the_suites_emit():
    emitted = set()
    for N in (1, 2):
        cfg = LatticeConfig(M=2, N=N, S=2, n_max=2, nu=0.3)
        for suite, reps in run_suites(cfg).items():
            emitted |= {(suite, r.relation_id.split("[", 1)[0], r.equation)
                        for r in reps}
    assert emitted == {(suite, fid, tag) for suite, fid, tag, _ in CATALOG}
    assert len({(suite, fid) for suite, fid, _, _ in CATALOG}) == len(CATALOG)


def test_undeclared_family_raises_at_emission(cfg21):
    out = SuiteReports("quantum", cfg21.tol)
    out.not_applicable("eq7d", "declared")
    with pytest.raises(KeyError, match="eq2d"):
        out.not_applicable("eq2d[0,+]", "declared for another suite")
    with pytest.raises(KeyError, match="eq99"):
        out.record("eq99", 0.0)
    assert [r.equation for r in out.reports] == ["Eq. (7d)"]


def test_serre_projector_label_names_the_headroom_at_nmax_one():
    """At n_max = 1 the Serre-type projector keeps headroom 1, not 2."""
    cfg = LatticeConfig(M=2, N=2, S=2, n_max=1, nu=0.3)
    out = run_suites(cfg, ["serre", "undeformed"])
    labelled = [r for reps in out.values() for r in reps
                if r.relation_id.startswith(("eq3[", "eq4-", "eq8[", "eq9-alpha"))
                and r.applicable and not r.relation_id.startswith("eq9-alphaM-img")]
    assert {r.relation_id[:3] for r in labelled} == {"eq3", "eq4", "eq8", "eq9"}
    assert {r.projector for r in labelled} == {"margin=2,headroom=1"}
