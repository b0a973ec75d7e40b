import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superjordan.algebra import (
    DuplicateProduct,
    GradingViolation,
    IdentityReport,
    NonHomogeneousArgument,
    SquareOfOdd,
    apply_graded_change,
    check_super_jordan,
    default_basis_order,
    direct_sum,
    flatten,
    graded_table,
    jordan_defect,
    load,
    power_filtration,
    product_groups,
    product_row,
    unflatten,
)

from superjordan import algebra

from conftest import perturb_entry, ratfun_inverse, supercommutativity_violations

ONE = Fraction(1)
HALF = Fraction(1, 2)


def J(name, products, mn=(1, 3)):
    return load(products, mn, name=name)


@pytest.fixture(scope="module")
def j1():
    return J("J1", [("f1", "f2", [(ONE, "e")])])


@pytest.fixture(scope="module")
def j5():
    return J("J5", [("e", "f1", [(ONE, "f2")]), ("f2", "f3", [(ONE, "e")])])


def test_load_completes_supercommutativity(j1):
    assert j1.delta[0][1][0] == 1
    assert j1.delta[1][0][0] == -1
    assert not supercommutativity_violations(j1)


def test_supercommutativity_violations_name_the_constant():
    t = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    t[0][1][1] = ONE  # e f = f, but f e = 0
    t[1][1][0] = ONE  # f f = e, a nonzero odd square
    bad = unflatten(t, 1, 1)
    assert supercommutativity_violations(bad) == ["e*f != f*e at f", "f*f != -f*f at e"]
    rep = check_super_jordan(bad)
    assert not rep.ok and not rep.supercommutative
    assert rep.detail == "e*f != f*e at f; f*f != -f*f at e"


def test_load_zero_algebra():
    z = load([], (2, 2))
    assert all(
        z.alpha[i][j][k] == 0 for i in range(2) for j in range(2) for k in range(2)
    )
    assert check_super_jordan(z).ok


def test_load_grading_violation():
    with pytest.raises(GradingViolation):
        load([("e", "f1", [(ONE, "e")])], (1, 3))


def test_load_square_of_odd():
    with pytest.raises(SquareOfOdd):
        load([("f1", "f1", [(ONE, "e")])], (1, 3))


def test_load_duplicate_conflict():
    with pytest.raises(DuplicateProduct):
        load(
            [("f1", "f2", [(ONE, "e")]), ("f2", "f1", [(ONE, "e")])],
            (1, 3),
        )
    # consistent duplicate listing is fine
    both = load(
        [("f1", "f2", [(ONE, "e")]), ("f2", "f1", [(Fraction(-1), "e")])],
        (1, 3),
    )
    assert both.delta[0][1][0] == 1


def test_multiply_examples(j1):
    f1, f2 = j1.basis_element("f1"), j1.basis_element("f2")
    assert j1.multiply(f1, f2) == (ONE, 0, 0, 0)
    assert j1.multiply(f2, f1) == (Fraction(-1), 0, 0, 0)
    zero = tuple(0 * x for x in f1)
    assert not any(j1.multiply(zero, f2))


def test_jordan_defect_examples(j1):
    bad = load([("e", "e", [(ONE, "e")]), ("e", "f", [(Fraction(2), "f")])], (1, 1))
    e, f = bad.basis_element("e"), bad.basis_element("f")
    assert any(jordan_defect(bad, e, e, e, f))
    z = load([], (1, 1))
    assert not any(jordan_defect(z, *(z.basis_element("e"),) * 3, z.basis_element("f")))
    j15 = load(
        [("e", "e", [(ONE, "e")])] + [("e", f"f{i}", [(HALF, f"f{i}")]) for i in (1, 2, 3)],
        (1, 3),
    )
    e = j15.basis_element("e")
    assert not any(jordan_defect(j15, e, e, e, j15.basis_element("f1")))


def test_jordan_defect_rejects_mixed_parity(j1):
    mixed = (ONE, ONE, Fraction(0), Fraction(0))
    e = j1.basis_element("e")
    with pytest.raises(NonHomogeneousArgument):
        jordan_defect(j1, mixed, e, e, e)


@given(st.integers(min_value=-3, max_value=3), st.data())
@settings(max_examples=30, deadline=None)
def test_jordan_defect_multilinear(c, data):
    j5 = J("J5", [("e", "f1", [(ONE, "f2")]), ("f2", "f3", [(ONE, "e")])])
    labels = j5.labels()
    picks = [data.draw(st.sampled_from(labels)) for _ in range(4)]
    args = [j5.basis_element(lab) for lab in picks]
    scaled = [a for a in args]
    slot = data.draw(st.integers(min_value=0, max_value=3))
    scaled[slot] = tuple(Fraction(c) * x for x in scaled[slot])
    base = jordan_defect(j5, *args)
    expect = tuple(Fraction(c) * x for x in base)
    assert jordan_defect(j5, *scaled) == expect


def test_check_super_jordan_reports_first_violation():
    bad = load([("e", "e", [(ONE, "e")]), ("e", "f", [(Fraction(2), "f")])], (1, 1))
    rep = check_super_jordan(bad)
    assert not rep.ok and rep.violation == ("e", "e", "e", "f")


def _reference_check(J):
    """The graded identity through ``jordan_defect`` on every basis quadruple,
    in label order: the oracle for ``check_super_jordan``."""
    sviol = supercommutativity_violations(J)
    if sviol:
        return IdentityReport(False, False, detail="; ".join(sviol[:3]))
    labels = J.labels()
    basis = {lab: J.basis_element(lab) for lab in labels}
    for a in labels:
        for b in labels:
            for c in labels:
                for d in labels:
                    defect = jordan_defect(J, basis[a], basis[b], basis[c], basis[d])
                    if any(defect):
                        return IdentityReport(
                            False,
                            True,
                            violation=(a, b, c, d),
                            defect=defect,
                            detail=f"J({a},{b},{c},{d}) != 0",
                        )
    return IdentityReport(True, True)


def _oracle_entries(catalog):
    """Jc16 (symbolic) plus the first entry of each type and summand count."""
    picked = {}
    for name in catalog.names():
        entry = catalog.entry(name)
        dec = entry.decomposition or ""
        summands = 1 if dec == "Indecomposable" else len(dec.split("+"))
        picked.setdefault((entry.mn, summands), name)
    return sorted(set(picked.values()) | {"Jc16"})


def test_identity_kernel_matches_reference(catalog):
    names = _oracle_entries(catalog)
    assert {catalog.entry(n).mn for n in names} == {(1, 3), (2, 2), (3, 1)}
    tables = list(catalog.lowdim.values()) + [catalog.entry(n).algebra for n in names]
    for J in tables:
        assert check_super_jordan(J) == _reference_check(J), J.name
    perturbed = [perturb_entry(catalog, n, seed) for n in names for seed in (0, 1, 2)]
    for J in perturbed:
        assert check_super_jordan(J) == _reference_check(J), J.name
    broken = sum(not check_super_jordan(J).ok for J in perturbed)
    assert 2 * broken >= len(perturbed)


def _six_terms(J, x, y, z, t, flipped):
    """The six-term defect of ``jordan_defect`` written out again on basis
    vectors, with the sign of term number ``flipped`` (if any) negated."""
    px, py, pz, pt = (int(any(v[J.m :])) for v in (x, y, z, t))
    mul = J.multiply
    terms = [
        (1, mul(mul(mul(x, y), z), t)),
        ((-1) ** (py * pz + py * pt + pz * pt), mul(mul(mul(x, t), z), y)),
        ((-1) ** (px * py + px * pz + px * pt + pz * pt), mul(mul(mul(y, t), z), x)),
        (-1, mul(mul(x, y), mul(z, t))),
        (-((-1) ** (pt * (py + pz))), mul(mul(x, t), mul(y, z))),
        (-((-1) ** (py * pz)), mul(mul(x, z), mul(y, t))),
    ]
    if flipped is not None:
        terms[flipped] = (-terms[flipped][0], terms[flipped][1])
    return tuple(sum((sign * w[k] for sign, w in terms), Fraction(0)) for k in range(J.dim))


def _sign_rule_breaks(J, defect):
    """The basis quadruples (a, b, c, d), as positions, on which ``defect``
    breaks J(y,x,z,t) = (-1)^{|x||y|} J(x,y,z,t) or
    J(x,t,z,y) = (-1)^{|y||t|+|y||z|+|z||t|} J(x,y,z,t)."""
    basis = [J.basis_element(lab) for lab in J.labels()]
    par = [int(k >= J.m) for k in range(J.dim)]
    quads = list(itertools.product(range(J.dim), repeat=4))
    D = {q: defect(J, *(basis[k] for k in q)) for q in quads}
    breaks = []
    for a, b, c, d in quads:
        px, py, pz, pt = par[a], par[b], par[c], par[d]
        here = D[a, b, c, d]
        swap_xy = tuple((-1) ** (px * py) * v for v in here)
        swap_yt = tuple((-1) ** (py * pt + py * pz + pz * pt) * v for v in here)
        if D[b, a, c, d] != swap_xy or D[a, d, c, b] != swap_yt:
            breaks.append((a, b, c, d))
    return breaks


def test_defect_is_supersymmetric_in_x_y_t(catalog):
    # the premise of the orbit loop in check_super_jordan, on every basis
    # quadruple of supercommutative tables that pass and that fail
    names = _oracle_entries(catalog)
    lowdim = [J for J in catalog.lowdim.values() if J.m and J.n]
    perturbed = [perturb_entry(catalog, n, seed) for n in names for seed in (0, 1, 2)]
    tables = lowdim + [catalog.entry(n).algebra for n in names] + perturbed
    assert "Jc16" in names and catalog.entry("Jc16").is_family  # over Q(t)
    for J in tables:
        assert _sign_rule_breaks(J, jordan_defect) == [], J.name
    # the first failing quadruple is sorted at the positions of x, y and t
    failing = [check_super_jordan(J) for J in perturbed]
    failing = [(J, rep) for J, rep in zip(perturbed, failing) if not rep.ok]
    assert 2 * len(failing) >= len(perturbed)
    for J, rep in failing:
        a, b, _, d = (J.labels().index(lab) for lab in rep.violation)
        assert a <= b <= d, (J.name, rep.violation)
    # the control: the copy of the six terms is the defect, and with one
    # sign flipped it breaks a rule
    bad = failing[0][0]
    for q in itertools.product([bad.basis_element(lab) for lab in bad.labels()], repeat=4):
        assert _six_terms(bad, *q, flipped=None) == jordan_defect(bad, *q)
    assert any(_sign_rule_breaks(J, functools.partial(_six_terms, flipped=4)) for J in tables)


def test_identity_loop_runs_once_per_orbit(catalog, monkeypatch):
    # d * C(d+2, 3) quadruples of six products each: 80 of the 256 at d = 4
    counts = {"add": 0, "sparse": 0}
    add, sparse = algebra._add_product, algebra._sparse_product

    def count_add(*args):
        counts["add"] += 1
        return add(*args)

    def count_sparse(*args):
        counts["sparse"] += 1
        return sparse(*args)

    monkeypatch.setattr(algebra, "_add_product", count_add)
    monkeypatch.setattr(algebra, "_sparse_product", count_sparse)
    cases = ((catalog.entry("J15").algebra, 80), (catalog.lowdim["S1_3"], 30), (catalog.lowdim["S1_2"], 8))
    for J, quads in cases:
        counts.update(add=0, sparse=0)
        assert check_super_jordan(J).ok, J.name
        # each sparse triple product (e_a e_b) e_c is one _add_product call
        assert counts["add"] - counts["sparse"] == 6 * quads, J.name


def _product_step_misses(J, table, seed):
    """The pairs (u, v) on which ``product_row`` over the constants of
    ``table`` differs from J.multiply, the block product: every pair of
    basis vectors and five seeded pairs of int vectors."""
    d = J.dim
    rng = random.Random(seed)
    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    pairs = [(u, v) for u in unit for v in unit] + [
        ([rng.randint(-3, 3) for _ in range(d)], [rng.randint(-3, 3) for _ in range(d)]) for _ in range(5)
    ]
    groups = product_groups(table)
    misses = []
    for u, v in pairs:
        if product_row(groups, u, v, Fraction(0)) != list(J.multiply(u, v)):
            misses.append((u, v))
    return misses


def _rational_tables(catalog):
    return list(catalog.lowdim.values()) + [J for name in catalog.entries for J in catalog.instances(name)]


def test_product_row_is_the_block_product(catalog):
    # every rational catalog instance and every low-dimensional table
    tables = _rational_tables(catalog)
    assert len(tables) > 149
    for i, J in enumerate(tables):
        assert _product_step_misses(J, graded_table(J)[0], i) == [], J.name


def test_product_row_check_sees_one_perturbed_constant(catalog):
    # the control: one constant changed in the table product_row reads
    rng = random.Random(0)
    for i, J in enumerate(_rational_tables(catalog)):
        table = [[list(row) for row in plane] for plane in graded_table(J)[0]]
        a, b, k = (rng.randrange(J.dim) for _ in range(3))
        table[a][b][k] += 1
        assert _product_step_misses(J, table, i), J.name


def test_square_examples(j1, j5):
    # J^2, the span of all products, with its even and odd dimensions
    assert power_filtration(j1)[:2] == ((1, 3), (1, 0))
    assert power_filtration(load([], (2, 2)))[:2] == ((2, 2), (0, 0))
    assert power_filtration(j5)[:2] == ((1, 3), (1, 1))


def test_power_filtration_examples(j1):
    assert power_filtration(j1)[:3] == ((1, 3), (1, 0), (0, 0))
    z = load([], (2, 2))
    assert power_filtration(z)[:3] == ((2, 2), (0, 0), (0, 0))
    j18 = load(
        [("e", "e", [(ONE, "e")])] + [("e", f"f{i}", [(ONE, f"f{i}")]) for i in (1, 2, 3)],
        (1, 3),
    )
    assert power_filtration(j18)[:3] == ((1, 3), (1, 3), (1, 3))


def test_flatten_examples(j1, j5):
    order = default_basis_order(1, 3)
    assert order == ["f1", "f2", "f3", "e"]
    t = flatten(j1)
    nz = [
        (a, b, k)
        for a in range(4)
        for b in range(4)
        for k in range(4)
        if t[a][b][k] != 0
    ]
    assert nz == [(0, 1, 3), (1, 0, 3)]
    assert t[0][1][3] == 1 and t[1][0][3] == -1
    z = load([], (1, 3))
    assert all(x == 0 for plane in flatten(z) for row in plane for x in row)
    t5 = flatten(j5)
    assert sum(1 for p in t5 for r in p for x in r if x != 0) == 4


def test_direct_sum_blocks():
    u1 = load([("e", "e", [(ONE, "e")])], (1, 0))
    s11 = load([], (0, 1))
    s = direct_sum(u1, s11)
    assert (s.m, s.n) == (1, 1)
    assert s.alpha[0][0][0] == 1
    assert check_super_jordan(s).ok


def test_apply_graded_change_identity(j5):
    ident2 = [[ONE if i == j else Fraction(0) for j in range(1)] for i in range(1)]
    ident3 = [[ONE if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    same = apply_graded_change(j5, ident2, ident3)
    assert flatten(same) == flatten(j5)


def test_apply_graded_change_swap(j1):
    # swapping f1 and f2 flips the sign of the product
    p_odd = [
        [Fraction(0), ONE, Fraction(0)],
        [ONE, Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), ONE],
    ]
    moved = apply_graded_change(j1, [[ONE]], p_odd)
    assert moved.delta[0][1][0] == -1


def test_basis_label_aliases(j1):
    assert j1.label_index("e") == j1.label_index("e1")
    jf = load([("e1", "e1", [(ONE, "e1")])], (3, 1))
    assert jf.label_index("f") == jf.label_index("f1")


def test_graded_change_is_the_flat_basis_change(catalog):
    # the graded change of an entry equals the basis change of its flat
    # table over Q(s) by the block-diagonal matrix diag(P0, P1)
    from superjordan.degeneration import apply_basis_change_table
    from superjordan.linalg import int_matrix_det_adjugate
    from superjordan.ratfun import RatFun

    rng = random.Random(11)
    for name in catalog.names()[::4]:
        J = catalog.instances(name)[0]
        m, n = J.m, J.n
        while True:
            P = [[rng.randint(-2, 2) if (a < m) == (b < m) else 0 for b in range(m + n)] for a in range(m + n)]
            if int_matrix_det_adjugate(P)[0]:
                break
        moved = apply_graded_change(
            J, [[Fraction(x) for x in row[:m]] for row in P[:m]], [[Fraction(x) for x in row[m:]] for row in P[m:]]
        )
        rf = [[RatFun.const(x) for x in row] for row in P]
        want = apply_basis_change_table(flatten(J, J.labels()), rf, ratfun_inverse(rf))
        assert flatten(moved, moved.labels()) == want, name
