import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superjordan import certificates, linalg
from superjordan.algebra import change_basis, cleared_table, flatten, label_parity, nonzero_constants
from superjordan.certificates import (
    BasisMismatch,
    CertificateParseError,
    RandomizedReport,
    _random_invertible,
    _random_triangular,
    certificate_table,
    closed_set_eval,
    condition_holds,
    failing_condition,
    parse_closed_set,
    parse_condition,
    separation_test,
    stability_test,
    transform_int_table,
)
from superjordan.verify import certificate_rows, verify_certificates

from conftest import cofactor_det, fraction_inverse

J12_CS = """
[closedset]
source = J12
targets = J7 J8 J9 J11 J15 J16 J17 J19
basis = f1 f2 f3 e
condition: J*J <= span(x2,x3,x4)
condition: c[4,4,4] = 2*c[2,4,2]
condition: c[4,4,4] = c[3,4,3]
"""


def _atoms(triples):
    """Single-atom polynomials, one per 0-based (a, b, k)."""
    return tuple(((1, (abk,)),) for abk in triples)


def test_parse_conditions():
    # a span condition is one atom per banned coordinate of each product
    assert parse_condition("A1*A4 = 0", 4).polys == _atoms(product(range(4), [3], range(4)))
    assert parse_condition("span(J*J) <= span(x4,x2,x3)", 4).polys == _atoms(
        product(range(4), range(4), [0])
    )
    assert parse_condition("A2*A2 <= A2", 4).polys == _atoms(product(range(1, 4), range(1, 4), [0]))
    # an equation is lhs - rhs, terms sorted by monomial
    assert parse_condition("c[*,*,1] = 0", 4).polys == _atoms(product(range(4), range(4), [0]))
    assert parse_condition("c[4,4,4] = 2*c[2,4,2]", 4).polys == (
        ((-2, ((1, 3, 1),)), (1, ((3, 3, 3),))),
    )
    [half] = parse_condition("c[3,4,4] = 1/2*c[3,3,3]", 4).polys
    assert half == ((Fraction(-1, 2), ((2, 2, 2),)), (1, ((2, 3, 3),)))
    assert type(half[1][0]) is int  # integral coefficients are ints
    [quadratic] = parse_condition("c[1,1,2]*c[2,3,4] = c[1,3,4]*(2*c[1,4,4]-c[1,1,1])", 4).polys
    assert quadratic == (
        (1, ((0, 0, 0), (0, 2, 3))),
        (1, ((0, 0, 1), (1, 2, 3))),
        (-2, ((0, 2, 3), (0, 3, 3))),
    )
    # terms that cancel are dropped, and so are polynomials that vanish identically
    assert parse_condition("c[1,1,1] - c[1,1,1] + c[2,2,2] = 0", 4).polys == (((1, ((1, 1, 1),)),),)
    assert parse_condition("c[*,1,1] = c[1,1,1]", 4).polys == tuple(
        ((-1, ((0, 0, 0),)), (1, ((i, 0, 0),))) for i in range(1, 4)
    )
    # a condition left with no polynomial would hold on every table
    with pytest.raises(CertificateParseError, match="holds on every table"):
        parse_condition("c[1,1,1] - c[1,1,1] = 0", 4)
    with pytest.raises(CertificateParseError):
        parse_condition("nonsense", 4)
    with pytest.raises(CertificateParseError):
        parse_condition("A1*A4 = A2", 4)  # containment must use <=


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1/2*c[1,2,3] = c[4,4,4]", (((Fraction(1, 2), ((0, 1, 2),)), (-1, ((3, 3, 3),))),)),
        ("c[1,2,3]*1/2 = c[4,4,4]", (((Fraction(1, 2), ((0, 1, 2),)), (-1, ((3, 3, 3),))),)),
        ("-c[1,1,1] = c[2,2,2]", (((-1, ((0, 0, 0),)), (-1, ((1, 1, 1),))),)),
        ("-(c[1,1,1] - 2*c[1,2,2]) = 0", (((-1, ((0, 0, 0),)), (2, ((0, 1, 1),))),)),
        (
            "((c[1,1,2]*(c[2,3,4] - c[1,1,1]))) = c[1,3,4]*((2*c[1,4,4]))",
            (
                (
                    (-1, ((0, 0, 0), (0, 0, 1))),
                    (1, ((0, 0, 1), (1, 2, 3))),
                    (-2, ((0, 2, 3), (0, 3, 3))),
                ),
            ),
        ),
    ],
)
def test_condition_arithmetic(text, expected):
    assert parse_condition(text, 4).polys == expected


def test_wildcards_on_both_sides():
    # c[i,1,2] = c[2,j,1] for every i and j, in basis order of (i, j)
    expected = tuple(
        tuple(sorted([(1, ((i, 0, 1),)), (-1, ((1, j, 0),))], key=lambda term: term[1]))
        for i in range(2)
        for j in range(2)
    )
    assert parse_condition("c[*,1,2] = c[2,*,1]", 2).polys == expected


def test_each_wildcard_is_its_own_index(catalog):
    # slots are numbered across both sides of "=": c[i,1,1] = c[j,2,2] for all i, j
    polys = parse_condition("c[*,1,1] = c[*,2,2]", 4).polys
    assert len(polys) == 16
    assert polys[1] == ((1, ((0, 0, 0),)), (-1, ((1, 1, 1),)))  # i = 1, j = 2
    # J7 meets all 16.  J15 meets the four with i = j in every graded basis,
    # so a right-hand * that reused a left-hand slot would separate nothing
    cs = parse_closed_set(
        "[closedset]\nsource = J7\ntargets = J15\nbasis = f1 f2 f3 e\n"
        "condition: c[*,1,1] = c[*,2,2]\n"
    )
    rows = {row.check_id: row for row in certificate_rows(catalog, cs, trials=5, seed=0)}
    assert rows["certificate::source"].ok and rows["certificate::stability"].detail == "5/5"
    assert rows["certificate::separation:J15"].display == "PASS certificate::separation:J15 5/5"


def test_conditions_are_homogeneous(catalog):
    for cs in catalog.closed_sets():
        for cond in cs.conditions:
            for poly in cond.polys:
                assert len({len(mono) for _coef, mono in poly}) == 1, (cs.label, cond.text)
    # the trials scale tables: a condition of mixed degrees is refused at parse
    for text in ("c[1,1,1] = c[1,1,1]*c[2,2,2]", "c[1,1,1] = 1", "c[*,1,1]*c[1,*,1] = c[1,1,1]"):
        with pytest.raises(CertificateParseError, match="non-homogeneous"):
            parse_condition(text, 4)


def test_closed_set_eval_examples(catalog):
    cs = parse_closed_set(J12_CS)
    t12 = flatten(catalog.lookup("J12"))
    t7 = flatten(catalog.lookup("J7"))
    assert closed_set_eval(t12, cs)
    assert not closed_set_eval(t7, cs)
    assert failing_condition(t7, cs).text == "c[4,4,4] = 2*c[2,4,2]"
    zero = tuple(tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4)) for _ in range(4))
    assert closed_set_eval(zero, cs)


def test_basis_mismatch(catalog):
    cs = parse_closed_set(J12_CS)
    table3 = [[[0] * 3] * 3] * 3
    with pytest.raises(BasisMismatch):
        closed_set_eval(table3, cs)
    # the trials check the dimension once, before any basis change
    for test in (stability_test, separation_test):
        with pytest.raises(BasisMismatch, match="table dim 3 != certificate dim 4"):
            test(cs, table3, trials=5, seed=0)
    with pytest.raises(CertificateParseError, match="does not fit"):
        certificate_table(parse_closed_set(J12_CS.replace("f3 e", "f3 f1")), catalog.lookup("J12"))
    assert certificate_table(cs, catalog.lookup("J12")) == flatten(catalog.lookup("J12"), cs.basis)


def test_empty_condition_set(catalog):
    cs = parse_closed_set(
        "[closedset]\nsource = J7\ntargets = J15\nbasis = f1 f2 f3 e\n"
    )
    t = flatten(catalog.lookup("J7"))
    st = stability_test(cs, t, trials=50, seed=0)
    assert st.hits == 50
    sep = separation_test(cs, flatten(catalog.lookup("J15")), trials=50, seed=0)
    assert sep.hits == 0  # nothing to violate


def test_span_condition_scale_invariance(catalog):
    cs = parse_closed_set(J12_CS)
    t12 = flatten(catalog.lookup("J12"))
    scaled = tuple(
        tuple(tuple(3 * x for x in row) for row in plane) for plane in t12
    )
    assert closed_set_eval(scaled, cs)


def test_separation_within_same_orbit_is_zero(catalog):
    # a random basis change of the source stays in its own orbit, so the
    # certificate keeps holding under graded/unrestricted moves of the source
    cs = parse_closed_set(J12_CS)
    t12 = flatten(catalog.lookup("J12"))
    sep = separation_test(cs, t12, trials=100, seed=0)
    # J12's own orbit does not separate cleanly: conditions are basis-sensitive
    # and only triangular moves are guaranteed to preserve them
    st = stability_test(cs, t12, trials=100, seed=0)
    assert st.hits == 100


def test_transform_int_table_identity(catalog):
    t = flatten(catalog.lookup("J12"))
    tint = [[[int(2 * x) for x in row] for row in plane] for plane in t]
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert transform_int_table(tint, ident) == tint


def test_stability_and_separation_spec_example(catalog):
    cs = parse_closed_set(J12_CS)
    t12 = flatten(catalog.lookup("J12"))
    st = stability_test(cs, t12, trials=200, seed=0)
    assert st.hits == 200
    sep = separation_test(cs, flatten(catalog.lookup("J7")), trials=200, seed=0)
    assert sep.hits >= 198


def _int_table(table):
    """The dense integer table: denominators cleared by their lcm, the
    oracle of the table the trials read (``algebra.cleared_table``)."""
    lcm = 1
    for plane in table:
        for row in plane:
            for x in row:
                den = Fraction(x).denominator
                lcm = lcm * den // gcd(lcm, den)
    return [[[int(Fraction(x) * lcm) for x in row] for row in plane] for plane in table]


def _pattern(cs):
    return tuple(map(label_parity, cs.basis))


def _key(kind, cs):
    """What the draw of a randomized test depends on besides trials and seed."""
    return cs.dim if kind == "stability" else _pattern(cs)


def _oracle_stability(cs, table, trials, seed):
    """The per-call loop: its own Random(seed), one transform per trial."""
    table_int = _int_table(table)
    rng = random.Random(seed)
    hits, first_fail = 0, ""
    for _ in range(trials):
        g = _random_triangular(rng, cs.dim)
        moved = transform_int_table(table_int, g)
        if closed_set_eval(moved, cs):
            hits += 1
        elif not first_fail:
            bad = failing_condition(moved, cs)
            first_fail = f"fails {bad.text if bad else '?'} at g={g}"
    return RandomizedReport("stability", hits, trials, seed, first_fail)


def _oracle_separation(cs, table, trials, seed):
    table_int = _int_table(table)
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        g, _ = _random_invertible(rng, _pattern(cs))
        if not closed_set_eval(transform_int_table(table_int, g), cs):
            hits += 1
    return RandomizedReport("separation", hits, trials, seed)


def _reports(catalog, stability, separation, trials, seed):
    """Yield one report per source instance and per target instance of every
    certificate (sources that miss their certificate included)."""
    for cs in catalog.closed_sets():
        for J in catalog.instances(cs.source):
            yield stability(cs, certificate_table(cs, J), trials, seed)
        for name in cs.targets:
            for T in catalog.instances(name):
                yield separation(cs, certificate_table(cs, T), trials, seed)


@pytest.mark.parametrize("seed", [0, 3])
def test_shared_draws_replay_per_call_loop(catalog, seed):
    assert len(catalog.closed_sets()) == 42
    want = list(_reports(catalog, _oracle_stability, _oracle_separation, 50, seed))
    certificates._changes.cache_clear()
    assert list(_reports(catalog, stability_test, separation_test, 50, seed)) == want  # cold
    assert certificates._changes.cache_info().hits > 0
    assert list(_reports(catalog, stability_test, separation_test, 50, seed)) == want  # warm
    # a table off the closed set: the report names the first failing change
    cs, t7 = parse_closed_set(J12_CS), flatten(catalog.lookup("J7"))
    failed = stability_test(cs, t7, 50, seed)
    assert failed.detail.startswith("fails ") and failed == _oracle_stability(cs, t7, 50, seed)
    if seed == 0:
        # negative control: another seed's draw changes some report
        other = _reports(catalog, _oracle_stability, _oracle_separation, 50, seed + 1)
        assert any(o != w for o, w in zip(other, want))


def _matrices_drawn(kind, key, trials, seed):
    """Matrices one randomized test draws, rejected singular ones included."""
    if kind == "stability":
        return trials
    rng = random.Random(seed)
    drawn = 0
    for _ in range(trials):
        while True:
            drawn += 1
            g = [[rng.randint(-7, 7) if pa == pb else 0 for pb in key] for pa in key]
            if linalg.int_matrix_det_adjugate(g)[0] != 0:
                break
    return drawn


def test_one_det_adjugate_per_drawn_matrix(catalog, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return linalg.int_matrix_det_adjugate(m)

    monkeypatch.setattr(certificates, "int_matrix_det_adjugate", counted)
    certificates._changes.cache_clear()
    verify_certificates(catalog, trials=20, seed=0)
    keys = {(kind, _key(kind, cs)) for cs in catalog.closed_sets() for kind in ("stability", "separation")}
    drawn = sum(_matrices_drawn(kind, key, 20, 0) for kind, key in keys)
    assert len(calls) == drawn
    assert drawn < 100
    for g, adj in certificates._changes("separation", (0, 0, 1, 1), 20, 0):
        assert isinstance(g, tuple) and all(isinstance(row, tuple) for row in g + adj)
    certificates._changes.cache_clear()


def test_one_sweep_draws_each_key_once():
    # five draw keys (stability in dimension 4 and four parity patterns),
    # read in turn three times over, as a catalog in file order can
    zero = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    closed_sets = [
        parse_closed_set(f"[closedset]\nsource = J7\ntargets = J15\nbasis = {basis}\ncondition: c[1,1,1] = 0\n")
        for basis in ("f1 f2 f3 e", "e1 e2 f1 f2", "e1 e2 e3 f", "f e1 e2 e3")
    ]
    assert len({_pattern(cs) for cs in closed_sets}) == 4
    certificates._changes.cache_clear()
    for _ in range(3):
        for cs in closed_sets:
            assert stability_test(cs, zero, trials=5, seed=0).hits == 5
            assert separation_test(cs, zero, trials=5, seed=0).hits == 0
    assert certificates._changes.cache_info().misses == 5
    certificates._changes.cache_clear()


def test_separation_draws_graded_stability_draws_triangular(catalog):
    patterns = {_pattern(cs) for cs in catalog.closed_sets()}
    assert patterns == {(0, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0)}
    for pattern in patterns:
        draws = certificates._changes("separation", pattern, 200, 0)
        mixed = [(a, b) for a in range(4) for b in range(4) if pattern[a] != pattern[b]]
        same = [(a, b) for a in range(4) for b in range(4) if a != b and pattern[a] == pattern[b]]
        for g, adj in draws:
            assert all(g[a][b] == 0 for a, b in mixed), (pattern, g)
            det = linalg.int_matrix_det_adjugate([list(row) for row in g])[0]
            assert det != 0
            product = [[sum(g[i][k] * adj[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
            assert product == [[det if i == j else 0 for j in range(4)] for i in range(4)]
        # the blocks are drawn in full, not only their diagonals
        assert any(g[a][b] != 0 for g, _ in draws for a, b in same)
    # stability keeps the full upper-triangular draw, matrix for matrix
    rng = random.Random(0)
    want = [tuple(map(tuple, _random_triangular(rng, 4))) for _ in range(200)]
    assert [g for g, _ in certificates._changes("stability", 4, 200, 0)] == want


@pytest.mark.parametrize(
    "labels, seed",
    [(("geo2_Jc54", "geo2_Jc62"), 5), (("geo1_J16", "geo1_J17", "geo1_J19"), 0)],
)
def test_graded_separation_rejects_every_trial(catalog, labels, seed):
    # seed 5: the two rows that fell to 989/1000 under parity-mixing draws;
    # seed 0: the J15 rows that a parity-mixing basis with lam(x4) = 0 leaked
    by_label = {cs.label: cs for cs in catalog.closed_sets()}
    rows = [row for label in labels for row in certificate_rows(catalog, by_label[label], 1000, seed)]
    separation = [r for r in rows if ":separation:" in r.check_id]
    assert len(separation) >= 2 * len(labels)
    assert all(r.ok and r.detail == "1000/1000" for r in separation), [r.display for r in separation]
    assert not any(r.logged for r in rows)
    assert all(r.ok for r in rows)


class _Written(list):
    """A trial's scratch list: unset (None) when the trial starts, so that a
    coordinate read before this trial computes it fails, and recording the
    index of every write."""

    def __init__(self, n):
        super().__init__([None] * n)
        self.writes = []

    def __setitem__(self, i, x):
        self.writes.append(i)
        super().__setitem__(i, x)


def _record_trials(monkeypatch):
    """Give every trial fresh recording scratch lists; the returned list
    collects (plan, g, adj, rows, slots, verdict) per trial."""
    seen = []
    run = certificates._trial_holds

    def recording(plan, groups, g, adj, rows, slots):
        rows, slots = _Written(len(rows)), _Written(len(slots))
        holds = run(plan, groups, g, adj, rows, slots)
        seen.append((plan, g, adj, rows, slots, holds))
        return holds

    monkeypatch.setattr(certificates, "_trial_holds", recording)
    return seen


def _read_coordinates(cs, table):
    """The coordinates that the polynomials read, in order, up to and with
    the first one that does not vanish on the table."""
    read = set()
    for cond in cs.conditions:
        for poly in cond.polys:
            read.update(atom for _coef, mono in poly for atom in mono)
            if sum(coef * prod(table[a][b][k] for a, b, k in mono) for coef, mono in poly):
                return read
    return read


@pytest.mark.parametrize("seed", [0, 3])
def test_trials_compute_dense_coordinates(catalog, monkeypatch, seed):
    # every coordinate a trial computes is the coordinate of the dense basis
    # change, each is computed once, and exactly the coordinates that the
    # conditions read are computed, for every source and target instance of
    # all 42 certificates
    seen = _record_trials(monkeypatch)
    checked = 0
    for cs in catalog.closed_sets():
        row_of = {r: (a, b) for new_rows, _coords, _terms in cs.plan.steps for r, a, b in new_rows}
        for name in [cs.source, *cs.targets]:
            for J in catalog.instances(name):
                table = certificate_table(cs, J)
                table_int = _int_table(table)
                assert nonzero_constants(cleared_table(table)[1]) == nonzero_constants(table_int)
                for kind in ("stability", "separation"):
                    seen.clear()
                    verdicts = [holds for _g, holds in certificates._trials(kind, cs, table, 5, seed)]
                    draws = certificates._changes(kind, _key(kind, cs), 5, seed)
                    assert [(g, adj) for _p, g, adj, *_ in seen] == list(draws)
                    for plan, g, adj, rows, slots, holds in seen:
                        assert plan is cs.plan
                        dense = change_basis(table_int, g, adj, 0)
                        read = _read_coordinates(cs, dense)
                        assert len(set(slots.writes)) == len(slots.writes), (cs.label, J.name, kind)
                        assert {plan.coords[s] for s in slots.writes} == read, (cs.label, J.name, kind)
                        for s in slots.writes:
                            a, b, l = plan.coords[s]
                            assert slots[s] == dense[a][b][l], (cs.label, J.name, kind, a, b, l)
                        assert len(set(rows.writes)) == len(rows.writes)
                        assert {row_of[r] for r in rows.writes} == {(a, b) for a, b, _l in read}
                        assert holds == closed_set_eval(dense, cs)
                        checked += 1
                    assert verdicts == [holds for *_, holds in seen]
    assert checked == 2 * 5 * sum(
        len(catalog.instances(name)) for cs in catalog.closed_sets() for name in [cs.source, *cs.targets]
    )


def test_trials_compute_only_the_coordinates_they_read(catalog, monkeypatch):
    seen = _record_trials(monkeypatch)
    rows = verify_certificates(catalog, trials=20, seed=0)
    dims = {cs.label: cs.dim for cs in catalog.closed_sets()}
    tests = [row for row in rows if not row.check_id.split("@")[0].endswith(":source")]
    full = sum(20 * dims[row.check_id.split(":")[1]] ** 2 for row in tests)
    assert len(tests) == 219 and len(seen) == 20 * 219 and full == 70_080
    # the conditions read 15,822 of the 70,080 product rows (22.6 %) and
    # 25,178 of their 280,320 coordinates (9.0 %); the dense path computed
    # them all
    assert sum(len(trial[3].writes) for trial in seen) == 15_822
    assert sum(len(trial[4].writes) for trial in seen) == 25_178
    assert all(len(set(trial[4].writes)) == len(trial[4].writes) for trial in seen)
    # no pass or failure depends on which coordinates were computed
    monkeypatch.undo()
    assert rows == verify_certificates(catalog, trials=20, seed=0)


def test_integer_path_is_det_times_field_path(catalog):
    # the adjugate-scaled integer loop equals det(g) times the basis change
    # over the field, both taken without the adjugate (det by cofactors,
    # Q = g^-1 by Fraction elimination), for the first changes of both seed-0 draws, on every
    # certificate source table
    checked = 0
    for cs in catalog.closed_sets():
        for J in catalog.instances(cs.source):
            table_int = _int_table(certificate_table(cs, J))
            for kind in ("stability", "separation"):
                for g, adj in certificates._changes(kind, _key(kind, cs), 5, 0):
                    det = cofactor_det(g)
                    inverse = fraction_inverse(g)
                    field = change_basis(table_int, g, inverse, Fraction(0))
                    scaled = [[[det * x for x in row] for row in plane] for plane in field]
                    assert transform_int_table(table_int, g) == scaled, cs.label
                    checked += 1
    assert checked >= 10 * len(catalog.closed_sets())


# ---------------------------------------------------------------------------
# Reference evaluator: the condition ASTs that the compiled polynomials
# replaced, walked afresh on every table.  Each * takes the next slot,
# counted from left to right across both sides of "=".
# ---------------------------------------------------------------------------

_AST_TOKEN = re.compile(r"\s*(c\[[^\]]*\]|\d+/\d+|\d+|[()+\-*])")


class _AstParser:
    """Nodes: ("const", Fraction), ("atom", a, b, k) with 1-based indices and
    0 for a wildcard, ("add"|"sub"|"mul", left, right), ("neg", node)."""

    def __init__(self, text):
        self.toks = _AST_TOKEN.findall(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def parse(self):
        node = self.expr()
        assert self.peek() is None
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == "*":
            self.take()
            node = ("mul", node, self.unary())
        return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        tok = self.take()
        if tok == "(":
            node = self.expr()
            assert self.take() == ")"
            return node
        if tok.startswith("c["):
            return ("atom",) + tuple(0 if p.strip() == "*" else int(p) for p in tok[2:-1].split(","))
        return ("const", Fraction(tok))


def _wildcards(node):
    if node[0] == "const":
        return 0
    if node[0] == "atom":
        return node[1:].count(0)
    return sum(_wildcards(child) for child in node[1:])


def _eval(node, table, wild, counter):
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "atom":
        idx = []
        for x in node[1:]:
            if x == 0:
                x = wild[counter[0]]
                counter[0] += 1
            idx.append(x)
        a, b, k = idx
        return table[a - 1][b - 1][k - 1]
    if kind == "neg":
        return -_eval(node[1], table, wild, counter)
    left = _eval(node[1], table, wild, counter)
    right = _eval(node[2], table, wild, counter)
    return {"add": left + right, "sub": left - right, "mul": left * right}[kind]


def _flag(name, d):
    return range(1, d + 1) if name == "J" else range(int(name[1:]), d + 1)


@lru_cache(maxsize=None)
def _reference_condition(text, d):
    """(lhs AST, rhs AST, wildcard count) of an equation; for a containment,
    the 1-based (a, b, k) whose constant must vanish."""
    if "c[" in text:
        lhs, rhs = (_AstParser(side).parse() for side in text.split("="))
        return lhs, rhs, _wildcards(lhs) + _wildcards(rhs)
    left, right, allowed = re.fullmatch(
        r"(?:span\(\s*)?([AJ]\d*)\s*\*\s*([AJ]\d*)\s*\)?\s*<?=\s*(.+)", text
    ).groups()
    if allowed == "0":
        allowed = ()
    elif allowed.startswith("A"):
        allowed = _flag(allowed, d)
    else:
        allowed = [int(x.strip()[1:]) for x in allowed[len("span(") : -1].split(",")]
    return [
        (a, b, k)
        for a in _flag(left, d)
        for b in _flag(right, d)
        for k in range(1, d + 1)
        if k not in allowed
    ]


def _reference_holds(text, table):
    d = len(table)
    ref = _reference_condition(text, d)
    if isinstance(ref, list):
        return all(table[a - 1][b - 1][k - 1] == 0 for a, b, k in ref)
    lhs, rhs, slots = ref
    for wild in product(range(1, d + 1), repeat=slots):
        counter = [0]
        if _eval(lhs, table, wild, counter) != _eval(rhs, table, wild, counter):
            return False
    return True


def _agree(cs, table, outcomes):
    for cond in cs.conditions:
        got = condition_holds(cond, table)
        assert got == _reference_holds(cond.text, table), (cs.label, cond.text, table)
        outcomes.add(got)


def test_compiled_conditions_agree_with_reference(catalog):
    closed_sets = catalog.closed_sets()
    assert len(closed_sets) == 42
    outcomes = set()
    for cs in closed_sets:
        # every instance of the certificate's type that fits its basis
        source = catalog.instances(cs.source)[0]
        for name in catalog.names((source.m, source.n)):
            for J in catalog.instances(name):
                try:
                    table = certificate_table(cs, J)
                except CertificateParseError:
                    continue
                _agree(cs, table, outcomes)
        # the first 50 moved tables of both seed-0 draws, on source and targets
        for name in [cs.source, *cs.targets]:
            for J in catalog.instances(name):
                table_int = _int_table(certificate_table(cs, J))
                for kind in ("stability", "separation"):
                    for g, adj in certificates._changes(kind, _key(kind, cs), 50, 0):
                        _agree(cs, change_basis(table_int, g, adj, 0), outcomes)
    assert outcomes == {True, False}


def test_compiled_conditions_agree_on_drawn_tables(catalog):
    closed_sets = catalog.closed_sets()

    @given(st.lists(st.integers(-2, 2), min_size=64, max_size=64))
    @settings(max_examples=200, deadline=None)
    def check(entries):
        table = [[entries[16 * a + 4 * b : 16 * a + 4 * b + 4] for b in range(4)] for a in range(4)]
        for cs in closed_sets:
            _agree(cs, table, set())

    check()
