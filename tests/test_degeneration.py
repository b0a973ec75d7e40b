import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from superjordan import degeneration, linalg, ratfun, tablefmt
from superjordan.algebra import _freeze, default_basis_order, flatten, load
from superjordan.degeneration import (
    Verdict,
    WitnessError,
    _constants_in_basis,
    apply_basis_change_table,
    eval_t_expression,
    is_graded_matrix,
    parse_witness,
    specialize_witness,
    verify_degeneration,
    witness_matrix,
)
from superjordan.ratfun import RatFun
from superjordan.tablefmt import split_combination
from superjordan.verify import resolve_witness_algebras, verify_witnesses

from conftest import limit_at_zero, ratfun_inverse, try_limit_at_zero, valuation

ONE = Fraction(1)


def parametric_constants(wit, source):
    """Structure constants of the parametric basis, as RatFun in s."""
    P, order = witness_matrix(wit, source)
    N, den = _constants_in_basis(source, P, order)
    d = len(order)
    table = [[[RatFun(x, den[a][b]) for x in N[a][b]] for b in range(d)] for a in range(d)]
    return _freeze(table), order, wit.ram


def wit_text(src, tgt, basis_lines):
    lines = ["[degeneration]", f"source = {src}", f"target = {tgt}"]
    lines += [f"basis: {b}" for b in basis_lines]
    return "\n".join(lines)


def test_expression_parser():
    assert eval_t_expression("t^(7/12)", 12) == RatFun.monomial(7)
    assert eval_t_expression("1/t", 1) == RatFun.monomial(-1)
    assert eval_t_expression("(2+t)/2", 1) == (RatFun.const(2) + RatFun.var()) / 2
    assert eval_t_expression("-t^2*3", 1) == RatFun.monomial(2, -3)
    with pytest.raises(WitnessError):
        eval_t_expression("t^(1/2)", 3)  # ramification does not clear /2


@pytest.mark.parametrize(
    "text, ram, expected",
    [
        ("t^(-1/2)", 2, RatFun.monomial(-1)),
        ("t^-1", 1, RatFun.monomial(-1)),
        ("(t-1)^-2", 1, RatFun.const(1) / (RatFun.var() - 1) / (RatFun.var() - 1)),
        ("1/t^2", 1, RatFun.monomial(-2)),
        ("-t^2*3", 1, RatFun.monomial(2, -3)),
        ("(2+t)/2/t", 1, (RatFun.const(1) + RatFun.monomial(1, Fraction(1, 2))) / RatFun.var()),
        ("t^(2/4)", 2, RatFun.monomial(1)),
    ],
)
def test_expression_values(text, ram, expected):
    assert eval_t_expression(text, ram) == expected


@pytest.mark.parametrize(
    "text, ram",
    [
        ("t^(1/2)", 3),  # the ramification does not clear /2
        ("(1+t)^(1/2)", 2),  # a fractional power of t only
        ("t^t", 1),
        ("1/0", 1),
        ("2 t", 1),
        ("t^2^2", 1),
        ("__import__('os').getpid()", 1),  # the text is read, never run
    ],
)
def test_expression_errors(text, ram):
    with pytest.raises(WitnessError):
        eval_t_expression(text, ram)


def test_witness_ramification():
    w = parse_witness(
        wit_text("A", "B", ["f1 = t^(2/3)*f1", "f2 = t^(1/2)*f2", "f3 = f3", "e = e"])
    )
    assert w.ram == 6
    # each coefficient is stored with t = s^6, also those read before N grew
    assert [terms[0][0] for _slot, terms in w.basis] == [
        RatFun.monomial(4), RatFun.monomial(3), RatFun.const(1), RatFun.const(1)
    ]


def test_each_coefficient_is_walked_once_per_ramification(monkeypatch):
    # N grows to 3 on the first line and to 6 on the second: each of those
    # coefficients is walked again after its raise, every other one once,
    # and a coefficient read before a raise is lifted, not walked again
    walks = []
    original = tablefmt.read_arithmetic

    def spy(text, *args):
        walks.append(text.strip())
        return original(text, *args)

    # spied in both modules, so that a walk made from either is counted
    monkeypatch.setattr(degeneration, "read_arithmetic", spy)
    monkeypatch.setattr(tablefmt, "read_arithmetic", spy)
    w = parse_witness(wit_text("A", "B", ["f1 = t^(2/3)*f1", "f2 = t^(1/2)*f2", "f3 = f3", "e = e"]))
    assert w.ram == 6
    coefficients = [c for b in ("t^(2/3)*f1", "t^(1/2)*f2", "f3", "e") for c, _label in split_combination(b)]
    assert len(coefficients) == 4
    assert Counter(walks) == Counter(coefficients) + Counter(["t^(2/3)", "t^(1/2)"])


def test_source_parameter_is_read_with_the_final_ramification():
    # the source line reads t^(1/2) with t = s^2; the basis then needs t = s^6
    w = parse_witness(
        wit_text("Jc16^(t^(1/2)+1)", "B", ["f1 = t^(1/3)*f1", "f2 = f2", "e1 = e1", "e2 = e2"])
    )
    assert w.ram == 6
    assert w.param == eval_t_expression("t^(1/2)+1", 6) == RatFun.monomial(3) + RatFun.const(1)
    assert w.family_swept


def test_parametric_constants_example(catalog):
    j5 = catalog.lookup("J5")
    w = parse_witness(wit_text("J5", "J2", ["f1 = t*f1", "f2 = t*f2", "f3 = f3", "e = e"]))
    nc, order, ram = parametric_constants(w, j5)
    assert ram == 1
    e, f1, f2, f3 = (order.index(x) for x in ("e", "f1", "f2", "f3"))
    assert nc[e][f1][f2] == RatFun.const(1)
    assert nc[f2][f3][e] == RatFun.var()
    nonzero = [
        (a, b, k)
        for a in range(4)
        for b in range(4)
        for k in range(4)
        if nc[a][b][k]
    ]
    assert len(nonzero) == 4  # ef1, f1e, f2f3, f3f2


def test_identity_witness_returns_source(catalog):
    j5 = catalog.lookup("J5")
    w = parse_witness(wit_text("J5", "J5", ["f1 = f1", "f2 = f2", "f3 = f3", "e = e"]))
    nc, order, _ = parametric_constants(w, j5)
    flat = flatten(j5, order)
    for a in range(4):
        for b in range(4):
            for k in range(4):
                assert nc[a][b][k] == RatFun.const(flat[a][b][k])


def test_verify_degeneration_verdicts(catalog):
    j5, j2, j7 = catalog.lookup("J5"), catalog.lookup("J2"), catalog.lookup("J7")
    w = parse_witness(wit_text("J5", "J2", ["f1 = t*f1", "f2 = t*f2", "f3 = f3", "e = e"]))
    v = verify_degeneration(w, j5, j2)
    assert v.verified

    ident = parse_witness(wit_text("J7", "J5", ["f1 = f1", "f2 = f2", "f3 = f3", "e = e"]))
    v2 = verify_degeneration(ident, j7, j5)
    assert v2.status == "LimitMismatch"

    diverging = parse_witness(
        wit_text("J5", "J2", ["f1 = 1/t*f1", "f2 = f2", "f3 = f3", "e = e"])
    )
    v3 = verify_degeneration(diverging, j5, j2)
    assert v3.status == "LimitDiverges"

    singular = parse_witness(
        wit_text("J5", "J2", ["f1 = t*f1", "f2 = t*f1", "f3 = f3", "e = e"])
    )
    v4 = verify_degeneration(singular, j5, j2)
    assert v4.status == "SingularMatrix"


def test_mixed_parity_basis_is_rejected(catalog):
    # the printed J3 -> J1 basis: its limit is J1, but it is no superalgebra basis
    j3, j1 = catalog.lookup("J3"), catalog.lookup("J1")
    printed = ["f1 = t*f1", "f2 = f2+f3+t*e", "f3 = f3+t*e", "e = t*e"]
    v = verify_degeneration(parse_witness(wit_text("J3", "J1", printed)), j3, j1)
    assert v.status == "NonGradedWitness" and not v.verified
    # its graded part, as stored, verifies
    graded = ["f1 = t*f1", "f2 = f2+f3", "f3 = f3", "e = t*e"]
    assert verify_degeneration(parse_witness(wit_text("J3", "J1", graded)), j3, j1).verified
    # cross-parity terms that cancel leave a graded matrix
    cancelled = ["f1 = t*f1", "f2 = f2+f3+t*e-t*e", "f3 = f3", "e = t*e"]
    assert verify_degeneration(parse_witness(wit_text("J3", "J1", cancelled)), j3, j1).verified


def test_parse_witness_statuses():
    basis = wit_text("J5", "J5", ["f1 = f1", "f2 = f2", "f3 = f3", "e = e"])
    for status in ("published", "published-rationalized", "published-graded", "corrected"):
        assert parse_witness(f"{basis}\nstatus = {status}").status == status


def test_basis_change_composition():
    rng = random.Random(5)
    j = load([("e", "f1", [(ONE, "f2")]), ("f2", "f3", [(ONE, "e")])], (1, 3))
    table = flatten(j)
    rf = [[[RatFun.const(x) for x in row] for row in plane] for plane in table]
    rf = tuple(tuple(tuple(r) for r in p) for p in rf)
    from superjordan.linalg import int_matrix_det_adjugate

    def rand_mat():
        while True:
            g = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            det, _ = int_matrix_det_adjugate(g)
            if det != 0:
                return [[RatFun.const(x) for x in row] for row in g]

    P, Q = rand_mat(), rand_mat()
    PQ = [
        [sum((P[i][k] * Q[k][j] for k in range(4)), RatFun.const(0)) for j in range(4)]
        for i in range(4)
    ]

    def change(table, M):
        return apply_basis_change_table(table, M, ratfun_inverse(M))

    assert change(rf, PQ) == change(change(rf, Q), P)


def test_specialize_witness_regular_value(catalog):
    j5 = catalog.lookup("J5")
    w = parse_witness(wit_text("J5", "J2", ["f1 = t*f1", "f2 = t*f2", "f3 = f3", "e = e"]))
    table, ram = specialize_witness(w, j5, Fraction(7))
    assert ram == 1
    # the fiber at t=7 is isomorphic to the source: same ungraded invariants
    from superjordan.invariants import table_is_associative, ungraded_derivation_dim

    assert ungraded_derivation_dim(table) == ungraded_derivation_dim(flatten(j5))
    assert table_is_associative(table) == table_is_associative(flatten(j5))


def test_family_source_witness(catalog):
    w = parse_witness(
        "\n".join(
            [
                "[degeneration]",
                "source = Jc16^(t)",
                "target = Jc30",
                "basis: e1 = e1",
                "basis: e2 = t*e2",
                "basis: f1 = f1",
                "basis: f2 = f2",
            ]
        )
    )
    assert w.param == RatFun.var() and w.family_swept
    src = catalog.lookup("Jc16", w.param)
    tgt = catalog.lookup("Jc30")
    assert verify_degeneration(w, src, tgt).verified


@pytest.mark.parametrize(
    "param, value",
    [
        ("(t)", RatFun.var()),
        ("(1)+(t)", RatFun.const(1) + RatFun.var()),  # not stripped to '1)+(t'
        ("(1+t)", RatFun.const(1) + RatFun.var()),
        ("-1", RatFun.const(-1)),
    ],
)
def test_source_parameter_is_read_whole(param, value):
    w = parse_witness(wit_text(f"Jc16^{param}", "Jc30", ["e1 = e1", "e2 = e2", "f1 = f1", "f2 = f2"]))
    assert w.param == value
    assert w.family_swept == (not value.is_constant())


@pytest.mark.parametrize(
    "bare, bracketed",
    [
        ("t^-1*f1", "t^(-1)*f1"),
        ("e - t^-2*f1 + t^ -1 * f2", "e - t^(-2)*f1 + t^(-1) * f2"),
    ],
)
def test_negative_exponent_is_not_split(bare, bracketed):
    def terms(rhs):
        return parse_witness(wit_text("J7", "J5", [f"f1 = {rhs}", "f2 = f2", "f3 = f3", "e = e"])).basis[0][1]

    assert terms(bare) == terms(bracketed)


def test_slot_aliases_follow_label_index(catalog):
    # e names e1 as a slot too, as it does as a source label, for m > 1
    J = catalog.lookup(catalog.names((2, 2))[0])

    def matrix(e1):
        w = parse_witness(wit_text("A", "B", [f"{e1} = t*{e1}", "e2 = e2", "f1 = f1", "f2 = f2"]))
        return witness_matrix(w, J)

    assert matrix("e") == matrix("e1")


def test_signs_in_a_row_multiply():
    assert split_combination("e1 - -e2 + -t*f1 - +f2") == [
        ("1", "e1"), ("1", "e2"), ("-(t)", "f1"), ("-(1)", "f2")
    ]


# ---------------------------------------------------------------------------
# The replay over Z[s] against the replay over Q(s)
# ---------------------------------------------------------------------------


def _field_constants(wit, src):
    """The moved constants over Q(s): the source table as RatFun, changed by
    P and its inverse from Gauss-Jordan over the field."""
    P, order = witness_matrix(wit, src)
    table = tuple(
        tuple(tuple(RatFun.const(0) + x for x in row) for row in plane) for plane in flatten(src, order)
    )
    return apply_basis_change_table(table, P, ratfun_inverse(P))


def _field_verdict(wit, src, tgt):
    """``verify_degeneration`` over Q(s), one reduced RatFun per constant."""
    P, order = witness_matrix(wit, src)
    if not is_graded_matrix(P, order):
        return Verdict("NonGradedWitness", "basis mixes even and odd vectors")
    try:
        moved = _field_constants(wit, src)
    except linalg.SingularMatrix:
        return Verdict("SingularMatrix", "witness basis is singular")
    d = src.dim
    limit = [[[None] * d for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(d):
            for k in range(d):
                x = moved[a][b][k]
                if try_limit_at_zero(x) is None:
                    return Verdict(
                        "LimitDiverges",
                        f"entry c[{a+1},{b+1}]^{k+1} diverges: valuation {valuation(x)}",
                    )
                limit[a][b][k] = limit_at_zero(x)
    limit_t = tuple(tuple(tuple(r) for r in plane) for plane in limit)
    want = flatten(tgt, default_basis_order(tgt.m, tgt.n))
    diff = tuple(
        (a + 1, b + 1, k + 1)
        for a in range(d)
        for b in range(d)
        for k in range(d)
        if limit_t[a][b][k] != want[a][b][k]
    )
    if diff:
        detail = f"{len(diff)} entries differ from {tgt.name}: {diff[:6]}"
        return Verdict("LimitMismatch", detail, limit_table=limit_t, diff=diff)
    return Verdict("Verified", limit_table=limit_t)


def _constant_types(table):
    return table and [type(x) for plane in table for row in plane for x in row]


def _assert_replay_matches_field(wit, src, tgt):
    verdict = verify_degeneration(wit, src, tgt)
    field = _field_verdict(wit, src, tgt)
    assert verdict == field, wit.label
    # == cannot tell 0.5 from 1/2: the limits must be constants of one type
    assert _constant_types(verdict.limit_table) == _constant_types(field.limit_table), wit.label
    if verdict.status not in ("NonGradedWitness", "SingularMatrix"):
        assert parametric_constants(wit, src)[0] == _field_constants(wit, src), wit.label
    return verdict


def test_packaged_replay_matches_the_field_replay(catalog):
    statuses = Counter()
    for wit in catalog.witnesses():
        src, tgt = resolve_witness_algebras(catalog, wit)
        statuses[_assert_replay_matches_field(wit, src, tgt).status] += 1
    assert statuses == {"Verified": 92, "LimitMismatch": 1}


# the packaged Jc16^(1+t) -> Jc47 basis: f1 f2 = e1 + (p - 1)/t E2 for the
# parameter p
JC16_BASIS = ["e1 = e1+e2", "e2 = t*e2", "f1 = 1/t*f1", "f2 = t*f2"]


@pytest.mark.parametrize(
    "source, target, basis, status",
    [
        # one row over two different denominators, lcm t(1+t)
        ("J5", "J2", ["f1 = 1/(1+t)*f1 + 1/t*f2", "f2 = t*f2", "f3 = f3", "e = e"], "LimitDiverges"),
        ("J5", "J2", ["f1 = t/(1+t)*f1 + t^2/(1-t)*f2", "f2 = t/(1-t)*f2", "f3 = f3", "e = e"], "Verified"),
        ("J5", "J2", ["f1 = t/(1+t)*f1 + t^2/(1-t)*f2", "f2 = t/(2-t)*f2", "f3 = f3", "e = e"], "LimitMismatch"),
        # ramified: t = s^2
        ("J5", "J2", ["f1 = t^(1/2)*f1", "f2 = t^(1/2)*f2", "f3 = f3", "e = e"], "Verified"),
        ("J5", "J2", ["f1 = t^(3/2)*f1", "f2 = t^(1/2)*f2", "f3 = f3", "e = e"], "LimitMismatch"),
        # family sources: a polynomial parameter leaves D_T = 1, 1/(1-t) does not
        ("Jc16^(1+t)", "Jc47", JC16_BASIS, "Verified"),
        ("Jc16^(1/(1-t))", "Jc47", JC16_BASIS, "Verified"),
        ("Jc16^(1/(1+t))", "Jc47", JC16_BASIS, "LimitMismatch"),
        ("Jc16^(1/t)", "Jc47", ["e1 = e1+e2", "e2 = t*e2", "f1 = f1", "f2 = f2"], "LimitDiverges"),
        ("Jc16^(1/t)", "Jc47", ["e1 = e1+e2", "e2 = t*e2", "f1 = 1/(t-2)*f1", "f2 = t^2*f2"], "LimitMismatch"),
        # singular over Q(s)
        ("J5", "J2", ["f1 = t*f1", "f2 = t*f1", "f3 = f3", "e = e"], "SingularMatrix"),
        ("J5", "J2", ["f1 = 1/t*f1 + f2", "f2 = f1 + t*f2", "f3 = f3", "e = e"], "SingularMatrix"),
    ],
)
def test_hand_built_replay_matches_the_field_replay(catalog, source, target, basis, status):
    wit = parse_witness(wit_text(source, target, basis))
    src, tgt = resolve_witness_algebras(catalog, wit)
    assert _assert_replay_matches_field(wit, src, tgt).status == status


def test_divergence_names_entry_and_valuation(catalog):
    wit = parse_witness(wit_text("J5", "J2", ["f1 = 1/t^2*f1", "f2 = f2", "f3 = f3", "e = e"]))
    src, tgt = resolve_witness_algebras(catalog, wit)
    verdict = _assert_replay_matches_field(wit, src, tgt)
    assert verdict.detail == "entry c[1,4]^2 diverges: valuation -2"  # f1 e = t^-2 f2


def test_witness_replay_stays_over_polynomials(catalog, monkeypatch):
    # a replay over Q(s) inverts P by Gauss-Jordan over the field and reduces
    # every product by a gcd: 10,041 gcds on the packaged witnesses
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        # every module that holds the function, as ``from ... import`` binds it
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("superjordan") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)

    count(linalg, "invert_field_matrix")
    count(ratfun, "poly_gcd")
    assert len(verify_witnesses(catalog)) == 93
    assert counts["invert_field_matrix"] == 0
    assert 0 < counts["poly_gcd"] <= 1000
    # a sum with a zero RatFun, as each slot of witness_matrix starts, runs no gcd
    assert counts["poly_gcd"] <= 109


def test_limit_and_fiber_constants_stay_exact(catalog, verified_witnesses):
    # Z[s] coefficients are ints: a quotient of two of them taken with ``/``
    # is a float, which equals a Fraction target whenever it is dyadic
    assert len(verified_witnesses) == 93
    limits = fibers = 0
    for wit, verdict, _row in verified_witnesses:
        if verdict.verified:
            limits += 1
            assert {type(c) for plane in verdict.limit_table for row in plane for c in row} <= {int, Fraction}
        src, _tgt = resolve_witness_algebras(catalog, wit)
        for t0 in (7, Fraction(-5, 3), 11):
            try:
                fiber, _ram = specialize_witness(wit, src, t0)
            except ZeroDivisionError:
                continue
            fibers += 1
            assert {type(c) for plane in fiber for row in plane for c in row} <= {int, Fraction}, wit.label
    assert limits == 92 and fibers >= 93
