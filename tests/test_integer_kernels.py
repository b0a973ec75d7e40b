"""The identity and rank kernels run on each table times the lcm of its
denominators: in ints for a rational table, over Z[s] for a table over
Q(s).  Their results must equal those of the same loops run in Fraction (or
RatFun) on the unscaled table, kept here as oracles."""

import random
from fractions import Fraction
from itertools import product as iproduct

from superjordan import envelope, linalg, ratfun
from superjordan.algebra import (
    IdentityReport,
    _supercommutativity_violations,
    apply_graded_change,
    check_super_jordan,
    clear_denominators,
    cleared_table,
    flatten,
    graded_table,
    jordan_defect,
    load,
    power_filtration,
    power_spans,
    unflatten,
)
from superjordan.envelope import (
    EnvelopeReport,
    _pair_schedule,
    _support_plan,
    envelope_jordan_check,
    grassmann_sign,
)
from superjordan.invariants import (
    BURDE_PAIRS,
    _burde_values,
    _map_equations,
    derivation_dims,
    table_is_associative,
)
from superjordan.linalg import int_matrix_det_adjugate
from superjordan.ratfun import Poly, RatFun

from conftest import (
    divided_by_pivots,
    fraction_power_spans,
    perturb_entry,
    reduce_over_ratfun,
    reference_burde,
    row_reduce_by_fractions,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


# ---- Fraction oracles ------------------------------------------------------


def _sign(exp):
    return -1 if exp % 2 else 1


def _add_product(acc, T, u, v, sign):
    for k, cu in u:
        for l, cv in v:
            for r, t in T[k][l]:
                x = cu * cv * t
                acc[r] = acc.get(r, 0) + x if sign > 0 else acc.get(r, 0) - x


def _sparse_product(T, u, v):
    acc = {}
    _add_product(acc, T, u, v, 1)
    return tuple((k, c) for k, c in acc.items() if c)


def fraction_check_super_jordan(J):
    """The graded identity on every basis quadruple, in the table's scalars."""
    labels = J.labels()
    dim = len(labels)
    table, par = graded_table(J)
    sviol = _supercommutativity_violations(table, par, labels)
    if sviol:
        return IdentityReport(False, False, detail="; ".join(sviol[:3]))
    T = [[tuple((k, c) for k, c in enumerate(row) if c) for row in plane] for plane in table]
    unit = [((a, 1),) for a in range(dim)]
    P = [
        [[_sparse_product(T, T[a][b], unit[c]) for c in range(dim)] for b in range(dim)]
        for a in range(dim)
    ]
    for a, b, c, d in iproduct(range(dim), repeat=4):
        px, py, pz, pt = par[a], par[b], par[c], par[d]
        acc = {}
        _add_product(acc, T, P[a][b][c], unit[d], 1)
        _add_product(acc, T, P[a][d][c], unit[b], _sign(py * pz + py * pt + pz * pt))
        _add_product(acc, T, P[b][d][c], unit[a], _sign(px * py + px * pz + px * pt + pz * pt))
        _add_product(acc, T, T[a][b], T[c][d], -1)
        _add_product(acc, T, T[a][d], T[b][c], -_sign(pt * (py + pz)))
        _add_product(acc, T, T[a][c], T[b][d], -_sign(py * pz))
        if all(v == 0 for v in acc.values()):
            continue
        quad = (labels[a], labels[b], labels[c], labels[d])
        return IdentityReport(
            False,
            True,
            violation=quad,
            defect=jordan_defect(J, *(J.basis_element(lab) for lab in quad)),
            detail=f"J({','.join(quad)}) != 0",
        )
    return IdentityReport(True, True)


class _FractionEnvelope:
    def __init__(self, J):
        self.J = J

    def mul(self, x, y):
        out = {}
        J = self.J
        for (s, pa, ia), ca in x.items():
            for (t, pb, ib), cb in y.items():
                sg = grassmann_sign(s, t)
                if sg == 0:
                    continue
                c = ca * cb * sg
                if pa == 0 and pb == 0:
                    comps = [(0, kk, J.alpha[ia][ib][kk]) for kk in range(J.m)]
                elif pa == 0 and pb == 1:
                    comps = [(1, q, J.beta[ia][ib][q]) for q in range(J.n)]
                elif pa == 1 and pb == 0:
                    comps = [(1, q, J.gamma[ia][ib][q]) for q in range(J.n)]
                else:
                    comps = [(0, kk, J.delta[ia][ib][kk]) for kk in range(J.m)]
                st = s | t
                for parity, idx, val in comps:
                    if val == 0:
                        continue
                    key = (st, parity, idx)
                    acc = out.get(key, Fraction(0)) + c * val
                    if acc == 0:
                        out.pop(key, None)
                    else:
                        out[key] = acc
        return out

    def jordan_holds(self, x, y):
        xx = self.mul(x, x)
        return self.mul(self.mul(xx, y), x) == self.mul(xx, self.mul(y, x))


def fraction_envelope_check(J, k=4, random_trials=20, seed=0):
    """``envelope_jordan_check`` with Fraction coefficients on the blocks."""
    env = _FractionEnvelope(J)
    labels = J.labels()
    # (parity, index within the parity) of each label, in label order
    indices = {lab: (0, i) if i < J.m else (1, i - J.m) for i, lab in enumerate(labels)}
    parities = {lab: indices[lab][0] for lab in labels}
    pairs = 0

    def monomial(mask, lab, coeff=Fraction(1)):
        p, i = indices[lab]
        return {(mask, p, i): coeff}

    def merge(parts):
        out = {}
        for part in parts:
            for kk, v in part.items():
                out[kk] = out.get(kk, Fraction(0)) + v
        return {kk: v for kk, v in out.items() if v != 0}

    for r in (1, 2, 3):
        for combo in iproduct(labels, repeat=r):
            plan = _support_plan([parities[lab] for lab in combo], k)
            if plan is None:
                continue
            used = 0
            for msk in plan:
                used |= msk
            x = merge([monomial(msk, lab) for msk, lab in zip(plan, combo)])
            free = [g for g in range(k) if not (used >> g) & 1]
            for ylab in labels:
                if parities[ylab] == 1:
                    if not free:
                        continue
                    ymask = 1 << free[0]
                else:
                    ymask = 0
                pairs += 1
                if not env.jordan_holds(x, monomial(ymask, ylab)):
                    return EnvelopeReport(
                        False, pairs, detail=f"fails at x={combo} supports={plan}, y={ylab}"
                    )

    rng = random.Random(seed)
    even_masks = [msk for msk in range(1 << k) if bin(msk).count("1") % 2 == 0]
    odd_masks = [msk for msk in range(1 << k) if bin(msk).count("1") % 2 == 1]

    def random_element():
        parts = []
        for lab in labels:
            pool = even_masks if parities[lab] == 0 else odd_masks
            if not pool:
                continue
            mask = rng.choice(pool)
            coeff = Fraction(rng.randint(-2, 2))
            if coeff:
                parts.append(monomial(mask, lab, coeff))
        return merge(parts)

    for _ in range(random_trials):
        x, y = random_element(), random_element()
        pairs += 1
        if not env.jordan_holds(x, y):
            return EnvelopeReport(False, pairs, detail="fails at a random envelope pair")
    return EnvelopeReport(True, pairs)


def fraction_table_is_associative(table):
    d = len(table)
    for a, b, c, l in iproduct(range(d), repeat=4):
        lhs = sum((table[a][b][k] * table[k][c][l] for k in range(d)), Fraction(0))
        rhs = sum((table[b][c][k] * table[a][k][l] for k in range(d)), Fraction(0))
        if lhs != rhs:
            return False
    return True


def fraction_rank(rows):
    return len(row_reduce_by_fractions(rows))


def fraction_derivation_dim(table, par, d_par):
    """Superderivation dimension, eliminated in Fraction on the unscaled table."""
    rows, width = _map_equations(table, par, d_par)
    return width - fraction_rank(rows)


def _assert_rank_kernels_match(J):
    table, par = graded_table(J)
    ders = derivation_dims(J)
    assert (ders.even_dim, ders.odd_dim) == tuple(
        fraction_derivation_dim(table, par, d_par) for d_par in (0, 1)
    ), J.name
    got = power_spans(table)
    assert [divided_by_pivots(basis) for basis in got] == fraction_power_spans(table, J.dim), J.name


def _assert_kernels_match(J):
    assert check_super_jordan(J) == fraction_check_super_jordan(J), J.name
    assert envelope_jordan_check(J) == fraction_envelope_check(J), J.name
    table = flatten(J)
    assert table_is_associative(table) == fraction_table_is_associative(table), J.name
    _assert_rank_kernels_match(J)
    want = [reference_burde(J, i, j) for i, j in BURDE_PAIRS]
    assert _burde_values(J, BURDE_PAIRS) == want, J.name


# ---- inputs ----------------------------------------------------------------


def _instances(catalog):
    """Every catalog entry, families at instance 2."""
    out = []
    for name in catalog.names():
        entry = catalog.entry(name)
        out.append(catalog.lookup(name, 2) if entry.is_family else entry.algebra)
    return out


def _non_unimodular_change(J, rng):
    """J in a random graded basis given by integer matrices of determinant
    other than +-1, drawn until the moved constants have a denominator."""

    def matrix(size):
        while True:
            M = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
            if abs(int_matrix_det_adjugate(M)[0]) > 1:
                return M

    for _ in range(50):
        moved = apply_graded_change(J, matrix(J.m), matrix(J.n))
        if any(c.denominator > 1 for plane in flatten(moved) for row in plane for c in row):
            return moved
    raise AssertionError(f"no change of {J.name} gave a denominator")


# ---- tests -----------------------------------------------------------------


def test_clear_denominators_scales_by_the_lcm():
    assert clear_denominators([HALF, THIRD, Fraction(0), Fraction(-5, 4)]) == (12, [6, 4, 0, -15])
    assert clear_denominators([1, Fraction(2), Fraction(0)]) == (1, [1, 2, 0])
    assert all(type(c) is int for c in clear_denominators([HALF, THIRD])[1])
    assert clear_denominators([]) == (1, [])


def test_clear_denominators_clears_rational_functions_to_polynomials():
    s = RatFun.var()
    one = RatFun.const(1)
    values = [s, HALF, Fraction(0), one / (s + 1), s / (s * s + s), 3 * one / (s * s)]
    D, cleared = clear_denominators(values)
    # the lcm in Z[s] of s + 1, 2, s + 1 and s^2
    assert D == Poly([0, 0, 2, 2])
    assert all(type(c) is Poly for c in cleared)
    assert [RatFun(c, D) for c in cleared] == [RatFun.const(0) + x for x in values]
    # denominators 1 give a Poly table over the scale 1
    assert clear_denominators([s, 2 * s, Fraction(0)]) == (Poly([1]), [Poly.var(), Poly([0, 2]), Poly()])


def _jc16_rank_oracles(J):
    """The superderivation dimensions of a table over Q(s), by Gauss–Jordan
    over the field on the unscaled table."""
    table, par = graded_table(J)

    def rank(rows):
        return len(reduce_over_ratfun(rows)[1])

    ders = []
    for d_par in (0, 1):
        rows, width = _map_equations(table, par, d_par)
        ders.append(width - rank(rows))
    return tuple(ders)


def test_ratfun_table_is_cleared_to_polynomials(catalog):
    Jc16 = catalog.entry("Jc16").algebra
    table = flatten(Jc16)
    assert any(isinstance(c, RatFun) for plane in table for row in plane for c in row)
    scale, cleared = cleared_table(table)
    values = clear_denominators([c for plane in table for row in plane for c in row])
    assert (scale, [c for plane in cleared for row in plane for c in row]) == values
    assert scale == Poly([2])
    assert all(type(c) is Poly for plane in cleared for row in plane for c in row)
    # the kernels over Z[s] agree with the same loops over Q(s), unscaled
    report = check_super_jordan(Jc16)
    assert report.ok and report == fraction_check_super_jordan(Jc16)
    assert envelope_jordan_check(Jc16) == fraction_envelope_check(Jc16)
    assert table_is_associative(table) == fraction_table_is_associative(table)
    ders = derivation_dims(Jc16)
    assert (ders.even_dim, ders.odd_dim) == _jc16_rank_oracles(Jc16)
    # a perturbed symbolic table fails at the same quadruple
    broken = perturb_entry(catalog, "Jc16", 3)
    broken = unflatten(
        [[[c * RatFun.var() for c in row] for row in plane] for plane in graded_table(broken)[0]],
        broken.m,
        broken.n,
    )
    assert check_super_jordan(broken) == fraction_check_super_jordan(broken)
    assert not check_super_jordan(broken).ok


def test_power_filtration_of_the_symbolic_family(catalog):
    # the powers of Jc16 over Q(t) are eliminated over Z[s], like those of a
    # rational table, and agree with the sampled members
    Jc16 = catalog.entry("Jc16").algebra
    filtration = power_filtration(Jc16)
    assert filtration == ((2, 2),) * 4
    for t in (2, 3, 5):
        assert power_filtration(catalog.lookup("Jc16", t)) == filtration


def test_symbolic_kernels_need_no_gcd(catalog, monkeypatch):
    calls = []
    gcd = ratfun.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(ratfun, "poly_gcd", counted)
    Jc16 = catalog.entry("Jc16").algebra
    assert check_super_jordan(Jc16).ok
    derivation_dims(Jc16)
    envelope_jordan_check(Jc16)
    assert calls == []


def test_symbolic_derivations_build_no_rational_function(catalog, monkeypatch):
    # the rows of Jc16's superderivation systems mix Poly entries with int
    # zeros, and are cleared to Z[s] as they are, not through one RatFun per
    # entry
    Jc16 = catalog.entry("Jc16").algebra
    expected = _jc16_rank_oracles(Jc16)
    built = []
    init = RatFun.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatFun, "__init__", counted)
    assert clear_denominators([Poly.var(), 3, 0, HALF]) == (
        Poly([2]), [Poly([0, 2]), Poly([6]), Poly(), Poly([1])]
    )
    ders = derivation_dims(Jc16)
    assert (ders.even_dim, ders.odd_dim) == expected
    assert built == []


def test_kernels_match_fraction_loops_on_catalog(catalog):
    instances = _instances(catalog)
    assert len(instances) == 149
    for J in instances:
        _assert_kernels_match(J)


def test_kernels_match_fraction_loops_on_perturbations(catalog):
    names = ["J1", "J5", "J14", "J15", "Jc1", "Jc16", "Jc42", "Jc58", "Jf1", "Jf49", "Jf53"]
    variants = [perturb_entry(catalog, name, seed) for name in names for seed in (3, 4, 5)]
    assert sum(not check_super_jordan(J).ok for J in variants) * 2 >= len(variants)
    for J in variants:
        _assert_kernels_match(J)


def test_envelope_matches_the_full_loop_on_failing_tables(catalog):
    # the oracle runs every combo, repeated x included; the check skips the
    # repeats, so a failure after a skipped pair pins its number and detail
    names = ["J6", "J15", "Jc1", "Jc16", "Jc42", "Jc71", "Jf30", "Jf59"]
    variants = [perturb_entry(catalog, name, seed) for name in names for seed in (8, 9)]
    after_a_skip = set()
    for J in variants:
        for k in range(6):
            got = envelope_jordan_check(J, k)
            assert got == fraction_envelope_check(J, k), (J.name, k)
            xs, monomial_pairs, _ = _pair_schedule(J.m, J.n, k)
            kept = {number for _, _, ys in xs for number, _, _ in ys}
            first_skip = min(set(range(1, monomial_pairs + 1)) - kept, default=monomial_pairs)
            if not got.ok and first_skip < got.pairs_checked <= monomial_pairs:
                after_a_skip.add((J.m, J.n))
    assert after_a_skip == {(1, 3), (2, 2), (3, 1)}


def test_envelope_does_each_product_once(catalog, monkeypatch):
    calls = {"mul": 0, "plan": 0}
    mul, plan = envelope._Envelope.mul, envelope._support_plan

    def counted_mul(self, x, y):
        calls["mul"] += 1
        return mul(self, x, y)

    def counted_plan(parities, k):
        calls["plan"] += 1
        return plan(parities, k)

    monkeypatch.setattr(envelope._Envelope, "mul", counted_mul)
    monkeypatch.setattr(envelope, "_support_plan", counted_plan)
    _pair_schedule.cache_clear()
    Jc1 = catalog.lookup("Jc1")
    xs, monomial_pairs, random_pairs = _pair_schedule(Jc1.m, Jc1.n, 4)
    assert (len(xs), sum(len(ys) for _, _, ys in xs)) == (56, 208)
    assert (monomial_pairs, len(random_pairs)) == (320, 20)
    # the schedule is built once per type and k
    assert calls["plan"] == 84
    calls["plan"] = 0
    # one square per distinct x, four products per pair, five per random pair
    assert envelope_jordan_check(Jc1) == EnvelopeReport(True, 340)
    assert calls == {"mul": 56 + 4 * 208 + 5 * 20, "plan": 0}


def test_kernels_match_fraction_loops_after_non_unimodular_changes(catalog):
    rng = random.Random(16)
    names = ["J5", "J14", "Jc16", "Jc42", "Jc58", "Jf49", "Jf53"]
    moved = []
    for name in names:
        entry = catalog.entry(name)
        J = catalog.lookup(name, 2) if entry.is_family else entry.algebra
        moved.append(_non_unimodular_change(J, rng))
        moved.append(_non_unimodular_change(perturb_entry(catalog, name, 7), rng))
    for J in moved:
        _assert_kernels_match(J)


def test_kernels_match_fraction_loops_on_mixed_denominators(catalog):
    # e1 idempotent with Peirce values 1/2 (allowed) and 1/3 (not Jordan)
    peirce = load(
        [("e1", "e1", [(ONE, "e1")]), ("e1", "f1", [(HALF, "f1")]), ("e1", "f2", [(THIRD, "f2")])],
        (2, 2),
        name="peirce",
    )
    # Jc9 with e2 replaced by e2/3: e1 f2 = 1/2 f2 and e2 e2 = 1/3 e2
    rescaled = apply_graded_change(catalog.lookup("Jc9"), [[1, 0], [0, THIRD]], [[1, 0], [0, 1]])
    assert not check_super_jordan(peirce).ok and not envelope_jordan_check(peirce).ok
    assert check_super_jordan(rescaled).ok and envelope_jordan_check(rescaled).ok
    for J in (peirce, rescaled):
        assert {HALF, THIRD} <= {c for plane in flatten(J) for row in plane for c in row}
        assert cleared_table(flatten(J))[0] == 6
        _assert_kernels_match(J)


def test_cleared_table_scales_every_plane(catalog):
    rescaled = apply_graded_change(catalog.lookup("Jc9"), [[1, 0], [0, THIRD]], [[1, 0], [0, HALF]])
    table = flatten(rescaled)
    values = clear_denominators([c for plane in table for row in plane for c in row])
    scale, cleared = cleared_table(table)
    assert (scale, [c for plane in cleared for row in plane for c in row]) == values
    assert scale == 6
    assert all(type(c) is int for plane in cleared for row in plane for c in row)


def test_rank_kernels_pass_int_rows_to_the_shared_elimination(catalog, monkeypatch):
    kinds = []
    bareiss = linalg._bareiss

    def spy(rows):
        kinds.append({type(x) for row in rows for x in row})
        return bareiss(rows)

    rng = random.Random(19)
    tables = [_non_unimodular_change(catalog.lookup(name), rng) for name in ("J5", "Jc42", "Jf53")]
    tables.append(apply_graded_change(catalog.lookup("Jc9"), [[1, 0], [0, THIRD]], [[1, 0], [0, 1]]))
    tables += _instances(catalog)[:20]
    monkeypatch.setattr(linalg, "_bareiss", spy)
    for J in tables:
        derivation_dims(J)
        power_filtration(J)
    assert kinds and all(k <= {int} for k in kinds)
    # the symbolic family reaches the same loop over Z[s]
    del kinds[:]
    Jc16 = catalog.entry("Jc16").algebra
    derivation_dims(Jc16)
    assert len(kinds) == 2 and all(k == {Poly} for k in kinds)
