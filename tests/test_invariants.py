import random
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from superjordan.algebra import apply_graded_change, check_super_jordan, flatten, load, power_filtration
from superjordan.invariants import (
    BURDE_PAIRS,
    TypeMismatch,
    _burde_values,
    associated_algebra,
    derivation_dims,
    even_part,
    identify_algebra,
    is_associative,
    nondegeneration_screen,
    orbit_dimension,
    screen_violations,
    ungraded_derivation_dim,
    ungraded_power_dims,
)
from superjordan.verify import _screen_inputs, screen_pair, verify_lemma_screens

from conftest import reference_burde

ONE = Fraction(1)
HALF = Fraction(1, 2)
DATA = Path(__file__).resolve().parent.parent / "src" / "superjordan" / "data"


def burde_invariant(J, i=1, j=1, trials=16, seed=0):
    """Sampled value of tr(L(x)^i) tr(L(y)^j) / tr(L(x)^i L(y)^j): the
    one-pair case of ``_burde_values``."""
    return _burde_values(J, ((i, j),), trials, seed)[0]


def test_derivation_dims_examples(catalog):
    assert derivation_dims(catalog.lookup("J15")) == derivation_dims(catalog.lookup("J15"))
    d15 = derivation_dims(catalog.lookup("J15"))
    assert (d15.even_dim, d15.odd_dim) == (9, 3)
    d18 = derivation_dims(catalog.lookup("J18"))
    assert (d18.even_dim, d18.odd_dim) == (9, 0)
    z = load([], (2, 2))
    dz = derivation_dims(z)
    assert (dz.even_dim, dz.odd_dim) == (8, 8)


def test_orbit_dimension_examples(catalog):
    assert orbit_dimension(catalog.lookup("J15")) == 4
    assert orbit_dimension(catalog.lookup("Jc58")) == 4
    assert orbit_dimension(catalog.lookup("Jf1")) == 15


def test_associated_algebra_examples(catalog):
    j3 = catalog.lookup("J3")
    a3 = associated_algebra(j3)
    assert flatten(a3) == flatten(catalog.lookup("J1"))
    z = load([], (1, 3))
    assert flatten(associated_algebra(z)) == flatten(z)
    for name in ("J11", "Jc42", "Jf49"):
        a = associated_algebra(catalog.lookup(name))
        aa = associated_algebra(a)
        assert flatten(aa) == flatten(a)
        assert check_super_jordan(a).ok


def test_burde_examples():
    b1 = load([("e1", "e1", [(ONE, "e1")]), ("e1", "e2", [(ONE, "e2")])], (2, 0))
    val = burde_invariant(b1, 1, 1)
    assert val.defined and val.value == 2
    z = load([], (2, 2))
    assert burde_invariant(z, 1, 1).status == "not_defined"


def test_burde_invariant_under_conjugation(catalog):
    rng = random.Random(7)
    j = catalog.lookup("J16")
    base = burde_invariant(j, 1, 1)
    assert base.defined
    for _ in range(5):
        p_even = [[Fraction(rng.choice((1, 2, -1)))]]
        p_odd = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        from superjordan.linalg import int_matrix_det_adjugate

        det, _ = int_matrix_det_adjugate([[int(x) for x in row] for row in p_odd])
        if det == 0:
            continue
        moved = apply_graded_change(j, p_even, p_odd)
        got = burde_invariant(moved, 1, 1)
        assert got.defined and got.value == base.value


def test_shared_burde_samples_match_per_pair_loop(catalog):
    algebras = list(catalog.lowdim.values()) + [
        catalog.lookup(name) for name in ("J15", "Jc42", "Jf53")
    ]
    assert len(algebras) == 31 + 3
    pairs = BURDE_PAIRS + ((2, 1), (3, 1))
    statuses = set()
    for J in algebras:
        for seed in (0, 5):
            want = [reference_burde(J, i, j, seed=seed) for i, j in pairs]
            assert _burde_values(J, pairs, 16, seed) == want, J.name
            assert [burde_invariant(J, i, j, seed=seed) for i, j in pairs] == want, J.name
            statuses.update(v.status for v in want)
    # every exit of the loop is exercised
    assert statuses == {"defined", "not_defined", "not_constant"}


def test_is_associative_examples(catalog):
    assert is_associative(catalog.lookup("J7"))
    assert not is_associative(catalog.lookup("J15"))
    assert is_associative(load([], (1, 3)))


def test_even_part_examples(catalog):
    for name, label in (("J5", "U2"), ("J7", "U1"), ("Jf42", "T5")):
        J = catalog.lookup(name)
        graph = catalog.even_graph_for(J.m)
        cands = [(lab, catalog.node_algebra(lab)) for lab in graph.nodes]
        assert identify_algebra(even_part(J), cands) == label


def test_screen_examples(catalog):
    rep = screen_pair(catalog, "J5", "J7")
    assert any(v.item == "even-part" for v in rep.violations)
    rep2 = screen_pair(catalog, "J7", "J5")
    assert any(v.item == "orbit-dimension" for v in rep2.violations)
    j = catalog.lookup("J5")
    self_rep = nondegeneration_screen(j, j)
    assert not self_rep.violations


def test_screen_type_mismatch(catalog):
    with pytest.raises(TypeMismatch):
        nondegeneration_screen(catalog.lookup("J5"), catalog.lookup("Jc1"))


def test_invariance_under_graded_changes(catalog):
    # orbit dims and power filtrations are basis invariants
    rng = random.Random(3)
    from superjordan.linalg import int_matrix_det_adjugate

    for name in ("J5", "Jc42", "Jf53"):
        J = catalog.lookup(name)
        base_orbit = orbit_dimension(J)
        base_powers = power_filtration(J)
        base_assoc = is_associative(J)
        for _ in range(3):
            while True:
                pe = [[rng.randint(-2, 2) for _ in range(J.m)] for _ in range(J.m)]
                po = [[rng.randint(-2, 2) for _ in range(J.n)] for _ in range(J.n)]
                de, _ = int_matrix_det_adjugate(pe)
                do, _ = int_matrix_det_adjugate(po)
                if de != 0 and do != 0:
                    break
            moved = apply_graded_change(
                J,
                [[Fraction(x) for x in row] for row in pe],
                [[Fraction(x) for x in row] for row in po],
            )
            assert orbit_dimension(moved) == base_orbit
            assert power_filtration(moved) == base_powers
            assert is_associative(moved) == base_assoc


def test_graded_kernels_reduce_to_ungraded(catalog):
    # with no odd part a superderivation is a derivation; on every table the
    # graded power dimensions add up to the ungraded ones
    instances = [J for name in catalog.names() for J in catalog.instances(name)]
    even = [J for J in catalog.lowdim.values() if J.n == 0] + [even_part(J) for J in instances]
    even += [catalog.node_algebra(label) for m in (1, 2, 3) for label in catalog.even_graph_for(m).nodes]
    assert len(even) > len(instances)
    for J in even:
        ders = derivation_dims(J)
        assert (ders.even_dim, ders.odd_dim) == (ungraded_derivation_dim(flatten(J)), 0), J.name
    for J in list(catalog.lowdim.values()) + instances:
        summed = [e + o for e, o in power_filtration(J)]
        assert summed == ungraded_power_dims(flatten(J)), J.name


def _same_type_pairs(catalog, count, seed):
    names = catalog.names()
    pairs = [
        (a, b)
        for a in names
        for b in names
        if a != b and catalog.entry(a).mn == catalog.entry(b).mn
    ]
    return random.Random(seed).sample(pairs, count)


def _first_violation(catalog, a, b):
    return next(screen_violations(**_screen_inputs(catalog, a, b)), None)


def test_quick_screen_is_first_violation_of_full_screen(catalog):
    lemma = [(grp.source, tgt) for grp in catalog.lemma_pairs for tgt in grp.targets]
    assert len(lemma) == 280
    first_items = set()
    for a, b in lemma + _same_type_pairs(catalog, 150, 11):
        full = screen_pair(catalog, a, b).violations
        first = _first_violation(catalog, a, b)
        assert full[:1] == ((first,) if first else ()), (a, b)
        first_items.update(v.item for v in full[:1])
    # the sample reaches past the first condition of the order
    assert len(first_items) >= 3, first_items


def test_lemma_pairs_violate_their_published_reason(catalog):
    items = set()
    for grp in catalog.lemma_pairs:
        for tgt in grp.targets:
            A, B = catalog.instances(grp.source)[0], catalog.instances(tgt)[0]
            stream = screen_violations(
                A,
                B,
                catalog.entry(grp.source).even_part_label,
                catalog.entry(tgt).even_part_label,
                catalog.even_graph_for(A.m).reachable,
            )
            assert any(v.item == grp.reason for v in stream), (grp.source, tgt, grp.reason)
            items.add(grp.reason)
    assert items == {"even-part"}


def test_lemma_rows_read_the_screen_up_to_their_reason(catalog, monkeypatch):
    import superjordan.invariants as invariants
    from superjordan.catalog import Catalog

    rows = verify_lemma_screens(catalog)
    assert len(rows) == 280 and all(row.ok for row in rows)
    # the detail is the first violation of the screen
    for row in rows[:40]:
        source, target = row.check_id[len("screen:") :].split("-x->")
        assert row.detail == _first_violation(catalog, source, target).item
    # every published reason is even-part, which comes before the orbit
    # dimensions in the stream
    orbits = []
    monkeypatch.setattr(invariants, "orbit_dimension", lambda J: orbits.append(J) or 0)
    assert [row.display for row in verify_lemma_screens(Catalog())] == [row.display for row in rows]
    assert orbits == []


def test_lemma_row_fails_when_its_published_reason_is_not_found(tmp_path):
    from superjordan.catalog import Catalog

    root = tmp_path / "data"
    shutil.copytree(DATA, root)
    path = root / "catalog" / "screens" / "lemma_pairs.txt"
    group = "J5 -/-> J7 J8 J9 J11 J15 J16 J17 J19 ; reason = even-part"
    text = path.read_text()
    assert group in text
    path.write_text(
        text.replace(
            group,
            "J5 -/-> J7 ; reason = associativity\n"
            "J5 -/-> J8 J9 J11 J15 J16 J17 J19 ; reason = even-part",
        )
    )
    rows = verify_lemma_screens(Catalog(root))
    assert len(rows) == 280
    assert [row.display for row in rows if not row.ok] == ["FAIL screen:J5-x->J7 even-part"]
