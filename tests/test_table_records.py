"""Each algebra keeps one read-only Table per basis order
(``SuperAlgebra.table``): read from the blocks once, in label order, and
cleared and grouped once, whichever sweep reads it first."""

import dataclasses
import sys
from fractions import Fraction

from superjordan import algebra
from superjordan.algebra import (
    Table,
    apply_graded_change,
    cleared_table,
    flatten,
    label_position,
    product_groups,
)
from superjordan.catalog import FAMILY_SAMPLES, Catalog
from superjordan.verify import verify_certificates, verify_identities, verify_orbits, verify_witnesses


def _catalog_algebras(cat):
    """Every algebra the catalog holds: the entries, the family samples and
    the low-dimensional tables."""
    out = {id(J): J for name in cat.names() for J in [cat.entry(name).algebra, *cat.instances(name)]}
    out.update((id(J), J) for J in cat.lowdim.values())
    return list(out.values())


def _table_from_multiply(J, pos):
    """The table in the basis x_pos[0], x_pos[1], ..., from the products of
    ``SuperAlgebra.multiply``, which reads the blocks itself."""
    labels = J.labels()
    basis = [J.basis_element(labels[p]) for p in pos]
    return tuple(
        tuple(tuple(J.multiply(x, y)[p] for p in pos) for y in basis) for x in basis
    )


def _counting(monkeypatch, name):
    """Replace ``algebra.<name>``, in every module that holds it, by a
    wrapper that keeps each call's first argument and result; that keeps
    them alive, so their ids stay distinct."""
    calls = []
    original = getattr(algebra, name)

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args[0], out))
        return out

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("superjordan") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_family_samples_are_built_once(catalog):
    first = catalog.instances("Jc16")
    assert [J.name for J in first] == [f"Jc16^{p}" for p in FAMILY_SAMPLES]
    again = catalog.instances("Jc16")
    assert again == first and all(a is b for a, b in zip(again, first))
    assert catalog.instances("J1")[0] is catalog.entry("J1").algebra
    other = catalog.lookup("Jc16", 7)
    assert other.name == "Jc16^7" and other not in first
    assert all(x is not other for x in catalog.instances("Jc16"))


def test_certificate_sweep_reads_and_clears_each_table_once(monkeypatch):
    cat = Catalog()
    flattened = _counting(monkeypatch, "flatten")
    cleared = _counting(monkeypatch, "cleared_table")
    grouped = _counting(monkeypatch, "product_groups")
    rows = verify_certificates(cat, trials=20, seed=0)
    assert len(rows) == 265

    # the (instance, basis order) pairs the sweep reads
    instances, pairs = {}, set()
    for cs in cat.closed_sets():
        for name in [cs.source, *cs.targets]:
            for J in cat.instances(name):
                instances[id(J)] = J
                pairs.add((id(J), tuple(label_position(lab, J.m, J.n) for lab in cs.basis)))
    # the blocks of each instance are read once, in label order
    read = [J for J, _table in flattened]
    assert len(read) == len({id(J) for J in read}) == len(instances)
    # each table is cleared once, and only a table an instance keeps
    kept = {id(instances[j]._tables[pos]) for j, pos in pairs}
    assert len(kept) == len(pairs)
    assert len(cleared) == len({id(t) for t, _out in cleared}) <= len(pairs)
    assert all(id(t) in kept for t, _out in cleared)
    # each cleared table is grouped once, and nothing else is
    assert sorted(id(t) for t, _groups in grouped) == sorted(id(out[1]) for _t, out in cleared)


def test_kept_tables_match_the_blocks_after_the_sweeps():
    cat = Catalog()
    verify_identities(cat)
    verify_orbits(cat)
    verify_witnesses(cat)
    verify_certificates(cat, trials=5, seed=0)
    checked = cleared_count = 0
    for J in _catalog_algebras(cat):
        for pos, table in J._tables.items():
            assert isinstance(table, Table)
            assert table == _table_from_multiply(J, pos), (J.name, pos)
            checked += 1
            if "cleared" in vars(table):
                cleared_count += 1
                scale, fresh = cleared_table(_table_from_multiply(J, pos))
                assert table.cleared == (scale, fresh), J.name
                assert isinstance(fresh, tuple) and all(isinstance(row, tuple) for plane in fresh for row in plane)
                if "groups" in vars(table.cleared[1]):
                    assert table.cleared[1].groups == product_groups(fresh), J.name
    assert checked > 149 and cleared_count > 100


def test_a_changed_copy_keeps_its_own_table(catalog):
    J = catalog.lookup("J12")
    table = J.table()
    renamed = dataclasses.replace(J, name="renamed")
    assert renamed == J and renamed.table() == table and renamed.table() is not table
    moved = apply_graded_change(J, [[Fraction(2)]], [[1, 1, 0], [0, 1, 0], [1, 0, 3]])
    assert moved.table() is not table
    assert moved.table() == _table_from_multiply(moved, range(moved.dim))
    assert J.table() is table and table == flatten(J, J.labels())


def test_a_perturbed_copy_keeps_its_own_table(catalog):
    J = catalog.lookup("J12")
    table = J.table()
    changed = [[list(row) for row in plane] for plane in table]
    changed[0][0][0] += 1  # e e, of the even type-(1,3) vector
    variant = algebra.unflatten(changed, J.m, J.n, name="J12~")
    assert variant.table() != table and J.table() is table
    assert variant.table() == _table_from_multiply(variant, range(variant.dim))


def test_every_basis_order_permutes_the_label_table(catalog):
    for name in ("J1", "J12", "Jc9"):
        J = catalog.lookup(name)
        labels = J.labels()
        order = list(reversed(labels))
        pos = [label_position(lab, J.m, J.n) for lab in order]
        assert J.table(order) is J.table(order) == flatten(J, order) == _table_from_multiply(J, pos)
