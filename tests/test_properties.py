"""Catalog-wide property sweeps tying the modules together."""

from fractions import Fraction

from superjordan.algebra import check_super_jordan, flatten, graded_table, load, power_filtration
from superjordan.invariants import (
    associated_algebra,
    nondegeneration_screen,
    table_is_associative,
    ungraded_derivation_dim,
)
from superjordan.verify import resolve_witness_algebras
from superjordan.degeneration import specialize_witness

from conftest import fraction_power_spans

ONE = Fraction(1)


def _sample(catalog, name):
    entry = catalog.entry(name)
    return catalog.lookup(name, 2) if entry.is_family else entry.algebra


def _graded_power_dims(J, r_max):
    """(even, odd) dimensions of J^1, ..., J^r_max by the Fraction oracle:
    each reduced row-echelon basis vector has the parity of its pivot."""
    table, par = graded_table(J)
    dims = []
    for basis in fraction_power_spans(table, r_max):
        odd = sum(par[next(j for j, x in enumerate(v) if x)] for v in basis)
        dims.append((len(basis) - odd, odd))
    return dims


def test_power_filtration_monotone_and_stable(catalog):
    # dims are non-increasing everywhere; stabilization happens by r = m+n
    # for every entry except Jc68, whose powers plateau at (1,0) for r = 3,4
    # and only then drop to zero at r = 5 (the power subspaces are not a
    # descending chain, so a plateau may still be followed by a drop)
    late_stabilizers = {"Jc68"}
    for name in catalog.names():
        J = _sample(catalog, name)
        d = J.m + J.n
        dims = _graded_power_dims(J, d + 3)
        assert dims[:d] == list(power_filtration(J)), name
        for (e0, o0), (e1, o1) in zip(dims[1:], dims[2:]):
            assert e1 <= e0 and o1 <= o0, name
        if name in late_stabilizers:
            assert dims[d - 1] != dims[d] and dims[d] == dims[d + 1] == dims[d + 2], name
        else:
            assert dims[d - 1] == dims[d] == dims[d + 1], name


def test_associated_algebra_passes_identity_everywhere(catalog):
    for name in catalog.names():
        J = _sample(catalog, name)
        a = associated_algebra(J)
        assert check_super_jordan(a).ok, name
        # projection: only the odd-odd products survive, and it is idempotent
        assert all(
            x == 0 for plane in a.alpha for row in plane for x in row
        ) and flatten(associated_algebra(a)) == flatten(a), name


def test_screen_soundness_on_verified_witnesses(catalog, verified_witnesses):
    # a necessary-condition screen must never obstruct a verified degeneration
    # (family-swept sources excluded: they are not fixed-pair degenerations)
    for wit, verdict, _ in verified_witnesses:
        if not verdict.verified:
            continue
        if wit.family_swept:
            continue
        src, tgt = resolve_witness_algebras(catalog, wit)
        se, te = catalog.entry(wit.source), catalog.entry(wit.target)
        graph = catalog.even_graph_for(src.m)
        rep = nondegeneration_screen(
            src,
            tgt,
            even_label_a=se.even_part_label,
            even_label_b=te.even_part_label,
            even_reachable=graph.reachable,
        )
        assert not rep.violations, (wit.label, rep.lines())


def test_generic_fiber_for_every_witness(catalog, verified_witnesses):
    # specializing the deformation parameter at a regular value lands inside
    # the source's own orbit: cheap ungraded invariants must agree
    for wit, verdict, _ in verified_witnesses:
        if not verdict.verified:
            continue
        if wit.family_swept:
            continue
        src, _ = resolve_witness_algebras(catalog, wit)
        try:
            fiber, _ram = specialize_witness(wit, src, Fraction(7))
        except ZeroDivisionError:
            fiber, _ram = specialize_witness(wit, src, Fraction(11))
        base = flatten(src)
        assert ungraded_derivation_dim(fiber) == ungraded_derivation_dim(base), wit.label
        assert table_is_associative(fiber) == table_is_associative(base), wit.label


def test_negative_control_mutated_entry_fails():
    # J5's table plus an idempotent square is no longer a Jordan superalgebra
    mutated = load(
        [
            ("e", "e", [(ONE, "e")]),
            ("e", "f1", [(ONE, "f2")]),
            ("f2", "f3", [(ONE, "e")]),
        ],
        (1, 3),
        name="J5-mutated",
    )
    rep = check_super_jordan(mutated)
    assert not rep.ok and rep.violation is not None
