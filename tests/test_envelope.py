import random
from fractions import Fraction

from superjordan.algebra import check_super_jordan, load
from superjordan.envelope import envelope_jordan_check, grassmann_sign

ONE = Fraction(1)
HALF = Fraction(1, 2)


def test_grassmann_sign_basic():
    # xi1 * xi2 = -xi2 * xi1, xi_i^2 = 0
    assert grassmann_sign(0b01, 0b10) == 1
    assert grassmann_sign(0b10, 0b01) == -1
    assert grassmann_sign(0b01, 0b01) == 0
    assert grassmann_sign(0, 0b1011) == 1


def test_grassmann_sign_associative():
    rng = random.Random(1)
    for _ in range(200):
        s, t, u = (rng.randrange(16) for _ in range(3))
        if s & t or (s | t) & u:
            continue
        left = grassmann_sign(s, t) * grassmann_sign(s | t, u)
        right = grassmann_sign(t, u) * grassmann_sign(s, t | u)
        assert left == right


def test_envelope_passes_catalog_samples(catalog):
    for name in ("J1", "J15", "Jc58", "Jf49"):
        J = catalog.lookup(name)
        assert envelope_jordan_check(J).ok, name


def test_envelope_detects_bad_scalar():
    bad = load([("e", "e", [(ONE, "e")]), ("e", "f", [(Fraction(2), "f")])], (1, 1))
    assert not envelope_jordan_check(bad).ok


def test_envelope_k0_even_only():
    b2 = load([("e1", "e1", [(ONE, "e1")]), ("e1", "e2", [(HALF, "e2")])], (2, 0))
    assert envelope_jordan_check(b2, k=0).ok
    # a non-Jordan commutative even algebra must fail already at k=0
    bad = load([("e1", "e1", [(ONE, "e1")]), ("e1", "e2", [(Fraction(3), "e2")])], (2, 0))
    assert not envelope_jordan_check(bad, k=0).ok


def test_envelope_agrees_across_catalog(catalog):
    # both checks pass on every catalog entry (families at a sample parameter)
    for name in catalog.names():
        entry = catalog.entry(name)
        J = catalog.lookup(name, 2) if entry.is_family else entry.algebra
        assert check_super_jordan(J).ok, name
        assert envelope_jordan_check(J).ok, name


def test_envelope_agrees_with_graded_identity_on_perturbations(catalog):
    # a perturbation that breaks one check must break the other
    from conftest import perturb_entry

    names = ["J5", "J14", "Jc42", "Jc16", "Jf53"]
    for i, name in enumerate(names):
        variant = perturb_entry(catalog, name, seed=100 + i)
        graded_ok = check_super_jordan(variant).ok
        env_ok = envelope_jordan_check(variant).ok
        assert graded_ok == env_ok, (name, graded_ok, env_ok)
