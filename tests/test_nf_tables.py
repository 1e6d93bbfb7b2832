"""The tower's normal-form tables and the division oracle's table.

`RingTower.normal_form` and `DivisionOracle.divide` sum per-monomial
images kept in tables. Each is tested against the slow exact path it
replaces, `groebner.normal_form` and `reference_tower.divide`, on cold
and on warm tables, and the tables themselves are pinned: a repeated
polynomial takes no reduction, a standard monomial never takes one, and
a polynomial from another ring is refused before any lookup.
"""

import random
from fractions import Fraction

import pytest

import mfkit.groebner as groebner
from mfkit.errors import FieldMismatch, NotDivisible, VariableMismatch
from mfkit.fields import QQ, PrimeField
from mfkit.poly import MonomialOrder, PolyRing
from mfkit.tower import Level, build_tower

from . import reference_tower

# (vars, sequence generators, w coordinates): a hypersurface (empty mid
# basis), two squares with mixed coordinates, three quadrics in four
# variables with a fractional coordinate, and the inhomogeneous cusp
# tower of corpus/tower_cusp.mfw.
PRESENTATIONS = {
    "uv": (("u", "v"), ["u*v"], [1]),
    "squares": (("x", "y"), ["x^2", "y^2"], [2, 3]),
    "quadrics": (("a", "b", "c", "d"),
                 ["a^2 + b*c - d^2", "a*b - 2*c*d + b^2", "c^2 - a*d + 3*b*d"],
                 [1, Fraction(1, 2), 0]),
    "cusp": (("x", "y"), ["x^2", "y^2 - x^3"], [1, 0]),
}
FIELDS = {"qq": QQ, "fp7": PrimeField(7), "fp32003": PrimeField(32003)}
TOWER_CASES = [(name, field, kind) for name in PRESENTATIONS for field in FIELDS
               for kind in ("grevlex", "lex")]


def make_tower(name, field_name, kind):
    names, gens, coords = PRESENTATIONS[name]
    field = FIELDS[field_name]
    ring = PolyRing(names, field)
    order = getattr(MonomialOrder, kind)(ring.nvars)
    coords = [c if isinstance(c, int) else field.ratio(c.numerator, c.denominator) for c in coords]
    return build_tower(ring, [ring.parse(g) for g in gens], coords, order, allow_unchecked=True)


def rand_fraction_poly(ring, rng, terms=6, max_degree=5):
    """A sum of random terms a/b * x^e with 1 <= b <= 6, so that every
    denominator is a unit in GF(7) too."""
    p = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        p = p + ring.from_ints({ring.pack(exps): rng.randint(-9, 9)}, rng.randint(1, 6))
    return p


def tower_cases(f):
    return pytest.mark.parametrize("name,field_name,kind", TOWER_CASES,
                                   ids=["-".join(c) for c in TOWER_CASES])(f)


@tower_cases
def test_normal_form_matches_groebner_normal_form(name, field_name, kind):
    tower = make_tower(name, field_name, kind)
    rng = random.Random(f"{name}-{field_name}-{kind}")
    polys = [tower.ring.zero()] + [rand_fraction_poly(tower.ring, rng) for _ in range(12)]
    for level, basis in ((Level.MID, tower.mid_basis), (Level.QUOT, tower.quot_basis)):
        # Cold tables on the first pass, warm ones on the second.
        for _ in range(2):
            for p in polys:
                assert tower.normal_form(p, level) == groebner.normal_form(p, basis)


@tower_cases
def test_divide_matches_the_reference_division(name, field_name, kind):
    tower = make_tower(name, field_name, kind)
    oracle, ring = tower.oracle, tower.ring
    rng = random.Random(f"{name}-{field_name}-{kind}")
    divisible = [ring.zero()]
    for _ in range(8):
        p = tower.w * rand_fraction_poly(ring, rng, terms=3, max_degree=3)
        for g in tower.mid_gens:
            p = p + g * rand_fraction_poly(ring, rng, terms=2, max_degree=2)
        divisible.append(p)
    others = [rand_fraction_poly(ring, rng) for _ in range(8)]
    for _ in range(2):
        for p in divisible:
            q = oracle.divide(p)
            assert q == reference_tower.divide(oracle, p)
            assert groebner.normal_form(tower.w * q - p, tower.mid_basis).is_zero()
        failures = 0
        for p in others:
            try:
                expected = reference_tower.divide(oracle, p)
            except NotDivisible as exc:
                failures += 1
                with pytest.raises(NotDivisible) as err:
                    oracle.divide(p)
                assert str(err.value) == str(exc)
            else:
                assert oracle.divide(p) == expected
        assert failures > 0


def count_divisions(monkeypatch):
    calls = []
    divide_full = groebner.divide_full
    monkeypatch.setattr(groebner, "divide_full",
                        lambda p, divisors, order: calls.append(p) or divide_full(p, divisors, order))
    return calls


@pytest.mark.parametrize("level", [Level.MID, Level.QUOT])
def test_a_second_normal_form_makes_no_division(monkeypatch, level):
    tower = make_tower("quadrics", "qq", "grevlex")
    p = rand_fraction_poly(tower.ring, random.Random(3))
    calls = count_divisions(monkeypatch)
    first = tower.normal_form(p, level)
    assert calls
    calls.clear()
    assert tower.normal_form(p, level) == first
    assert calls == []


def test_a_second_division_makes_no_division(monkeypatch):
    tower = make_tower("quadrics", "qq", "grevlex")
    p = tower.w * rand_fraction_poly(tower.ring, random.Random(4))
    calls = count_divisions(monkeypatch)
    q = tower.oracle.divide(p)
    assert calls
    calls.clear()
    assert tower.oracle.divide(p) == q
    assert calls == []


@pytest.mark.parametrize("level", [Level.MID, Level.QUOT])
def test_a_standard_monomial_never_divides(monkeypatch, level):
    tower = make_tower("squares", "qq", "grevlex")
    ring = tower.ring
    calls = count_divisions(monkeypatch)
    p = ring.parse("1/2*x*y - 3*x + y + 5")  # no term divisible by x^2 or y^2
    assert tower.normal_form(p, level) == p
    table = tower._tables[level]
    assert all(table[m] == ({m: 1}, 1) for m in p.nums)
    with pytest.raises(NotDivisible):
        tower.oracle.divide(p)
    assert calls == []


@pytest.mark.parametrize("other, error", [
    (PolyRing(("x", "y"), PrimeField(7)), FieldMismatch),
    (PolyRing(("x", "z"), QQ), VariableMismatch),
    (PolyRing(("x", "y", "z"), QQ), VariableMismatch),
])
def test_another_ring_is_refused_before_any_lookup(monkeypatch, other, error):
    tower = make_tower("squares", "qq", "grevlex")
    calls = count_divisions(monkeypatch)
    sizes = [len(t) for t in tower._tables.values()], len(tower.oracle._table)
    for p in (other.parse("x^2 + x"), other.zero()):
        for level, basis in ((Level.MID, tower.mid_basis), (Level.QUOT, tower.quot_basis)):
            with pytest.raises(error):
                tower.normal_form(p, level)
            assert calls == []
            with pytest.raises(error):
                groebner.normal_form(p, basis)
            calls.clear()
        with pytest.raises(error):
            tower.oracle.divide(p)
        assert calls == []
        with pytest.raises(error):
            reference_tower.divide(tower.oracle, p)
        calls.clear()
    assert ([len(t) for t in tower._tables.values()], len(tower.oracle._table)) == sizes
