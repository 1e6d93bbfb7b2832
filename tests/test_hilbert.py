"""Hilbert series of monomial ideals and the Hilbert-driven pair skip.

The numerator is checked against counting standard monomials and the
dimension against the subset search, both in `reference_groebner`. The
division oracle, which runs Buchberger with a Hilbert floor on graded
towers, is checked against the reference Buchberger and against the
same run without the floor, on towers where w is regular and on towers
where it is a zerodivisor.
"""

import random
from pathlib import Path

import pytest

import mfkit.groebner as groebner
from mfkit.errors import MfkitError
from mfkit.fields import QQ, PrimeField
from mfkit.groebner import (
    DivisionOracle,
    GroebnerBasis,
    buchberger_with_reps,
    hilbert_function,
    hilbert_numerator,
    krull_dimension,
    normal_form,
)
from mfkit.poly import MonomialOrder, PolyRing
from mfkit.tower import build_tower
from mfkit.workbench import load_workbench

from . import reference_groebner
from .conftest import CORPUS_DIR
from .genutil import build_corpus_towers, ci_quadrics, rand_homogeneous_poly


def ring_of(nvars, field=QQ):
    return PolyRing(tuple(f"x{i}" for i in range(nvars)), field)


def rand_exponents(rng, nvars, count, top):
    return [tuple(rng.randint(0, top) for _ in range(nvars)) for _ in range(count)]


def times_one_minus_power(q, e):
    """q(t) * (1 - t^e) on coefficient lists, trailing zeros dropped."""
    out = list(q) + [0] * e
    for k, c in enumerate(q):
        out[k + e] -= c
    while out and not out[-1]:
        out.pop()
    return out


class TestNumerator:
    def test_zero_and_unit_ideals(self):
        ring = ring_of(3)
        assert hilbert_numerator(ring, []) == [1]
        assert hilbert_numerator(ring, [ring.pack((0, 0, 0)), ring.pack((1, 0, 0))]) == []

    def test_complete_intersections_of_monomials(self):
        ring = ring_of(2)
        x2, y2, xy = (ring.pack(e) for e in ((2, 0), (0, 2), (1, 1)))
        assert hilbert_numerator(ring, [x2, y2]) == [1, 0, -2, 0, 1]
        assert hilbert_numerator(ring, [xy]) == [1, 0, -1]
        # (x^2, x*y): x*(x, y), numerator 1 - 2t^2 + t^3.
        assert hilbert_numerator(ring, [x2, xy, ring.pack((3, 1))]) == [1, 0, -2, 1]

    def test_hilbert_function_below_zero(self):
        assert hilbert_function([1, 0, -1], 2, -1) == 0
        assert hilbert_function([1, 0, -1], 2, -5) == 0
        assert [hilbert_function([1, 0, -1], 2, d) for d in range(4)] == [1, 2, 2, 2]

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_matches_standard_monomial_counts(self, nvars):
        ring = ring_of(nvars)
        rng = random.Random(100 + nvars)
        for _ in range(60):
            gens = rand_exponents(rng, nvars, rng.randint(0, 6), 4)
            q = hilbert_numerator(ring, [ring.pack(g) for g in gens])
            for d in range(14):
                assert hilbert_function(q, nvars, d) == reference_groebner.standard_monomial_count(
                    gens, nvars, d
                )

    @pytest.mark.parametrize("nvars", [2, 3, 5])
    def test_update_by_one_generator_matches_recomputation(self, nvars):
        # Q(J + (m)) = Q(J) - t^deg(m) * Q(J : m), as Buchberger keeps it.
        ring = ring_of(nvars)
        rng = random.Random(200 + nvars)
        for _ in range(80):
            gens = [ring.pack(g) for g in rand_exponents(rng, nvars, rng.randint(0, 6), 3)]
            m = ring.pack(rand_exponents(rng, nvars, 1, 3)[0])
            q = groebner._numerator_plus(ring, hilbert_numerator(ring, gens), gens, m)
            assert q == hilbert_numerator(ring, gens + [m])


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5, 6])
def test_krull_dimension_matches_subset_search(nvars):
    # A set of monomials is a Groebner basis of the ideal it generates,
    # under any order.
    ring = ring_of(nvars)
    order = MonomialOrder.grevlex(nvars)
    rng = random.Random(300 + nvars)
    for _ in range(100):
        gens = rand_exponents(rng, nvars, rng.randint(0, 6), rng.choice([1, 2, 4]))
        basis = GroebnerBasis(tuple(ring.monomial(g) for g in gens), order)
        supports = [{i for i, e in enumerate(g) if e} for g in gens]
        assert krull_dimension(basis, nvars) == reference_groebner.independent_sets_max(supports, nvars)


# -- the division oracle's Hilbert floor --------------------------------------

TOWER_FIELDS = [QQ, PrimeField(32003), PrimeField(7)]


def random_graded_tower(ring, order, rng, zerodivisor, max_degree):
    """A homogeneous tower, built unchecked. With `zerodivisor`, every
    generator shares one linear factor, so w is a zerodivisor modulo a
    nonzero mid ideal."""
    while True:
        if zerodivisor:
            f = rand_homogeneous_poly(ring, rng, 1)
            gens = [f * rand_homogeneous_poly(ring, rng, rng.randint(1, max_degree - 1))
                    for _ in range(2)]
        else:
            gens = [rand_homogeneous_poly(ring, rng, rng.randint(1, max_degree))
                    for _ in range(rng.randint(1, 3))]
        coords = [rng.randint(-2, 2) for _ in gens]
        if all(not g.is_zero() for g in gens) and any(ring.field.from_int(k) for k in coords):
            w = ring.zero()
            for k, g in zip(coords, gens):
                w = w + g.scale(ring.field.from_int(k))
            if not w.is_zero():
                return build_tower(ring, gens, coords, order, allow_unchecked=True)


@pytest.mark.parametrize("field", TOWER_FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_oracle_matches_reference_and_the_run_without_floor(monkeypatch, field, kind):
    ring = PolyRing(("x", "y", "z"), field)
    order = getattr(MonomialOrder, kind)(3)
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for k in range(12):
        zerodivisor = k % 3 == 0
        t = random_graded_tower(ring, order, rng, zerodivisor, 3 if kind == "grevlex" else 2)
        gens = list(t.mid_basis.polys) + [t.w]
        oracle = DivisionOracle(t.mid_basis, t.w)
        # The run without the floor: a floor below every Hilbert
        # function skips no pair.
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_hilbert_floor", lambda modulo, w: lambda d: -1)
            polys, column = buchberger_with_reps(gens, order, modulo=t.mid_basis)
        assert list(oracle.combined.polys) == polys
        assert oracle.w_cofactors == column
        assert polys == reference_groebner.buchberger_with_reps(gens, order)[0]
        regular = t.validation.regular
        seen[regular] += 1
        if zerodivisor and t.mid_basis.polys:
            assert regular is False
        if regular:
            for _ in range(3):
                q = rand_homogeneous_poly(ring, rng, rng.randint(0, 2))
                p = t.w * q
                for b in t.mid_basis.polys:
                    p = p + b * rand_homogeneous_poly(ring, rng, 1)
                assert oracle.divide(p) == normal_form(q, t.mid_basis)
    assert seen[True] >= 4 and seen[False] >= 3


def graded_corpus_towers():
    towers = [t for t in build_corpus_towers().values() if all(g.is_homogeneous() for g in t.seq_gens)]
    for path in sorted(Path(CORPUS_DIR).glob("*.mfw")):
        try:
            t = load_workbench(str(path)).tower
        except MfkitError:  # files that fail before or while building their tower
            continue
        if all(g.is_homogeneous() for g in t.seq_gens):
            towers.append(t)
    return towers


def seed_one_quadric_towers():
    """The 12 towers of 3 quadrics that the benchmark's cli workload
    generates at seed 1, w the first quadric."""
    ring = PolyRing(tuple("abcde"), QQ)
    rng = random.Random(1)
    return [build_tower(ring, ci_quadrics(ring, rng), [1, 0, 0]) for _ in range(12)]


def test_seed_one_quadrics_start_with_the_lex_corpus_case():
    text = (CORPUS_DIR / "quadrics_lex.mfw").read_text(encoding="utf-8")
    gens_line = next(line for line in text.splitlines() if line.startswith("gens = "))
    first = seed_one_quadric_towers()[0]
    assert [first.ring.parse(s) for s in gens_line[len("gens = "):].split(", ")] == list(first.seq_gens)


COLUMN_REDUCTIONS = {"corpus": 53, "seed1": 95}


@pytest.mark.parametrize("source", ["corpus", "seed1"])
def test_regular_w_splits_the_series_and_no_spair_reduces_to_zero(monkeypatch, source):
    # w is a non-zerodivisor modulo mid exactly when the exact sequence's
    # kernel vanishes, that is Q_deep == (1 - t^e) * Q_mid. On these
    # towers the floor is then exact, and every S-pair that the oracle
    # still divides gives a new basis element. The divisions that reduce
    # the oracle's cofactor column modulo the mid basis (through
    # `normal_form`) are counted apart.
    towers = graded_corpus_towers() if source == "corpus" else seed_one_quadric_towers()
    assert len(towers) >= (5 if source == "corpus" else 12)
    remainders = []
    depth = {"buchberger": 0, "column": 0, "reductions": 0}
    divide, buchberger, reduce = groebner.divide_full, groebner.buchberger_with_reps, groebner.normal_form

    def counted_divide(*args):
        out = divide(*args)
        if depth["column"]:
            depth["reductions"] += depth["buchberger"] > 0
        elif depth["buchberger"]:
            remainders.append(out[0])
        return out

    def counted_buchberger(*args, **kwargs):
        depth["buchberger"] += 1
        try:
            return buchberger(*args, **kwargs)
        finally:
            depth["buchberger"] -= 1

    def counted_normal_form(*args):
        depth["column"] += 1
        try:
            return reduce(*args)
        finally:
            depth["column"] -= 1

    monkeypatch.setattr(groebner, "divide_full", counted_divide)
    monkeypatch.setattr(groebner, "buchberger_with_reps", counted_buchberger)
    monkeypatch.setattr(groebner, "normal_form", counted_normal_form)
    for t in towers:
        assert t.validation.regular is True
        ring, order = t.ring, t.order
        q_mid = hilbert_numerator(ring, [b.leading_monomial(order) for b in t.mid_basis.polys])
        q_deep = hilbert_numerator(ring, [b.leading_monomial(order) for b in t.quot_basis.polys])
        assert q_deep == times_one_minus_power(q_mid, t.w.degree())
        DivisionOracle(t.mid_basis, t.w)
    assert remainders
    assert not any(r.is_zero() for r in remainders)
    assert depth["reductions"] == COLUMN_REDUCTIONS[source]


def test_the_floor_decides_the_skip_and_only_on_homogeneous_input(monkeypatch):
    # The skip trusts the floor that `_hilbert_floor` computes. A floor
    # equal to the Hilbert function of the input's own leading monomials,
    # which overstates that of the ideal, skips every pair, so the run
    # returns the inputs made monic. On inhomogeneous input no floor is
    # computed.
    ring = PolyRing(("x", "y", "z"), QQ)
    order = MonomialOrder.grevlex(3)
    floors = []

    def run(texts):
        first, w = (ring.parse(s) for s in texts)
        mid = GroebnerBasis((first.monic(order)[0],), order)
        gens = [*mid.polys, w]
        q = hilbert_numerator(ring, [g.leading_monomial(order) for g in gens])
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_hilbert_floor",
                          lambda modulo, w: floors.append(w) or (lambda d: hilbert_function(q, 3, d)))
            with_floor = buchberger_with_reps(gens, order, mid)
        return with_floor, buchberger_with_reps(gens, order, mid)

    (skipped, _), (full, _) = run(["x*y + z^2", "x^2 - y*z"])
    assert len(skipped) == 2 < len(full)
    assert len(floors) == 1
    with_floor, without = run(["x*y + z", "x^2 - y*z"])
    assert with_floor == without
    assert len(floors) == 1


# -- the tracked cofactor column against the reference's full rows -----------

def field_name(field):
    return "qq" if field == QQ else f"fp:{field.p}"


def column_towers(field, kind):
    """(tower, w known regular) pairs: random graded towers, regular and
    zerodivisor, a hypersurface (empty mid ideal) and `tower_cusp.mfw`,
    whose sequence is inhomogeneous and whose w = x^2 is regular modulo
    the irreducible y^2 - x^3."""
    ring = PolyRing(("x", "y", "z"), field)
    order = getattr(MonomialOrder, kind)(3)
    rng = random.Random(23)
    towers = []
    for k in range(9):
        t = random_graded_tower(ring, order, rng, k % 3 == 0, 3 if kind == "grevlex" else 2)
        towers.append((t, t.validation.regular))
    hypersurface = build_tower(ring, [rand_homogeneous_poly(ring, rng, 3) or ring.var(0)], [1], order)
    assert not hypersurface.mid_basis.polys
    towers.append((hypersurface, True))
    cusp = load_workbench(str(CORPUS_DIR / "tower_cusp.mfw"), field_name(field), kind).tower
    assert cusp.validation.regular is None
    towers.append((cusp, True))
    return towers


@pytest.mark.parametrize("field", TOWER_FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_tracked_column_matches_the_reference_full_column(field, kind):
    # The oracle tracks only w's cofactor c of each combined element b,
    # reduced modulo mid; the reference carries a full row per element.
    # Both give the same basis, b - c*w reduces to 0 modulo mid, and for
    # a regular w, c is the reference's last entry reduced modulo mid, so
    # division agrees with the reference's.
    rng = random.Random(31)
    regular_seen = zerodivisor_seen = 0
    for t, regular in column_towers(field, kind):
        mid, order = t.mid_basis, t.order
        oracle = DivisionOracle(mid, t.w)
        ref_polys, ref_reps = reference_groebner.buchberger_with_reps(list(mid.polys) + [t.w], order)
        assert list(oracle.combined.polys) == ref_polys
        for b, c, rep in zip(ref_polys, oracle.w_cofactors, ref_reps):
            assert reference_groebner.w_cofactor_holds(b, c, t.w, mid.polys, order)
            assert normal_form(c, mid) == c
            if regular:
                assert c == normal_form(rep[-1], mid)
        if not regular:
            zerodivisor_seen += 1
            continue
        regular_seen += 1
        ring = t.ring
        for _ in range(3):
            p = t.w * rand_homogeneous_poly(ring, rng, rng.randint(0, 2))
            for m in mid.polys:
                p = p + m * rand_homogeneous_poly(ring, rng, 1)
            rem, cofs = reference_groebner.divide_full(p, ref_polys, order)
            assert rem.is_zero()
            q = ring.zero()
            for a, rep in zip(cofs, ref_reps):
                q = q + a * rep[-1]
            assert oracle.divide(p) == reference_groebner.divide_full(q, mid.polys, order)[0]
    assert regular_seen >= 4 and zerodivisor_seen >= 1
