"""Shared deterministic generators for the test suite.

Everything takes an explicit `random.Random` so that counted acceptance
loops are reproducible.
"""

from __future__ import annotations

import random

from mfkit.fields import QQ
from mfkit.mfcat import (
    MatrixFactorization,
    direct_sum,
    suspend,
    verify_mf,
    verify_morphism,
)
from mfkit.poly import PolyRing, Polynomial
from mfkit.tower import Level, RingMatrix, RingTower, build_tower


def rand_poly(ring: PolyRing, rng: random.Random, max_degree: int = 2,
              terms: int = 3, coeff_bound: int = 3) -> Polynomial:
    p = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-coeff_bound, coeff_bound)
        p = p + ring.monomial(tuple(exps), ring.field.from_int(c))
    return p


def rand_homogeneous_poly(ring: PolyRing, rng: random.Random, degree: int,
                          coeff_bound: int = 3) -> Polynomial:
    from mfkit.groebner import monomials_of_degree

    p = ring.zero()
    for exps in monomials_of_degree(ring.nvars, degree):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            p = p + ring.monomial(exps, ring.field.from_int(c))
    return p


def rand_matrix(tower: RingTower, rng: random.Random, nrows: int, ncols: int,
                max_degree: int = 2, level: Level = Level.MID) -> RingMatrix:
    return RingMatrix(
        tower,
        level,
        [[rand_poly(tower.ring, rng, max_degree) for _ in range(ncols)] for _ in range(nrows)],
    )


def rand_homogeneous_matrix(tower: RingTower, rng: random.Random, nrows: int,
                            ncols: int, degree: int,
                            level: Level = Level.MID) -> RingMatrix:
    return RingMatrix(
        tower,
        level,
        [
            [rand_homogeneous_poly(tower.ring, rng, degree) for _ in range(ncols)]
            for _ in range(nrows)
        ],
    )


def build_corpus_towers() -> dict[str, RingTower]:
    """The four towers the ship corpus uses, built directly."""
    ruv = PolyRing(("u", "v"), QQ)
    rxy = PolyRing(("x", "y"), QQ)
    return {
        "uv": build_tower(ruv, [ruv.parse("u*v")], [1]),
        "squares_sum": build_tower(ruv, [ruv.parse("u^2+v^2")], [1]),
        "two_squares": build_tower(rxy, [rxy.parse("x^2"), rxy.parse("y^2")], [1, 0]),
        "cusp": build_tower(rxy, [rxy.parse("x^2"), rxy.parse("y^2-x^3")], [1, 0]),
    }


def build_corpus_objects(towers: dict[str, RingTower]) -> dict[str, MatrixFactorization]:
    def mat(tower, rows):
        return RingMatrix.from_strings(tower, Level.MID, rows)

    uv = towers["uv"]
    sq = towers["squares_sum"]
    two = towers["two_squares"]
    cusp = towers["cusp"]
    return {
        "A": verify_mf(mat(uv, [["u"]]), mat(uv, [["v"]])),
        "B": verify_mf(mat(sq, [["u", "v"], ["-v", "u"]]), mat(sq, [["u", "-v"], ["v", "u"]])),
        "C": verify_mf(mat(two, [["x"]]), mat(two, [["x"]])),
        "D": verify_mf(mat(cusp, [["x"]]), mat(cusp, [["x"]])),
    }


def rand_derived_object(base: MatrixFactorization, rng: random.Random,
                        max_summands: int = 2) -> MatrixFactorization:
    """A random direct sum of the base object and suspensions of it."""
    obj = base if rng.random() < 0.5 else suspend(base)
    for _ in range(rng.randrange(max_summands)):
        extra = base if rng.random() < 0.5 else suspend(base)
        obj = direct_sum(obj, extra)
    return obj


def rand_nullhomotopic_morphism(source: MatrixFactorization,
                                target: MatrixFactorization,
                                rng: random.Random, max_degree: int = 2,
                                homogeneous_degree: int | None = None):
    """A morphism built as (s@phi1 + psi2@t, t@psi1 + phi2@s).

    Any such pair commutes with both squares, so this generates genuine
    morphisms together with an on-the-nose nullhomotopy (s, t).
    """
    tower = source.tower
    if homogeneous_degree is None:
        s = rand_matrix(tower, rng, target.rank_f, source.rank_g, max_degree)
        t = rand_matrix(tower, rng, target.rank_g, source.rank_f, max_degree)
    else:
        s = rand_homogeneous_matrix(tower, rng, target.rank_f, source.rank_g, homogeneous_degree)
        t = rand_homogeneous_matrix(tower, rng, target.rank_g, source.rank_f, homogeneous_degree)
    f = s @ source.phi + target.psi @ t
    g = t @ source.psi + target.phi @ s
    theta = verify_morphism(source, target, f, g)
    return theta, s, t


def koszul_mf(n: int, field=QQ) -> MatrixFactorization:
    """The Koszul factorization of w = x0*y0 + ... + x{n-1}*y{n-1}.

    Rank 2^(n-1): start from ([x0], [y0]) and tensor with ([x_i], [y_i]),
    (P, Q) -> ([[P, -y_i], [x_i, Q]], [[Q, y_i], [-x_i, P]]).
    """
    names = tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n))
    ring = PolyRing(names, field)
    xs = [ring.var(i) for i in range(n)]
    ys = [ring.var(n + i) for i in range(n)]
    w = ring.zero()
    for x, y in zip(xs, ys):
        w = w + x * y
    tower = build_tower(ring, [w], [1])
    p, q = [[xs[0]]], [[ys[0]]]
    for x, y in zip(xs[1:], ys[1:]):
        r = len(p)

        def diag(c):
            return [[c if i == j else ring.zero() for j in range(r)] for i in range(r)]

        def blocks(a, b, c, d):
            return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]

        p, q = blocks(p, diag(-y), diag(x), q), blocks(q, diag(y), diag(-x), p)
    return verify_mf(RingMatrix(tower, Level.MID, p), RingMatrix(tower, Level.MID, q))
