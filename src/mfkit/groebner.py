"""Buchberger engine over a polynomial ring.

Provides reduced Groebner bases (deterministic: normal pair selection
with index tie-break), normal forms for equality in quotient rings,
extended division with cofactor tracking, exact division by a
non-zerodivisor modulo an ideal, and the Krull dimension of a
homogeneous quotient.

Representation tracking: `buchberger_with_reps` carries, for every
basis element, its expression as a combination of the input generators.
That is what makes exact division by a ring element possible: divide
against the combined basis of (ideal generators + the element) and read
off the element's cofactor.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm

from .errors import NotDivisible, NotHomogeneous, VariableMismatch, VerificationFailure
from .linalg import solve_linear
from .poly import (
    MonomialOrder,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal with a chosen monomial order."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def __post_init__(self):
        rings = {g.ring for g in self.generators if not g.is_zero()}
        if len(rings) > 1:
            raise VariableMismatch("ideal generators live in different rings")


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis together with its monomial order."""

    polys: tuple[Polynomial, ...]
    order: MonomialOrder

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)


@dataclass(frozen=True)
class ReductionTrace:
    """Result of extended division: input = remainder + sum(cof*basis)."""

    remainder: Polynomial
    cofactors: tuple[Polynomial, ...]


def _check_ring(p: Polynomial, divisors):
    for d in divisors:
        p._check_compatible(d)


def divide_full(p: Polynomial, divisors, order: MonomialOrder):
    """Multivariate long division of p by an ordered list of divisors.

    Returns (remainder, cofactors). The remainder contains no term
    divisible by any divisor's leading monomial; divisor selection is by
    list index, so the result is deterministic. Raises FieldMismatch or
    VariableMismatch when a divisor lives in another ring than p.

    Terms are processed from the largest monomial down. The pending
    monomials sit in a min-heap keyed by the negated `order.key`, so each
    monomial's key is computed once, when it first enters the heap. A
    monomial whose coefficient cancels keeps its heap entry and is
    skipped when popped; it cannot reappear later, because every term a
    reduction step adds is smaller than the monomial just popped.

    The loop runs on ints, fraction-free: the pending terms are an int
    dict `work` over one running denominator `mu`, so that
    p == work/mu + sum(cofactor_i * divisor_i) + remainder throughout.
    Each divisor enters in its cached integer form F = D*divisor. To
    cancel a pending term c*x^m against F's leading coefficient a, the
    field's `cancel` gives (s, t) with s*c == t*a; then work becomes
    s*work - t*x^u*F and mu becomes s*mu. Over GF(p), s is always 1 and
    mu stays 1. Over QQ, after each s > 1 the common content of work and
    mu is divided out, which makes mu the least common denominator of
    the pending terms at that step, so the ints stay as small as the
    fractions they stand for. Field elements are built only for the
    terms that leave the loop: one per cofactor term and one per
    remainder term.
    """
    ring = p.ring
    field = ring.field
    cancel, reduce_int, ratio = field.cancel, field.reduce_int, field.ratio
    _check_ring(p, divisors)
    lms = [d.leading_monomial(order) for d in divisors]
    forms = [d.integer_form() for d in divisors]
    work, mu = field.integer_form(p.terms)
    work = dict(work)
    heap = [(tuple(-v for v in order.key(m)), m) for m in work]
    heapify(heap)
    queued = set(work)
    rem: dict = {}
    # Popped monomials strictly decrease, so each divisor's quotient
    # monomials are distinct and can be stored without adding.
    cof_terms: list[dict] = [{} for _ in divisors]
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for i, lm in enumerate(lms):
            if mono_divides(lm, m):
                f_terms, den = forms[i]
                s, t = cancel(c, f_terms[lm])
                if s != 1:
                    for k in work:
                        work[k] *= s
                    mu *= s
                q_mono = mono_div(m, lm)
                cof_terms[i][q_mono] = ratio(t * den, mu)
                for dm, dc in f_terms.items():
                    if dm == lm:
                        continue
                    tm = mono_mul(dm, q_mono)
                    nc = reduce_int(work.get(tm, 0) - t * dc)
                    if nc:
                        work[tm] = nc
                        if tm not in queued:
                            queued.add(tm)
                            heappush(heap, (tuple(-v for v in order.key(tm)), tm))
                    else:
                        work.pop(tm, None)
                if s != 1:
                    g = gcd(mu, *work.values())
                    if g != 1:
                        for k in work:
                            work[k] //= g
                        mu //= g
                break
        else:
            rem[m] = ratio(c, mu)
    return Polynomial(ring, rem), [Polynomial(ring, t) for t in cof_terms]


def normal_form(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Canonical remainder of p modulo the basis; zero iff p is a member."""
    if not basis.polys:
        return p
    if p.is_zero():
        _check_ring(p, basis.polys)
        return p
    rem, _ = divide_full(p, basis.polys, basis.order)
    return rem


def reduce_with_cofactors(p: Polynomial, basis: GroebnerBasis) -> ReductionTrace:
    if not basis.polys:
        return ReductionTrace(p, ())
    rem, cofs = divide_full(p, basis.polys, basis.order)
    return ReductionTrace(rem, tuple(cofs))


def _spair(fi, fj, order):
    """S-polynomial data for monic fi, fj: (spoly, mult_i, mult_j) with
    spoly = mult_i*fi - mult_j*fj."""
    lmi = fi.leading_monomial(order)
    lmj = fj.leading_monomial(order)
    l = mono_lcm(lmi, lmj)
    ring = fi.ring
    ui = ring.monomial(mono_div(l, lmi))
    uj = ring.monomial(mono_div(l, lmj))
    return ui * fi - uj * fj, ui, uj


def _subtract_combination(rep, cofs, basis_reps):
    """rep - sum_i cofs[i] * basis_reps[i], computed entry by entry."""
    new_rep = list(rep)
    for c, r in zip(cofs, basis_reps):
        if c.is_zero():
            continue
        for j in range(len(new_rep)):
            new_rep[j] = new_rep[j] - c * r[j]
    return new_rep


def buchberger_with_reps(generators, order: MonomialOrder):
    """Reduced Groebner basis with representation tracking.

    Returns (basis polys, reps) where reps[i] is a tuple of cofactors,
    one per input generator, with basis[i] == sum_j reps[i][j] * gen[j]
    exactly. Deterministic: normal selection strategy (smallest pair lcm
    in the order) with (i, j) tie-break, coprime-criterion skip.
    """
    gens = [g for g in generators]
    if not gens:
        return [], []
    ring = gens[0].ring
    field = ring.field

    polys: list[Polynomial] = []
    reps: list[list[Polynomial]] = []

    def unit_rep(j, scale):
        row = [ring.zero() for _ in gens]
        row[j] = ring.const(scale)
        return row

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        lc = g.leading_coefficient(order)
        inv = field.inv(lc)
        polys.append(g.scale(inv))
        reps.append(unit_rep(j, inv))

    # Pending pairs as a min-heap of (key of the lcm of the leading
    # monomials, (i, j)): `polys` only grows inside the loop, so an
    # entry's key never goes stale and each pop is the smallest pair.
    pairs: list = []

    def add_pairs(k):
        lmk = polys[k].leading_monomial(order)
        for t in range(k):
            lcm = mono_lcm(polys[t].leading_monomial(order), lmk)
            heappush(pairs, (order.key(lcm), (t, k)))

    for k in range(1, len(polys)):
        add_pairs(k)
    while pairs:
        i, j = heappop(pairs)[1]
        lmi = polys[i].leading_monomial(order)
        lmj = polys[j].leading_monomial(order)
        if mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
            continue  # coprime leading monomials: spoly reduces to zero
        s, ui, uj = _spair(polys[i], polys[j], order)
        if s.is_zero():
            continue
        r, cofs = divide_full(s, polys, order)
        if r.is_zero():
            continue  # nothing new, so the representation is not needed
        rep_s = [ui * a - uj * b for a, b in zip(reps[i], reps[j])]
        rep_r = _subtract_combination(rep_s, cofs, reps)
        inv = field.inv(r.leading_coefficient(order))
        polys.append(r.scale(inv))
        reps.append([a.scale(inv) for a in rep_r])
        add_pairs(len(polys) - 1)

    # Minimalize: drop elements whose leading monomial is divisible by
    # another element's leading monomial.
    order_idx = sorted(range(len(polys)), key=lambda i: order.key(polys[i].leading_monomial(order)))
    kept: list[int] = []
    kept_lms: list = []
    for i in order_idx:
        lm = polys[i].leading_monomial(order)
        if any(mono_divides(l, lm) for l in kept_lms):
            continue
        kept.append(i)
        kept_lms.append(lm)
    polys = [polys[i] for i in kept]
    reps = [reps[i] for i in kept]

    # Interreduce tails until stable.
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1 :]
            other_reps = reps[:i] + reps[i + 1 :]
            if not others:
                continue
            rem, cofs = divide_full(polys[i], others, order)
            if rem == polys[i]:
                continue
            changed = True
            new_rep = _subtract_combination(reps[i], cofs, other_reps)
            inv = field.inv(rem.leading_coefficient(order))
            polys[i] = rem.scale(inv)
            reps[i] = [a.scale(inv) for a in new_rep]

    final = sorted(
        range(len(polys)), key=lambda i: order.key(polys[i].leading_monomial(order)), reverse=True
    )
    return [polys[i] for i in final], [tuple(reps[i]) for i in final]


def buchberger_basis(ideal: Ideal) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal under its order."""
    polys, _ = buchberger_with_reps(list(ideal.generators), ideal.order)
    return GroebnerBasis(tuple(polys), ideal.order)


class DivisionOracle:
    """Exact division by a non-zerodivisor w modulo a fixed ideal.

    Built once per (ideal, w); division then costs a single extended
    reduction against the combined basis of (ideal generators + w). The
    combined basis is the reduced Groebner basis of the ideal plus (w).
    The constructor certifies the cofactors that division relies on:
    each combined basis element must equal, exactly, the combination of
    the generators (mid_basis polys, then w) that its cofactors give,
    or VerificationFailure is raised.
    """

    def __init__(self, mid_basis: GroebnerBasis, w: Polynomial):
        if w.is_zero():
            raise NotDivisible("cannot divide by zero")
        self.order = mid_basis.order
        self.mid_basis = mid_basis
        gens = list(mid_basis.polys) + [w]
        polys, reps = buchberger_with_reps(gens, self.order)
        _certify_reps(polys, reps, gens)
        self.combined = GroebnerBasis(tuple(polys), self.order)
        self.w_cofactors = [rep[-1] for rep in reps]

    def divide(self, p: Polynomial) -> Polynomial:
        """q with p == w*q modulo the ideal, in normal form; unique there."""
        if p.is_zero():
            _check_ring(p, self.combined.polys)
            return p
        rem, cofs = divide_full(p, self.combined.polys, self.order)
        if not rem.is_zero():
            raise NotDivisible(
                f"{p!r} is not divisible modulo the ideal (remainder {rem!r})"
            )
        q = p.ring.zero()
        for c, wc in zip(cofs, self.w_cofactors):
            if not c.is_zero() and not wc.is_zero():
                q = q + c * wc
        return normal_form(q, self.mid_basis)


def _certify_reps(polys, reps, gens):
    """Raise VerificationFailure unless polys[i] == sum_j reps[i][j] * gens[j].

    Checked exactly on the integer forms that division uses: with
    R_j = d_j*reps[i][j], G_j = e_j*gens[j], B = D*polys[i] and L the lcm
    of the d_j*e_j, the identity holds iff
    D * sum_j (L/(d_j*e_j)) * R_j*G_j == L * B, coefficient by
    coefficient after the field's `reduce_int`.
    """
    reduce_int = gens[0].ring.field.reduce_int
    gen_forms = [g.integer_form() for g in gens]
    for i, (b, rep) in enumerate(zip(polys, reps)):
        pairs = [(r.integer_form(), gen_forms[j]) for j, r in enumerate(rep) if not r.is_zero()]
        den = lcm(*[rd * gd for (_, rd), (_, gd) in pairs])
        acc: dict = {}
        for (r_terms, rd), (g_terms, gd) in pairs:
            k = den // (rd * gd)
            for rm, rc in r_terms.items():
                c = k * rc
                for gm, gc in g_terms.items():
                    m = mono_mul(rm, gm)
                    acc[m] = acc.get(m, 0) + c * gc
        b_terms, bd = b.integer_form()
        lhs = {m: v for m, c in acc.items() if (v := reduce_int(bd * c))}
        if lhs != {m: reduce_int(den * c) for m, c in b_terms.items()}:
            raise VerificationFailure(
                f"cofactors of combined basis element {i} do not reproduce it"
            )


def exact_divide_by_nzd(p: Polynomial, w: Polynomial, mid_basis: GroebnerBasis) -> Polynomial:
    """q in normal form with p == w*q modulo ideal(mid_basis).

    Raises NotDivisible when p is not in (w) + ideal(mid_basis). The
    caller asserts that w is a non-zerodivisor modulo the ideal, which
    makes q unique modulo the ideal.
    """
    return DivisionOracle(mid_basis, w).divide(p)


def _independent_sets_max(lead_supports, nvars: int) -> int:
    """Largest variable subset meeting no leading-monomial support."""
    best = -1
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sub = set(subset)
            if all(not s <= sub for s in lead_supports):
                return size
    return best


def krull_dimension(basis: GroebnerBasis, nvars: int) -> int:
    """Krull dimension of ring/ideal from a Groebner basis of the ideal.

    Read combinatorially from the leading monomials (largest variable
    set containing no leading monomial's support). Returns nvars for
    the empty basis (zero ideal) and -1 for the unit ideal.
    """
    supports = []
    for b in basis.polys:
        lm = b.leading_monomial(basis.order)
        supports.append({i for i, e in enumerate(lm) if e > 0})
    return _independent_sets_max(supports, nvars)


def quotient_dimension(ideal: Ideal) -> int:
    """Krull dimension of ring/ideal for a homogeneous ideal.

    Computed by `krull_dimension` on the reduced basis. Returns the
    number of variables for the zero ideal and -1 for the unit ideal.
    """
    if not ideal.generators:
        raise ValueError("ambient ring unknown; include at least a zero generator")
    gens = [g for g in ideal.generators if not g.is_zero()]
    if not gens:
        return ideal.generators[0].ring.nvars
    for g in gens:
        if not g.is_homogeneous():
            raise NotHomogeneous(f"generator {g!r} is not homogeneous")
    basis = buchberger_basis(Ideal(tuple(gens), ideal.order))
    return krull_dimension(basis, gens[0].ring.nvars)


def membership_oracle(p: Polynomial, generators, max_cof_degree: int) -> bool:
    """Brute-force ideal membership via linear algebra.

    Solves p = sum a_i g_i with deg a_i <= max_cof_degree by equating
    coefficients, independently of any Groebner machinery. Intended as
    a test oracle on small instances.
    """
    gens = [g for g in generators if not g.is_zero()]
    if p.is_zero():
        return True
    if not gens:
        return False
    ring = p.ring
    field = ring.field
    monos = list(_monomials_up_to(ring.nvars, max_cof_degree))
    columns = []
    target_monos = set(p.terms)
    for g in gens:
        for m in monos:
            prod = g.mul_term(m, field.one)
            columns.append(prod)
            target_monos.update(prod.terms)
    # One augmented row per monomial; column len(columns) holds p.
    rows = {m: {} for m in sorted(target_monos)}
    for k, col in enumerate(columns):
        for m, c in col.terms.items():
            rows[m][k] = c
    for m, c in p.terms.items():
        rows[m][len(columns)] = c
    return solve_linear(list(rows.values()), len(columns), field) is not None


def _monomials_up_to(nvars: int, max_degree: int):
    for d in range(max_degree + 1):
        yield from _degree_monomials(nvars, d)


def _degree_monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographically."""
    if nvars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in _degree_monomials(nvars - 1, degree - e):
            yield (e,) + rest


def monomials_of_degree(nvars: int, degree: int) -> list:
    return list(_degree_monomials(nvars, degree))
