"""Buchberger engine over a polynomial ring.

Provides reduced Groebner bases, normal forms for equality in quotient
rings, extended division with cofactor tracking, exact division by a
non-zerodivisor modulo an ideal, and the Krull dimension of a
homogeneous quotient.

Cofactor tracking: exact division by a ring element w modulo an ideal
(mid) divides against the combined basis of (mid + w) and needs, for
each combined element b, only its cofactor c on w: b - c*w lies in
(mid). `buchberger_with_reps` tracks that one column when given a basis
of (mid), and reduces each new value of it modulo that basis, which
changes c only by an element of (mid) and keeps it small. Given no
basis, it does no cofactor arithmetic. The division oracle certifies
the column by reducing each b - c*w to zero modulo (mid).

Pair handling in Buchberger: each element that joins the basis runs the
Gebauer-Moeller update (criteria B_k, M and F, with the product
criterion; Gebauer and Moeller, "On an installation of Buchberger's
algorithm", J. Symbolic Comput. 6, 1988), which drops the pairs that
those criteria prove redundant. The remaining pairs are taken by the
sugar strategy (Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar
cube, please, or selection strategies in the Buchberger algorithm",
ISSAC 1991). Each element carries a sugar degree: an input generator's
is its total degree, and a new element takes the sugar of its pair. A
pair (i, k) with lcm l has sugar max(sugar_t + deg l - deg lm_t) over
t in (i, k), the degree its S-polynomial would have if the input were
homogenized. Pairs are taken smallest sugar first, then smallest lcm in
the order, with an (i, j) tie-break. On homogeneous input the sugar is
deg l, so pairs go degree by degree. Selection is deterministic, and the
reduced basis is unique whatever the sequence.

Hilbert series: `hilbert_numerator` reads the numerator Q(t) of
HS(S/J) = Q(t)/(1-t)^n for a monomial ideal J, such as the leading-term
ideal in(G) of a Groebner basis G, and `hilbert_function` evaluates
HF(d) from it. The Krull dimension is n minus the multiplicity of the
factor (1-t) in Q.

Hilbert-driven pair skipping (Traverso 1996, "Hilbert functions and the
Buchberger algorithm", J. Symbolic Comput. 22): Buchberger on the
homogeneous generators of I = (mid) + (w), a basis of (mid) followed by
w, computes a floor from that basis, a lower bound L(d) <= HF(S/I)(d) in
every degree (`_hilbert_floor`). G lies in I throughout, so
in(G) is inside in(I), and HF(S/in(G))(d) >= HF(S/in(I))(d) =
HF(S/I)(d) >= L(d), since S/I and S/in(I) have one Hilbert function
(Macaulay). When a pair of degree d is taken and the current leading
monomials leave exactly L(d) standard monomials in degree d, equality
holds throughout, so in(G)_d == in(I)_d. A nonzero remainder of a
degree-d S-polynomial would be a homogeneous element of I of degree d
whose leading monomial lies in in(I)_d but is divisible by no leading
monomial of G, which is impossible. So every pair of degree d reduces to zero from then on, and
it is skipped. A skipped pair would have added nothing, so the basis,
the tracked cofactors and the rest of the pair sequence are those of
the run without the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import comb, gcd, lcm

from .errors import NotDivisible, VariableMismatch, VerificationFailure
from .poly import MAX_DEGREE, WIDTH, MonomialOrder, Polynomial, past_range, sum_of_products


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


def _check_ring(p: Polynomial, divisors):
    for d in divisors:
        p._check_compatible(d)


def _rebase(out: dict, dens: list, k: int, num: int, mu: int) -> int:
    """Move the int dict out (over dens[k]) and a new numerator num (over
    mu) to the lcm of the two denominators; returns num rescaled."""
    common = lcm(dens[k], mu)
    scale = common // dens[k]
    if scale != 1:
        for key in out:
            out[key] *= scale
    dens[k] = common
    return num * (common // mu)


def _divisor(d: Polynomial, order: MonomialOrder):
    """(negated key of the leading monomial, leading numerator, tail, top
    degree) of the divisor d under `order`, cached on d for the last
    order asked.

    tail lists (monomial, negated key, numerator) for every term but the
    leading one, and top is the largest total degree among them.
    """
    cached = d._tail
    if cached is not None and (cached[0] is order or cached[0] == order):
        return cached[1]
    key, shift = order.key, d.ring.shift
    lm = d.leading_monomial(order)
    tail = tuple((m, -key(m), c) for m, c in d.nums.items() if m != lm)
    top = max([m >> shift for m, _, _ in tail], default=0)
    data = (-key(lm), d.nums[lm], tail, top)
    d._tail = (order, data)
    return data


def divide_full(p: Polynomial, divisors, order: MonomialOrder):
    """Multivariate long division of p by an ordered list of divisors.

    Returns (remainder, cofactors). The remainder contains no term
    divisible by any divisor's leading monomial; divisor selection is by
    list index, so the result is deterministic. Raises FieldMismatch or
    VariableMismatch when a divisor lives in another ring than p, and
    BudgetExceeded when a reduction step would produce a monomial past
    the packed range (possible under lex, where smaller monomials may
    have larger degree; checked once per step against the divisor's
    largest tail degree).

    Terms are processed from the largest monomial down. The pending terms
    are keyed by their negated `order.key`, an int, and those keys sit in
    a min-heap. Keys are linear in the packed monomial, so only p's own
    terms and each divisor's terms go through `order.key` (a divisor's
    when it first reduces a term, once per divisor and order, cached on
    the divisor next to its leading monomial). Reducing the term of key
    k by a divisor with leading key l gives the quotient key k - l, and
    each new term's key is a divisor term's key plus that, one int
    addition. A new term's packed monomial is also one addition, made
    only when its key is first queued. A key whose coefficient cancels
    keeps its heap entry and is skipped when popped; it cannot reappear
    later, because every term a reduction step adds is smaller than the
    monomial just popped.

    The loop runs on the polynomials' own (nums, den) form, fraction-free:
    the pending terms are an int dict `work` over one running
    denominator `mu`, starting from (p.nums, p.den), so that
    p == work/mu + sum(cofactor_i * divisor_i) + remainder throughout.
    To cancel a pending term c*x^m against the leading numerator a of a
    divisor (nums F, denominator D), the field's `cancel` gives (s, t)
    with s*c == t*a; then work becomes s*work - t*x^u*F and mu becomes
    s*mu, and the cofactor gains the term (t*D/mu)*x^u. Over GF(p), s is
    always 1 and mu stays 1. Over QQ, after each s > 1 the common content
    of work and mu is divided out, which makes mu the least common
    denominator of the pending terms at that step, so the ints stay as
    small as the fractions they stand for. The remainder and each
    cofactor are built as one int dict over their own denominator: a
    term that arrives over a new mu rescales the dict to the lcm of the
    two, which never happens while mu is constant. Each is normalized
    once, when the loop ends.
    """
    ring = p.ring
    field = ring.field
    cancel, reduce_int = field.cancel, field.reduce_int
    _check_ring(p, divisors)
    guard, shift = ring.guard, ring.shift
    lms = [d.leading_monomial(order) for d in divisors]
    data = [None] * len(divisors)
    key = order.key
    # Pending terms by negated key: numerators in `work`, and in `monos`
    # the monomial of every key ever queued.
    work, monos = {}, {}
    for m, c in p.nums.items():
        k = -key(m)
        work[k] = c
        monos[k] = m
    mu = p.den
    heap = list(work)
    heapify(heap)
    # The remainder and the cofactors, each an int dict and its
    # denominator. Popped monomials strictly decrease, so each output's
    # monomials are distinct and can be stored without adding.
    outs: list[dict] = [{} for _ in divisors] + [{}]
    out_dens = [mu] * len(outs)
    while heap:
        k = heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        m = monos[k]
        for i, lm in enumerate(lms):
            if not (m - lm) & guard:
                if data[i] is None:
                    data[i] = _divisor(divisors[i], order)
                lk, lc, tail, top = data[i]
                q = m - lm
                if (q >> shift) + top > MAX_DEGREE:
                    raise past_range((q >> shift) + top)
                s, t = cancel(c, lc)
                if s != 1:
                    for w in work:
                        work[w] *= s
                    mu *= s
                num = t * divisors[i].den
                if out_dens[i] != mu:
                    num = _rebase(outs[i], out_dens, i, num, mu)
                outs[i][q] = num
                qk = k - lk
                for dm, dk, dc in tail:
                    tk = dk + qk
                    nc = reduce_int(work.get(tk, 0) - t * dc)
                    if nc:
                        work[tk] = nc
                        if tk not in monos:
                            monos[tk] = dm + q
                            heappush(heap, tk)
                    else:
                        work.pop(tk, None)
                if s != 1:
                    g = gcd(mu, *work.values())
                    if g != 1:
                        for w in work:
                            work[w] //= g
                        mu //= g
                break
        else:
            if out_dens[-1] != mu:
                c = _rebase(outs[-1], out_dens, -1, c, mu)
            outs[-1][m] = c
    # Every stored numerator is nonzero, and reduced over GF(p), so an
    # output over denominator 1 is canonical as it stands.
    polys = [Polynomial(ring, out) if den == 1 else Polynomial(ring, *field.normalize(out, den))
             for out, den in zip(outs, out_dens)]
    return polys[-1], polys[:-1]


def normal_form(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Canonical remainder of p modulo the basis; zero iff p is a member."""
    if not basis.polys:
        return p
    if p.is_zero():
        _check_ring(p, basis.polys)
        return p
    rem, _ = divide_full(p, basis.polys, basis.order)
    return rem


def linear_image(p: Polynomial, images) -> Polynomial:
    """The image of p under a linear map, from the images of its monomials.

    `images` lists, in p.nums order, the image (nums, den) of each
    monomial of p; the result is sum_m (p.nums[m]/p.den)*image_m. It is
    one int dict over L*p.den, with L the lcm of the images'
    denominators, normalized once; over GF(p), and for integral images
    over QQ, L == 1.
    """
    den = 1
    for _, d in images:
        if d != 1:
            den = lcm(den, d)
    acc: dict = {}
    get = acc.get
    for c, (nums, d) in zip(p.nums.values(), images):
        if d != den:
            c *= den // d
        for m, a in nums.items():
            acc[m] = get(m, 0) + c * a
    ring = p.ring
    return Polynomial(ring, *ring.field.normalize(acc, den * p.den))


def _spair(fi, fj, order):
    """S-polynomial data for monic fi, fj: (spoly, mult_i, mult_j) with
    spoly = mult_i*fi + mult_j*fj, where mult_j is a negated monomial."""
    lmi = fi.leading_monomial(order)
    lmj = fj.leading_monomial(order)
    ring = fi.ring
    l = ring.lcm(lmi, lmj)
    ui = Polynomial(ring, {l - lmi: 1})
    uj = ring.from_ints({l - lmj: -1})
    return sum_of_products(ring, ((ui, fi), (uj, fj))), ui, uj


def _update(ring, k, lms, live, pairs, pair_key):
    """Gebauer-Moeller update for basis element k, whose leading monomial
    is lms[k]; `live` maps each pending pair (i, j) to its lcm, and
    `pairs` is the heap of (pair_key(lcm, i, j), (i, j)). Monomials are packed
    in `ring`: m divides l iff not (l - m) & ring.guard.

    B_k drops a pending pair (i, j) when lms[k] divides its lcm l and
    neither lcm(i, k) nor lcm(j, k) equals l. Of the new pairs (t, k), M
    drops one whose lcm some other new lcm strictly divides, and F keeps
    one pair per lcm, the one with the smallest t. A group of new pairs
    with one lcm is dropped whole when any of them has coprime leading
    monomials (the product criterion).
    """
    lmk = lms[k]
    guard, lcm_of = ring.guard, ring.lcm
    for (i, j), l in list(live.items()):
        if not (l - lmk) & guard and lcm_of(lms[i], lmk) != l and lcm_of(lms[j], lmk) != l:
            del live[i, j]
    groups: dict = {}
    for t in range(k):
        groups.setdefault(lcm_of(lms[t], lmk), []).append(t)
    for l, ts in groups.items():
        if any(m != l and not (l - m) & guard for m in groups):
            continue
        if any(l == lms[t] + lmk for t in ts):
            continue
        live[ts[0], k] = l
        heappush(pairs, (pair_key(l, ts[0], k), (ts[0], k)))


def _minimal_monomials(ring, monomials) -> list:
    """The minimal generators of the ideal of the packed `monomials`,
    ascending as ints (a divisor is never the bigger int)."""
    guard = ring.guard
    kept: list = []
    for m in sorted(set(monomials)):
        if all((m - k) & guard for k in kept):
            kept.append(m)
    return kept


def _add_shifted(q: list, r: list, s: int) -> list:
    """q(t) + t^s * r(t), on coefficient lists."""
    out = q + [0] * (len(r) + s - len(q))
    for k, c in enumerate(r):
        out[k + s] += c
    return out


def _trim(q: list) -> list:
    while q and not q[-1]:
        q.pop()
    return q


def _numerator(ring, gens: list) -> list:
    """Hilbert numerator of the proper monomial ideal with minimal
    generators `gens`, trailing zeros allowed.

    Pairwise coprime generators give prod (1 - t^deg m). Otherwise pivot
    on p = x^a, with x the variable in the most generators and a the
    median exponent of x among the generators that are not powers of x:
    N(J) = N(J + (p)) + t^a * N(J : p) (Bayer and Stillman, "Computing
    the Hilbert series", 1992). A power x^b among the generators has b
    above every other exponent of x, by minimality, so p is not in J,
    and both J + (p) and J : p are proper and strictly larger than J.
    """
    lcm_of, shift = ring.lcm, ring.shift
    support = 0
    for m in gens:
        if lcm_of(support, m) != support + m:
            break
        support += m
    else:
        q = [1]
        for m in gens:
            q = _add_shifted(q, [-c for c in q], m >> shift)
        return q
    field = (1 << WIDTH) - 1
    off = max(range(0, shift, WIDTH), key=lambda o: sum(1 for m in gens if (m >> o) & field))
    exps = sorted(e for m in gens if (e := (m >> off) & field) and e != m >> shift)
    a = exps[len(exps) // 2]
    unit = (1 << off) + (1 << shift)
    plus = [m for m in gens if (m >> off) & field < a] + [a * unit]
    colon = _minimal_monomials(ring, [m - min((m >> off) & field, a) * unit for m in gens])
    return _add_shifted(_numerator(ring, plus), _numerator(ring, colon), a)


def hilbert_numerator(ring, monomials) -> list[int]:
    """Numerator Q of the Hilbert series HS(S/J) = Q(t)/(1-t)^n of the
    monomial ideal J of S = k[x_1..x_n] that the packed `monomials`
    generate, by the Bayer-Stillman pivot recursion (`_numerator`).

    Q[k] is the coefficient of t^k, with no trailing zeros: [1] for the
    zero ideal and [] for the unit ideal. Given the leading monomials of
    a Groebner basis of I, this is the numerator of HS(S/I) too.
    """
    gens = _minimal_monomials(ring, monomials)
    if gens and gens[0] == 0:
        return []
    return _trim(_numerator(ring, gens))


def _numerator_plus(ring, q: list, gens, m: int) -> list:
    """The numerator of J + (m), given q, that of J = (gens):
    Q(J + (m)) = Q(J) - t^deg(m) * Q(J : m), and J : m is generated by
    lcm(g, m) / m over the generators g."""
    colon = hilbert_numerator(ring, [ring.lcm(g, m) - m for g in gens])
    return _trim(_add_shifted(q, [-c for c in colon], m >> ring.shift))


def hilbert_function(numerator, nvars: int, d: int) -> int:
    """HF(d) = sum_k q_k * C(d - k + n - 1, n - 1), the coefficient of
    t^d in numerator(t)/(1-t)^n; 0 for d < 0."""
    if d < 0:
        return 0
    return sum(q * comb(d - k + nvars - 1, nvars - 1) for k, q in enumerate(numerator[: d + 1]))


def _hilbert_floor(modulo: GroebnerBasis, w: Polynomial):
    """The floor L(d) = max(0, HF_mid(d) - HF_mid(d - e)) of S/(mid + w),
    with mid the ideal of `modulo` and e = deg w, read off the leading
    monomials of `modulo` alone; a function of d.

    It is a lower bound on the Hilbert function of S/(mid + w) whether or
    not w is regular: the exact sequence
        0 -> ((mid : w)/mid)(-e) -> (S/mid)(-e) --w--> S/mid -> S/(mid + w) -> 0
    gives HF_deep(d) = HF_mid(d) - HF_mid(d - e) + dim ((mid : w)/mid)_(d-e).
    When w is a non-zerodivisor modulo mid the last term is zero and the
    floor is exact: a degree is skipped as soon as its leading monomials
    are complete, so few of the pairs that are still divided reduce to
    zero (none on the graded corpus towers).
    """
    ring = w.ring
    q = hilbert_numerator(ring, [g.leading_monomial(modulo.order) for g in modulo.polys])
    bound = _add_shifted(q, [-c for c in q], w.degree())
    return lambda d: max(0, hilbert_function(bound, ring.nvars, d))


def buchberger_with_reps(generators, order: MonomialOrder, modulo=None):
    """Reduced Groebner basis, optionally with the last generator's cofactors.

    Returns (basis polys, column). Without `modulo` the column is None
    and no cofactor is computed. With `modulo`, a GroebnerBasis of the
    ideal (mid) that the other generators span, the generators must be
    `modulo.polys` followed by one more, w (else ValueError); column[i]
    is then the cofactor c_i of w in basis[i], in normal form modulo
    `modulo`: basis[i] - c_i*w lies in (mid) (module docstring). Each
    new value is reduced as it is made.

    Deterministic: pairs are taken by sugar (module docstring; Giovini
    et al. 1991), smallest sugar first, then smallest lcm in the order,
    with an (i, j) tie-break. On homogeneous input the sugar of a pair is
    its lcm's total degree. Each element k that joins the basis runs the
    Gebauer-Moeller update (`_update`), which drops the pairs that its
    criteria prove redundant.

    With `modulo` and homogeneous generators, the Hilbert floor L of
    S/(mid + w) (`_hilbert_floor`) is computed when the first pair is
    taken, and a pair of degree d is skipped once the current leading
    monomials leave exactly L(d) standard monomials in degree d; such a
    pair reduces to zero (module docstring), so the result is the same.
    The numerator of HS(S/in(G)) is updated as each element joins.
    """
    gens = list(generators)
    track = modulo is not None
    if track and tuple(gens[:-1]) != modulo.polys:
        raise ValueError("with `modulo`, the generators must be modulo.polys followed by w")
    if not gens:
        return [], [] if track else None
    ring = gens[0].ring

    def column_entry(lead, cofs, others, num, den):
        # (sum of the products in `lead` - sum_k cofs[k]*others[k]) * num/den,
        # in normal form modulo `modulo`.
        pairs = lead + [(-q, c) for q, c in zip(cofs, others) if q and c]
        return normal_form(sum_of_products(ring, pairs).scale(num, den), modulo)

    polys: list[Polynomial] = []
    column: list[Polynomial] = []
    sugar: list[int] = []

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        monic, num, den = g.monic(order)
        polys.append(monic)
        sugar.append(g.degree())
        if track:
            column.append(normal_form(ring.from_ints({0: num}, den), modulo)
                          if j == len(gens) - 1 else ring.zero())

    lms = [p.leading_monomial(order) for p in polys]
    shift = ring.shift

    def pair_key(lcm, i, k):
        d = lcm >> shift
        return max(sugar[i] + d - (lms[i] >> shift), sugar[k] + d - (lms[k] >> shift)), order.key(lcm)

    # Pending pairs as a min-heap of ((sugar, key of the lcm of the
    # leading monomials), (i, j)); `live` maps each pair that still counts
    # to its lcm. `polys` only grows, so a key never goes stale; a pair
    # that the update drops keeps its heap entry and is skipped when popped.
    pairs: list = []
    live: dict = {}
    for k in range(len(polys)):
        _update(ring, k, lms, live, pairs, pair_key)
    # Hilbert-driven skipping: `floor` and `numerator`, that of S/in(G)
    # for the current leading monomials, are computed when the first pair
    # is taken, and `complete` holds the degrees d with in(G)_d ==
    # in(I)_d, which stay so as G grows.
    hilbert = track and all(g.is_homogeneous() for g in gens)
    floor = numerator = None
    complete: set = set()
    while pairs:
        (pair_sugar, _), ij = heappop(pairs)
        l = live.pop(ij, None)
        if l is None:
            continue
        if hilbert:
            d = l >> ring.shift
            if d in complete:
                continue
            if numerator is None:
                floor, numerator = _hilbert_floor(modulo, gens[-1]), hilbert_numerator(ring, lms)
            if hilbert_function(numerator, ring.nvars, d) == floor(d):
                complete.add(d)
                continue
        i, j = ij
        s, ui, uj = _spair(polys[i], polys[j], order)
        if s.is_zero():
            continue
        r, cofs = divide_full(s, polys, order)
        if r.is_zero():
            continue  # nothing new, so no cofactor is needed
        monic, num, den = r.monic(order)
        if track:  # r = ui*f_i + uj*f_j - sum_k cofs[k]*f_k
            column.append(column_entry([(ui, column[i]), (uj, column[j])], cofs, column, num, den))
        polys.append(monic)
        lms.append(monic.leading_monomial(order))
        sugar.append(pair_sugar)
        _update(ring, len(polys) - 1, lms, live, pairs, pair_key)
        if numerator is not None:
            numerator = _numerator_plus(ring, numerator, lms[:-1], lms[-1])

    # Minimalize: keep the elements whose leading monomials generate the
    # ideal minimally, the lowest index among equal ones (lms.index), in
    # ascending order.
    kept = sorted(map(lms.index, _minimal_monomials(ring, lms)), key=lambda i: order.key(lms[i]))
    polys = [polys[i] for i in kept]
    if track:
        column = [column[i] for i in kept]

    # Interreduce the tails, one pass. Leading monomials no longer change,
    # and whether a polynomial is reduced depends only on the others'
    # leading monomials, so a tail reduced here stays reduced.
    for i in range(len(polys)):
        others = polys[:i] + polys[i + 1 :]
        if not others:
            continue
        rem, cofs = divide_full(polys[i], others, order)
        if rem == polys[i]:
            continue
        polys[i], num, den = rem.monic(order)
        if track:
            column[i] = column_entry([(ring.one(), column[i])], cofs, column[:i] + column[i + 1 :], num, den)

    # kept is ascending in the order, so reversing it sorts descending.
    return polys[::-1], column[::-1] if track else None


def buchberger_basis(ideal: Ideal) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal under its order."""
    polys, _ = buchberger_with_reps(list(ideal.generators), ideal.order)
    return GroebnerBasis(tuple(polys), ideal.order)


class DivisionOracle:
    """Exact division by a non-zerodivisor w modulo a fixed ideal.

    Built once per (ideal, w). The combined basis is the reduced
    Groebner basis of the ideal plus (w), from one Buchberger run on
    mid_basis followed by w, which skips pairs under its Hilbert floor
    when both are homogeneous (`buchberger_with_reps`). Buchberger
    tracks only w's cofactor c_b of each combined element b, reduced
    modulo mid_basis, and the constructor certifies it: b - c_b*w must
    reduce to zero modulo mid_basis, else VerificationFailure is raised.
    A zero remainder comes with explicit quotients q_i, so
    b == c_b*w + sum_i q_i*m_i holds exactly over the mid_basis polys m_i.

    Division is a linear map read off a table. For a monomial m, one
    extended reduction against the combined basis gives its remainder
    r_m and cofactors a_b(m), and the table keeps r_m and
    NF_mid(sum_b a_b(m)*c_b). `divide_full` visits monomials from the
    top down and picks each divisor by the monomial alone, so remainder
    and cofactors are linear in the dividend, and so is that normal
    form. `divide(p)` sums the entries of p's monomials: p is divisible
    iff the summed remainder is zero, and the summed quotient is then
    what one reduction of p would give. A monomial that no combined
    leading monomial divides is its own remainder, with quotient 0, and
    takes no reduction.
    """

    def __init__(self, mid_basis: GroebnerBasis, w: Polynomial):
        if w.is_zero():
            raise NotDivisible("cannot divide by zero")
        self.order = mid_basis.order
        self.mid_basis = mid_basis
        polys, column = buchberger_with_reps([*mid_basis.polys, w], self.order, mid_basis)
        for i, (b, c) in enumerate(zip(polys, column)):
            if not normal_form(b - c * w, mid_basis).is_zero():
                raise VerificationFailure(
                    f"cofactors of combined basis element {i} do not reproduce it"
                )
        self.combined = GroebnerBasis(tuple(polys), self.order)
        self.w_cofactors = column
        self._table: dict = {}

    def _image(self, m: int) -> tuple:
        """(remainder, quotient) of the monomial m, each as (nums, den),
        computed once and kept in the table."""
        combined, order = self.combined.polys, self.order
        ring = combined[0].ring
        if all((m - b.leading_monomial(order)) & ring.guard for b in combined):
            image = ({m: 1}, 1), ({}, 1)
        else:
            rem, cofs = divide_full(Polynomial(ring, {m: 1}), combined, order)
            quo = normal_form(sum_of_products(ring, zip(cofs, self.w_cofactors)), self.mid_basis)
            image = (rem.nums, rem.den), (quo.nums, quo.den)
        self._table[m] = image
        return image

    def divide(self, p: Polynomial) -> Polynomial:
        """q with p == w*q modulo the ideal, in normal form; unique there."""
        _check_ring(p, self.combined.polys[:1])
        table = self._table
        images = [table.get(m) or self._image(m) for m in p.nums]
        rem = linear_image(p, [r for r, _ in images])
        if not rem.is_zero():
            raise NotDivisible(
                f"{p!r} is not divisible modulo the ideal (remainder {rem!r})"
            )
        return linear_image(p, [q for _, q in images])


def krull_dimension(basis: GroebnerBasis, nvars: int) -> int:
    """Krull dimension of ring/ideal from a Groebner basis of the ideal.

    With Q the Hilbert numerator of the leading monomials, HS has a pole
    of order nvars - m at t = 1, where m is the multiplicity of the
    factor (1 - t) in Q, and that order is the dimension. Returns nvars
    for the empty basis (zero ideal) and -1 for the unit ideal (Q == 0).
    """
    if not basis.polys:
        return nvars
    q = hilbert_numerator(basis.polys[0].ring, [b.leading_monomial(basis.order) for b in basis.polys])
    if not q:
        return -1
    dim = nvars
    while sum(q) == 0:
        # q(1) == 0: divide by (1 - t), whose quotient has the partial
        # sums of q as coefficients.
        q = list(accumulate(q[:-1]))
        dim -= 1
    return dim


def _degree_monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographically;
    none for a negative degree."""
    if nvars == 1:
        if degree >= 0:
            yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in _degree_monomials(nvars - 1, degree - e):
            yield (e,) + rest


def monomials_of_degree(nvars: int, degree: int) -> list:
    return list(_degree_monomials(nvars, degree))
