"""Scan-based division and Buchberger, kept as the reference that the
heap-driven code in `mfkit.groebner` is tested against.

`divide_full` picks the largest pending monomial with a `max` scan on
every step, and `buchberger_with_reps` picks the next pair with a `min`
scan over all pending pairs. Leading monomials are found by scanning the
terms, so nothing here relies on the cache in `Polynomial`, and order
keys come from `order_key` here, not from `MonomialOrder.key`.
Monomials are exponent tuples, with the tuple arithmetic below, where
mfkit packs each into one int; polynomials are read and built through
`reference_poly.coeffs` and `PolyRing.monomial`.
Coefficients are handled one at a time, as field elements of
`reference_poly.RefField` (Fractions over QQ), not on mfkit's int
numerators over a common denominator. Both return the same values, in
the same shape, as their `mfkit.groebner` namesakes.

`w_cofactor_holds` re-checks one entry of the cofactor column that
`mfkit.groebner.buchberger_with_reps` tracks, with this division and
polynomial arithmetic.

`membership_oracle` decides ideal membership by linear algebra alone,
with no Groebner machinery, on small instances.

`standard_monomial_count` and `independent_sets_max` read a monomial
ideal by enumeration, for the Hilbert numerator and the Krull dimension
in `mfkit.groebner`: the first counts the monomials of one degree that
no generator divides, the second tries every variable subset.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from mfkit.groebner import monomials_of_degree
from mfkit.linalg import solve_linear
from mfkit.poly import Polynomial

from .reference_poly import RefField, coeffs, from_coeffs, scale


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b, for b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def order_key(order, exps):
    """Sort key under `order`: bigger key means bigger monomial."""
    if order.kind == "lex":
        return tuple(exps)
    return (sum(exps), tuple(-e for e in reversed(exps)))


def leading_monomial(p: Polynomial, order):
    """The leading exponent tuple of p."""
    return max(map(p.ring.exps, p.nums), key=lambda m: order_key(order, m))


def divide_full(p: Polynomial, divisors, order):
    ring = p.ring
    field = RefField(ring.field)
    lms = [leading_monomial(d, order) for d in divisors]
    terms = [coeffs(d) for d in divisors]
    lcs = [t[lm] for t, lm in zip(terms, lms)]
    work = coeffs(p)
    rem: dict = {}
    cofs = [ring.zero() for _ in divisors]
    # Each monomial's key is computed once, so the scan stays cheap.
    key = cache(lambda t: order_key(order, t))
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, lm in enumerate(lms):
            if mono_divides(lm, m):
                q_mono = mono_div(m, lm)
                q_coeff = field.div(c, lcs[i])
                cofs[i] = cofs[i] + ring.monomial(q_mono, q_coeff)
                for dm, dc in terms[i].items():
                    if dm == lm:
                        continue
                    t = mono_mul(dm, q_mono)
                    s = field.sub(work.get(t, field.zero), field.mul(dc, q_coeff))
                    if s == field.zero:
                        work.pop(t, None)
                    else:
                        work[t] = s
                break
        else:
            rem[m] = c
    return from_coeffs(ring, rem), cofs


def _combine(rep, cofs, basis_reps):
    new_rep = list(rep)
    for c, r in zip(cofs, basis_reps):
        if c.is_zero():
            continue
        for j in range(len(new_rep)):
            new_rep[j] = new_rep[j] - c * r[j]
    return new_rep


def buchberger_with_reps(generators, order):
    gens = list(generators)
    if not gens:
        return [], []
    ring = gens[0].ring
    field = RefField(ring.field)

    def lc(p):
        return coeffs(p)[leading_monomial(p, order)]

    polys: list[Polynomial] = []
    reps: list[list[Polynomial]] = []
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        inv = field.inv(lc(g))
        polys.append(scale(g, inv))
        row = [ring.zero() for _ in gens]
        row[j] = ring.const(inv)
        reps.append(row)

    def lcm_of(ij):
        i, j = ij
        return mono_lcm(leading_monomial(polys[i], order), leading_monomial(polys[j], order))

    pairs = set(combinations(range(len(polys)), 2))
    while pairs:
        best = min(pairs, key=lambda ij: (order_key(order, lcm_of(ij)), ij))
        pairs.discard(best)
        i, j = best
        lmi = leading_monomial(polys[i], order)
        lmj = leading_monomial(polys[j], order)
        lcm = mono_lcm(lmi, lmj)
        if lcm == mono_mul(lmi, lmj):
            continue
        ui = ring.monomial(mono_div(lcm, lmi))
        uj = ring.monomial(mono_div(lcm, lmj))
        s = ui * polys[i] - uj * polys[j]
        rep_s = [ui * a - uj * b for a, b in zip(reps[i], reps[j])]
        if s.is_zero():
            continue
        r, cofs = divide_full(s, polys, order)
        if r.is_zero():
            continue
        rep_r = _combine(rep_s, cofs, reps)
        inv = field.inv(lc(r))
        polys.append(scale(r, inv))
        reps.append([scale(a, inv) for a in rep_r])
        k = len(polys) - 1
        pairs.update((t, k) for t in range(k))

    def lm_key(i):
        return order_key(order, leading_monomial(polys[i], order))

    order_idx = sorted(range(len(polys)), key=lm_key)
    kept: list[int] = []
    kept_lms: list = []
    for i in order_idx:
        lm = leading_monomial(polys[i], order)
        if any(mono_divides(l, lm) for l in kept_lms):
            continue
        kept.append(i)
        kept_lms.append(lm)
    polys = [polys[i] for i in kept]
    reps = [reps[i] for i in kept]

    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1 :]
            if not others:
                continue
            rem, cofs = divide_full(polys[i], others, order)
            if rem == polys[i]:
                continue
            changed = True
            new_rep = _combine(reps[i], cofs, reps[:i] + reps[i + 1 :])
            inv = field.inv(lc(rem))
            polys[i] = scale(rem, inv)
            reps[i] = [scale(a, inv) for a in new_rep]

    final = sorted(range(len(polys)), key=lm_key, reverse=True)
    return [polys[i] for i in final], [tuple(reps[i]) for i in final]


def w_cofactor_holds(b: Polynomial, c: Polynomial, w: Polynomial, mid, order) -> bool:
    """True when b - c*w reduces to zero modulo the polynomials `mid`
    under `divide_full` here, and the quotients q_i it returns give
    b == c*w + sum_i q_i*mid_i exactly."""
    rem, quotients = divide_full(b - c * w, mid, order)
    total = c * w
    for q, m in zip(quotients, mid):
        total = total + q * m
    return rem.is_zero() and total == b


def membership_oracle(p: Polynomial, generators, max_cof_degree: int) -> bool:
    """Brute-force ideal membership via linear algebra.

    Solves p = sum a_i g_i with deg a_i <= max_cof_degree by equating
    coefficients, independently of any Groebner machinery.
    """
    gens = [g for g in generators if not g.is_zero()]
    if p.is_zero():
        return True
    if not gens:
        return False
    ring = p.ring
    monos = [m for d in range(max_cof_degree + 1) for m in monomials_of_degree(ring.nvars, d)]
    exps = ring.exps
    columns = []
    target_monos = {exps(m) for m in p.nums}
    for g in gens:
        for m in monos:
            prod = g * ring.monomial(m)
            columns.append(prod)
            target_monos.update(exps(t) for t in prod.nums)
    # One augmented row per monomial; column len(columns) holds p. Each
    # column is scaled by its polynomial's denominator, and the
    # right-hand side by p's: the unknowns change by nonzero factors,
    # which keeps the system's solvability.
    rows = {m: {} for m in sorted(target_monos)}
    for k, col in enumerate(columns):
        for m, c in col.nums.items():
            rows[exps(m)][k] = c
    for m, c in p.nums.items():
        rows[exps(m)][len(columns)] = c
    return solve_linear(list(rows.values()), len(columns), ring.field) is not None


def standard_monomial_count(generators, nvars: int, degree: int) -> int:
    """The number of monomials of the given degree that no exponent tuple
    in `generators` divides."""
    return sum(
        1 for m in monomials_of_degree(nvars, degree)
        if not any(mono_divides(g, m) for g in generators)
    )


def independent_sets_max(lead_supports, nvars: int) -> int:
    """Largest variable subset meeting no leading-monomial support: the
    Krull dimension of S/J for the monomial ideal J whose generators have
    these supports (sets of variable indices); -1 when no subset works,
    which is the unit ideal (an empty support)."""
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sub = set(subset)
            if all(not s <= sub for s in lead_supports):
                return size
    return -1
