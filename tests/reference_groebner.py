"""Scan-based division and Buchberger, kept as the reference that the
heap-driven code in `mfkit.groebner` is tested against.

`divide_full` picks the largest pending monomial with a `max` scan on
every step, and `buchberger_with_reps` picks the next pair with a `min`
scan over all pending pairs. Leading monomials are found by scanning the
terms, so nothing here relies on the cache in `Polynomial`, and order
keys come from `order_key` here, not from `MonomialOrder.key`. Both
return the same values, in the same shape, as their `mfkit.groebner`
namesakes.
"""

from __future__ import annotations

from itertools import combinations

from mfkit.poly import Polynomial, mono_div, mono_divides, mono_lcm, mono_mul


def order_key(order, exps):
    """Sort key under `order`: bigger key means bigger monomial."""
    perm = tuple(exps[i] for i in order.precedence)
    if order.kind == "lex":
        return perm
    return (sum(exps), tuple(-e for e in reversed(perm)))


def leading_monomial(p: Polynomial, order):
    return max(p.terms, key=lambda m: order_key(order, m))


def divide_full(p: Polynomial, divisors, order):
    ring = p.ring
    field = ring.field
    lms = [leading_monomial(d, order) for d in divisors]
    lcs = [d.terms[lm] for d, lm in zip(divisors, lms)]
    work = dict(p.terms)
    rem: dict = {}
    cofs = [ring.zero() for _ in divisors]
    while work:
        m = max(work, key=lambda t: order_key(order, t))
        c = work.pop(m)
        for i, lm in enumerate(lms):
            if mono_divides(lm, m):
                q_mono = mono_div(m, lm)
                q_coeff = field.div(c, lcs[i])
                cofs[i] = cofs[i] + ring.monomial(q_mono, q_coeff)
                for dm, dc in divisors[i].terms.items():
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
    return Polynomial(ring, rem), cofs


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
    field = ring.field

    def lc(p):
        return p.terms[leading_monomial(p, order)]

    polys: list[Polynomial] = []
    reps: list[list[Polynomial]] = []
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        inv = field.inv(lc(g))
        polys.append(g.scale(inv))
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
        polys.append(r.scale(inv))
        reps.append([a.scale(inv) for a in rep_r])
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
            polys[i] = rem.scale(inv)
            reps[i] = [a.scale(inv) for a in new_rep]

    final = sorted(range(len(polys)), key=lm_key, reverse=True)
    return [polys[i] for i in final], [tuple(reps[i]) for i in final]
