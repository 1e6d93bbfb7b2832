"""Isomorphic copies: every answer carries over through the change of basis.

An isomorphic copy of (phi, psi) is (P@phi@Q^-1, Q@psi@P^-1) with P and Q
invertible constant matrices (`genutil.basis_changed_mf`). Transport and
lift divide by the non-zerodivisor w, and that division is unique, so
they commute with the change of basis on the nose: the answer on carried
input is the carried answer, entry for entry. Source and target get
independent changes, so the A and B sides of each convention are told
apart.
"""

import random

import pytest

from mfkit.fields import QQ, PrimeField
from mfkit.mfcat import MfMorphism
from mfkit.periodic import (
    ChainLiftInput,
    HomotopyTransportInput,
    graded_acyclicity_window,
    graded_nullhomotopy_window,
    lift_chain_map,
    reduce_object,
    transport_nullhomotopy,
)
from mfkit.tower import Level

from .genutil import (
    basis_changed_mf,
    build_corpus_objects,
    build_corpus_towers,
    koszul_mf,
    rand_matrix,
    rand_nullhomotopic_morphism,
    window_delta,
)

FIELDS = [QQ, PrimeField(32003)]
# (name, top nullhomotopy window position, or None where the tower is
# not graded).
CASES = [("A", 4), ("B", 4), ("C", 4), ("D", None), ("koszul2", 4), ("koszul3", 2)]


def original(name, field):
    if name.startswith("koszul"):
        return koszul_mf(int(name[-1]), field)
    return build_corpus_objects(build_corpus_towers(field))[name]


class Carry:
    """Changes of basis of a source copy a and a target copy b, each given
    as `basis_changed_mf` returns it, with each convention of its
    docstring."""

    def __init__(self, a, b):
        self.sides = a, b
        self.source, self.pa, self.pa_inv, self.qa, self.qa_inv = a
        self.target, self.pb, self.pb_inv, self.qb, self.qb_inv = b

    def reduced(self) -> "Carry":
        """The same changes of basis between the reduced copies."""
        return Carry(*((reduce_object(mf), *(m.reduce_to(Level.QUOT) for m in change))
                       for mf, *change in self.sides))

    def f(self, m):  # F_A -> F_B
        return self.qb @ m @ self.qa_inv

    def g(self, m):  # G_A -> G_B
        return self.pb @ m @ self.pa_inv

    def s(self, m):  # G_A -> F_B
        return self.qb @ m @ self.pa_inv

    def t(self, m):  # F_A -> G_B
        return self.pb @ m @ self.qa_inv


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name, p_max", CASES, ids=[c[0] for c in CASES])
def test_transport_and_lift_commute_with_the_change_of_basis(field, name, p_max):
    rng = random.Random(f"{name}-{field}")
    mf = original(name, field)
    tower, w = mf.tower, mf.tower.w
    carry = Carry(basis_changed_mf(mf, rng), basis_changed_mf(mf, rng))
    a, b = carry.source, carry.target
    n_f, n_g = mf.rank_f, mf.rank_g

    theta, s, t = rand_nullhomotopic_morphism(mf, mf, rng, max_degree=1)
    s1, t0, s2 = (m + rand_matrix(tower, rng, m.nrows, m.ncols, 1).scale(w) for m in (s, t, s))
    inp = HomotopyTransportInput(theta, s1, t0, s2)
    h = transport_nullhomotopy(inp)
    theta_c = MfMorphism(a, b, carry.f(theta.f), carry.g(theta.g))
    inp_c = HomotopyTransportInput(theta_c, carry.s(s1), carry.t(t0), carry.s(s2))
    h_c = transport_nullhomotopy(inp_c)
    assert (inp_c.p_corr, inp_c.q_corr) == (carry.f(inp.p_corr), carry.g(inp.q_corr))
    assert (h_c.s, h_c.t) == (carry.s(h.s), carry.t(h.t))
    assert not inp.p_corr.is_zero() or not inp.q_corr.is_zero()

    th, _, _ = rand_nullhomotopic_morphism(mf, mf, rng, max_degree=1)
    g1, f0, g0 = (m + rand_matrix(tower, rng, n, n, 1).scale(w)
                  for m, n in ((th.g, n_g), (th.f, n_f), (th.g, n_g)))
    lifted, witness = lift_chain_map(ChainLiftInput(mf, mf, g1, f0, g0))
    lifted_c, witness_c = lift_chain_map(ChainLiftInput(a, b, carry.g(g1), carry.f(f0), carry.g(g0)))
    assert (lifted_c.f, lifted_c.g) == (carry.f(lifted.f), carry.g(lifted.g))
    bar = carry.reduced()
    assert witness_c.phi_gap_bar == bar.t(witness.phi_gap_bar)
    assert witness_c.psi_gap_bar == bar.s(witness.psi_gap_bar)

    if p_max is None:
        return
    # The original's window delta, carried to the reduced copies.
    delta = window_delta(mf, rng)
    delta_c = MfMorphism(bar.source, bar.target, bar.f(delta.f), bar.g(delta.g))
    for d in (delta, delta_c):
        null = graded_nullhomotopy_window(d, 0, p_max)
        assert null.solvable and null.verified_positions == list(range(1, p_max + 1))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_copy_of_b_has_the_acyclicity_report_of_b(field):
    b = original("B", field)
    copy, *_ = basis_changed_mf(b, random.Random(5))
    assert copy.phi != b.phi
    report = graded_acyclicity_window(reduce_object(b), 0, 6)
    copy_report = graded_acyclicity_window(reduce_object(copy), 0, 6)
    assert (copy_report.rows, copy_report.dual_rows) == (report.rows, report.dual_rows)
