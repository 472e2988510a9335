"""Tests for CFD implication: chase vs a brute-force finite-model oracle."""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import (
    CFD,
    PatternTuple,
    WILDCARD,
    implies,
    implies_all,
    parse_cfd,
    satisfies,
)
from repro.relational import Relation, Schema

ATTRS = ("a", "b", "c")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))


def brute_force_implies(sigma, phi, domain):
    """Counterexample search over all ≤2-tuple instances.

    Sound and complete: CFD satisfaction is closed under sub-instances, so
    any violated instance contains a 1- or 2-tuple counterexample.  The
    domain must hold every pattern constant plus two values outside them
    (see :data:`DOMAIN`).
    """
    for values in itertools.product(domain, repeat=2 * len(ATTRS)):
        rows = [
            (1,) + values[: len(ATTRS)],
            (2,) + values[len(ATTRS) :],
        ]
        instance = Relation(SCHEMA, rows)
        if all(satisfies(instance, s) for s in sigma) and not satisfies(
            instance, phi
        ):
            return False
    return True


# -- hand-written cases --------------------------------------------------------


def test_reflexivity_like_cases():
    fd = parse_cfd("([a, b] -> [a])")
    assert implies([], fd)  # t1[X]=t2[X] forces t1[a]=t2[a]


def test_fd_transitivity():
    ab = parse_cfd("([a] -> [b])")
    bc = parse_cfd("([b] -> [c])")
    assert implies([ab, bc], parse_cfd("([a] -> [c])"))
    assert not implies([ab], parse_cfd("([b] -> [c])"))
    assert not implies([bc], parse_cfd("([a] -> [c])"))


def test_fd_augmentation():
    ab = parse_cfd("([a] -> [b])")
    assert implies([ab], parse_cfd("([a, c] -> [b])"))


def test_pattern_weakening():
    # A CFD restricted to a=1 is implied by the unconditional FD.
    fd = parse_cfd("([a] -> [b])")
    conditional = parse_cfd("([a=1] -> [b])")
    assert implies([fd], conditional)
    assert not implies([conditional], fd)


def test_constant_chain():
    c1 = parse_cfd("([a=1] -> [b='x'])")
    c2 = parse_cfd("([b='x'] -> [c='y'])")
    assert implies([c1, c2], parse_cfd("([a=1] -> [c='y'])"))
    assert not implies([c2], parse_cfd("([a=1] -> [c='y'])"))


def test_constant_implies_matching_variable():
    # If a=1 forces b='x' then among a=1 tuples b is functionally determined.
    c1 = parse_cfd("([a=1] -> [b='x'])")
    assert implies([c1], parse_cfd("([a=1] -> [b])"))
    assert not implies([c1], parse_cfd("([a] -> [b])"))


def test_conflicting_constants_make_pattern_vacuous():
    # Σ forces a=1 tuples to have b='x' and b='y': no a=1 tuple can exist,
    # so anything conditioned on a=1 holds vacuously.
    c1 = parse_cfd("([a=1] -> [b='x'])")
    c2 = parse_cfd("([a=1] -> [b='y'])")
    assert implies([c1, c2], parse_cfd("([a=1] -> [c='z'])"))


def test_variable_cfd_with_constant_lhs_interplay():
    # (a=1, b) -> c  together with  a=1 -> b='x'  implies (a=1) -> c:
    # all a=1 tuples share b='x', hence agree on c.
    v = parse_cfd("([a, b] -> [c]) with (1, _ || _)")
    c1 = parse_cfd("([a=1] -> [b='x'])")
    assert implies([v, c1], parse_cfd("([a=1] -> [c])"))
    assert not implies([v], parse_cfd("([a=1] -> [c])"))


def test_implies_all():
    ab = parse_cfd("([a] -> [b])")
    bc = parse_cfd("([b] -> [c])")
    assert implies_all([ab, bc], [parse_cfd("([a] -> [c])"), ab])
    assert not implies_all([ab], [bc])


def test_multi_pattern_tableau_needs_every_row():
    phi = parse_cfd("([a] -> [b]) with (1 || _), (2 || _)")
    only_one = parse_cfd("([a] -> [b]) with (1 || _)")
    assert implies([phi], only_one)
    assert not implies([only_one], phi)


# -- oracle comparison ---------------------------------------------------------

#: complete for ≤2-tuple counterexamples.  Pattern constants are drawn
#: from {0, 1}, and CFD satisfaction only compares a cell with the other
#: tuple's cell on the *same* attribute or with a constant.  Per attribute,
#: each cell is therefore 0, 1 or a fresh value, with the two fresh values
#: equal or not; {0, 1, 2, 3} realises every such case, so any
#: counterexample over an infinite domain maps onto one over DOMAIN.
DOMAIN = [0, 1, 2, 3]


@st.composite
def small_cfds(draw):
    lhs_size = draw(st.integers(1, 2))
    attrs = draw(st.permutations(ATTRS).map(lambda p: list(p[: lhs_size + 1])))
    lhs, rhs = attrs[:-1], [attrs[-1]]
    tableau = []
    for _ in range(draw(st.integers(1, 2))):
        lhs_row = [
            draw(st.sampled_from([WILDCARD, 0, 1])) for _ in lhs
        ]
        rhs_row = [draw(st.sampled_from([WILDCARD, 0, 1])) for _ in rhs]
        tableau.append(PatternTuple(lhs_row, rhs_row))
    return CFD(lhs, rhs, tableau)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_cfds(), min_size=0, max_size=2), small_cfds())
def test_chase_agrees_with_bruteforce(sigma, phi):
    assert implies(sigma, phi) == brute_force_implies(sigma, phi, DOMAIN)
