"""Tests for the eCFD extension: disjunctions, negations, ranges ([17]).

Semantics oracle: a brute-force evaluator built directly on the definition
(for each pattern and pair of tuples, check the extended ≍).  Every layer —
matching, normal forms, centralized detection, the generated SQL on
sqlite3, and the distributed algorithms — must agree with it.
"""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CFD,
    NotValue,
    OneOf,
    PatternTuple,
    Range,
    WILDCARD,
    detect_violations,
    format_cfd,
    implies,
    is_predicate,
    matches,
    parse_cfd,
    satisfies,
)
from repro.core.sql import run_detection_on_sqlite
from repro.detect import clust_detect, ctr_detect, pat_detect_rt, pat_detect_s
from repro.partition import partition_uniform
from repro.relational import Relation, Schema

# every test in this module runs once per detection engine (see conftest)
pytestmark = pytest.mark.usefixtures("detection_engine")

ATTRS = ("a", "b", "c")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))


def brute_force_vio_pi(relation, cfd):
    """Direct implementation of Vioπ from Section II-C, extended ≍."""
    lhs_pos = relation.schema.positions(cfd.lhs)
    rhs_pos = relation.schema.positions(cfd.rhs)
    violating = set()
    for tp in cfd.tableau:
        for t in relation.rows:
            tx = tuple(t[p] for p in lhs_pos)
            ty = tuple(t[p] for p in rhs_pos)
            if not tp.matches_lhs(tx):
                continue
            for other in relation.rows:
                ox = tuple(other[p] for p in lhs_pos)
                oy = tuple(other[p] for p in rhs_pos)
                if tx != ox or not tp.matches_lhs(ox):
                    continue
                if ty != oy or not tp.matches_rhs(ty):
                    violating.add(tx)
    return violating


# -- entry semantics -----------------------------------------------------------


def test_oneof_matches():
    entry = OneOf([1, 2])
    assert matches(1, entry) and matches(2, entry)
    assert not matches(3, entry)


def test_notvalue_matches():
    entry = NotValue("x")
    assert matches("y", entry)
    assert not matches("x", entry)


def test_range_matches():
    assert matches(5, Range("<", 10))
    assert not matches(10, Range("<", 10))
    assert matches(10, Range("<=", 10))
    assert matches(11, Range(">", 10))
    assert matches(10, Range(">=", 10))
    assert not matches("str", Range("<", 10))  # incomparable never matches


def test_oneof_requires_values():
    with pytest.raises(ValueError):
        OneOf([])


def test_range_validates_operator():
    with pytest.raises(ValueError):
        Range("==", 5)


def test_is_predicate():
    assert is_predicate(OneOf([1]))
    assert is_predicate(NotValue(1))
    assert is_predicate(Range("<", 1))
    assert not is_predicate(1)
    assert not is_predicate(WILDCARD)


# -- parser --------------------------------------------------------------------


def test_parse_inline_operators():
    cfd = parse_cfd("([a != 1, b >= 10, c] -> [c])")
    entries = cfd.tableau[0].lhs
    assert entries[0] == NotValue(1)
    assert entries[1] == Range(">=", 10)
    assert entries[2] is WILDCARD


def test_parse_disjunction():
    cfd = parse_cfd("([a = {44|31}] -> [b])")
    assert cfd.tableau[0].lhs == (OneOf([44, 31]),)


def test_parse_tableau_predicates():
    cfd = parse_cfd("([a, b] -> [c]) with (!5, {1|2} || <10)")
    tp = cfd.tableau[0]
    assert tp.lhs == (NotValue(5), OneOf([1, 2]))
    assert tp.rhs == (Range("<", 10),)


def test_parse_empty_disjunction_rejected():
    from repro.core import CFDError

    with pytest.raises(CFDError):
        parse_cfd("([a = {}] -> [b])")


def test_format_roundtrip_with_predicates():
    cfd = parse_cfd(
        "([a, b] -> [c]) with (!5, {1|2} || _), (>=10, _ || 'k')"
    )
    assert parse_cfd(format_cfd(cfd)) == cfd


# -- satisfaction and detection --------------------------------------------------


def rel(rows):
    return Relation(SCHEMA, [(i,) + tuple(r) for i, r in enumerate(rows)])


def test_satisfies_with_range_condition():
    cfd = parse_cfd("([a >= 10, b] -> [c])")
    assert satisfies(rel([(10, 1, "x"), (10, 1, "x"), (5, 1, "y")]), cfd)
    assert not satisfies(rel([(10, 1, "x"), (11, 1, "x"), (10, 1, "y")]), cfd)


def test_constant_rhs_with_disjunction():
    # quantity of express orders must be one of {1, 2}
    cfd = parse_cfd("([a = 'express'] -> [b = {1|2}])", name="q")
    report = detect_violations(
        rel([("express", 1, "_"), ("express", 5, "_"), ("bulk", 9, "_")]), cfd
    )
    assert {v.lhs_values for v in report.violations} == {("express",)}


def test_negation_lhs():
    cfd = parse_cfd("([a != 0] -> [b])", name="n")
    report = detect_violations(
        rel([(1, "x", "_"), (1, "y", "_"), (0, "x", "_"), (0, "z", "_")]), cfd
    )
    assert {v.lhs_values for v in report.violations} == {(1,)}


# -- oracle agreement, all layers -------------------------------------------------

entry_values = st.sampled_from([0, 1, 2])


@st.composite
def extended_entries(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return WILDCARD
    if kind == 1:
        return draw(entry_values)
    if kind == 2:
        return NotValue(draw(entry_values))
    if kind == 3:
        values = draw(st.sets(entry_values, min_size=1, max_size=2))
        return OneOf(values)
    return Range(draw(st.sampled_from(["<", "<=", ">", ">="])), draw(entry_values))


@st.composite
def extended_cases(draw):
    rows = draw(
        st.lists(
            st.tuples(*[entry_values for _ in ATTRS]),
            min_size=0,
            max_size=14,
        )
    )
    relation = rel(rows)
    lhs_size = draw(st.integers(1, 2))
    attrs = draw(st.permutations(ATTRS).map(lambda p: list(p[: lhs_size + 1])))
    lhs, rhs = attrs[:-1], [attrs[-1]]
    tableau = [
        PatternTuple(
            [draw(extended_entries()) for _ in lhs],
            [draw(extended_entries()) for _ in rhs],
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    return relation, CFD(lhs, rhs, tableau, name="e")


@settings(max_examples=80, deadline=None)
@given(extended_cases())
def test_detector_matches_bruteforce_semantics(case):
    relation, cfd = case
    expected = brute_force_vio_pi(relation, cfd)
    report = detect_violations(relation, cfd, collect_tuples=False)
    assert {v.lhs_values for v in report.violations} == expected


@settings(max_examples=60, deadline=None)
@given(extended_cases())
def test_sqlite_matches_detector_extended(case):
    relation, cfd = case
    report = detect_violations(relation, cfd, collect_tuples=False)
    expected = {(v.cfd, v.lhs_values) for v in report.violations}
    assert run_detection_on_sqlite(relation, cfd) == expected


def test_inventory_example_runs_and_agrees():
    """``examples/inventory_rules.py`` end to end: the printed SQL, the
    centralized engine and two distributed algorithms all agree."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, str(root / "examples" / "inventory_rules.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "agrees: True" in result.stdout
    assert "agrees: False" not in result.stdout


@settings(max_examples=60, deadline=None)
@given(extended_cases(), st.integers(1, 3))
def test_distributed_algorithms_handle_extended_patterns(case, n_sites):
    relation, cfd = case
    cluster = partition_uniform(relation, n_sites)
    expected = detect_violations(relation, cfd, collect_tuples=False).violations
    assert ctr_detect(cluster, cfd).report.violations == expected
    assert pat_detect_s(cluster, cfd).report.violations == expected
    assert pat_detect_rt(cluster, cfd).report.violations == expected
    assert clust_detect(cluster, [cfd]).report.violations == expected


# -- implication guard --------------------------------------------------------------


def test_implication_rejects_extended_entries():
    phi = parse_cfd("([a != 1] -> [b])")
    fd = parse_cfd("([a] -> [b])")
    with pytest.raises(NotImplementedError):
        implies([fd], phi)
    with pytest.raises(NotImplementedError):
        implies([phi], fd)
