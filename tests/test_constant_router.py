"""``ConstantFolds``' session router ≡ the one-shot engines' constant scan.

The router answers "which constant forms does this row's LHS match" with
one projection and one hash probe per distinct ``lhs`` attribute list,
compiled once against the schema; the one-shot engines compile code tests
against each relation's dictionary encoding.  Both must find the same
violations, and the router's witness counts must be one per (row,
violated form) — the multiplicity the transition counters rely on to
retract a violation only when its last witness goes.
"""

from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import (
    CFD,
    ConstantFolds,
    NotValue,
    OneOf,
    PatternTuple,
    Range,
    TransitionCounter,
    WILDCARD,
    normalize,
)
from repro.core.fused import detect_constants
from repro.relational import Relation, Schema

SCHEMA = Schema("R", ("id", "a", "b", "c"), key=("id",))

#: cells that conflate under dictionary equality (1 / 1.0 / True, 0 /
#: False), a look-alike string, NULL
CELLS = [None, 0, 1, 1.0, True, False, "1", 2, "x"]
cells = st.sampled_from(CELLS)
constants = st.sampled_from([c for c in CELLS if c is not None])
predicates = st.one_of(
    st.builds(OneOf, st.lists(constants, min_size=1, max_size=3)),
    st.builds(NotValue, constants),
    st.builds(Range, st.sampled_from(["<", "<=", ">", ">="]), constants),
)
lhs_entries = st.one_of(st.just(WILDCARD), constants, predicates)
rhs_entries = st.one_of(constants, predicates)  # never '_': constant forms


@st.composite
def constant_cfds(draw):
    """A CFD whose every pattern has a non-wildcard RHS: it normalizes to
    constant forms only.  All-wildcard LHS rows (a form conditioning every
    row) and repeated LHS rows (a row violating several forms) included."""
    lhs = draw(st.sampled_from([("a",), ("b",), ("a", "b"), ("b", "a")]))
    tableau = draw(
        st.lists(
            st.tuples(
                st.tuples(*[lhs_entries] * len(lhs)), st.tuples(rhs_entries)
            ),
            min_size=1,
            max_size=5,
        )
    )
    name = draw(st.sampled_from(["phi", "psi"]))
    return CFD(lhs, ["c"], [PatternTuple(*row) for row in tableau], name=name)


def _fold(folds, rows, sign, violations=None, keys=None):
    violations = violations or TransitionCounter()
    keys = keys or TransitionCounter()
    folds.fold(Relation(SCHEMA, rows, copy=False), sign, violations, keys)
    return violations, keys


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(cells, cells, cells), max_size=12),
    st.lists(constant_cfds(), min_size=1, max_size=3),
)
def test_router_matches_one_shot_engines(body, cfds):
    rows = [(i,) + row for i, row in enumerate(body)]
    relation = Relation(SCHEMA, rows, copy=False)
    forms = [form for cfd in cfds for form in normalize(cfd).constants]
    folds = ConstantFolds(forms)
    violations, keys = _fold(folds, rows, 1)

    # violations and violating keys: the one-shot fold
    expected = detect_constants(relation, forms)
    assert set(violations.counts) == expected.violations
    assert {(key,) for key in keys.counts} == expected.tuple_keys

    # multiplicities: one witness per (row, violated form)
    per_form = [
        detect_constants(Relation(SCHEMA, [row], copy=False), [form])
        for row in rows
        for form in forms
    ]
    assert violations.counts == Counter(
        v for report in per_form for v in report.violations
    )
    assert keys.counts == Counter(
        key for report in per_form for (key,) in report.tuple_keys
    )

    # the signed delete of the same rows retracts every witness
    _fold(folds, rows, -1, violations, keys)
    assert not violations.counts and not keys.counts


def test_router_without_key_collection_counts_violations_only():
    cfd = CFD(
        ["a"], ["c"], [PatternTuple([WILDCARD], [1]), PatternTuple([2], [1])]
    )
    folds = ConstantFolds(normalize(cfd).constants, collect_tuples=False)
    rows = [(0, 2, 0, 5), (1, 3, 0, 1.0), (2, 2, 0, True)]
    violations, keys = _fold(folds, rows, 1)
    # row 0 violates both forms with the same Vioπ entry; rows 1, 2 carry
    # c == 1 under dictionary equality
    assert list(violations.counts.values()) == [2]
    assert not keys.counts
