"""Tests for the SQL generation of [2] and the ``sql`` engine built on it.

The generated queries must return exactly ``Vioπ(φ, D)`` as computed by
the built-in detector — verified on the paper's running example and on
random instances (hypothesis).  One compiler writes both the statements
the engine binds parameters into and the ones ``repro sql`` prints with
literals inlined; :func:`run_detection_on_sqlite` runs the printed ones on
the engine's own table, so drift between the two fails here.
"""

import math
import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CFD,
    PatternTuple,
    SQLEngineError,
    WILDCARD,
    close_sql_handles,
    detect_violations,
    detect_violations_sql,
    parse_cfd,
    sql_handle,
)
from repro.core import sql
from repro.core.sql import (
    _quote_value,
    create_table_sql,
    run_detection_on_sqlite,
    violation_sql,
)
from repro.datagen import emp_instance, emp_tableau_cfds, generate_cust, cust_street_cfd
from repro.relational import Relation, Schema, columnar


def vio_pi(relation, cfds) -> set:
    report = detect_violations(relation, cfds, collect_tuples=False)
    return {(v.cfd, v.lhs_values) for v in report.violations}


def assert_sql_engine_matches_reference(relation, cfds):
    reference = detect_violations(relation, cfds, engine="reference")
    via_sql = detect_violations(relation, cfds, engine="sql")
    assert via_sql.violations == reference.violations
    assert via_sql.tuple_keys == reference.tuple_keys


# -- structure -----------------------------------------------------------


def test_fd_generates_only_group_by_query():
    fd = parse_cfd("([a, b] -> [c])")
    (variable,) = violation_sql(fd, "T")
    assert "GROUP BY" in variable and "HAVING" in variable
    assert "IS NOT TRUE" not in variable


def test_constant_cfd_generates_only_scan_query():
    cfd = parse_cfd("([a=1] -> [b='x'])")
    (constant,) = violation_sql(cfd, "T")
    assert "IS NOT TRUE" in constant and "NOT (" not in constant
    assert "GROUP BY" not in constant


def test_mixed_cfd_generates_both_queries():
    cfd = CFD(
        ["a"],
        ["b", "c"],
        [PatternTuple((1,), ("x", WILDCARD))],
    )
    constant, variable = violation_sql(cfd, "T")  # one per normal form
    assert "IS NOT TRUE" in constant and "GROUP BY" in variable


def test_identifiers_and_strings_quoted():
    cfd = CFD(["a"], ["b"], [PatternTuple(("o'brien",), (WILDCARD,))])
    (query,) = violation_sql(cfd, 'my"table')
    assert "'o''brien'" in query  # embedded quote doubled
    assert '"my""table"' in query


def test_create_table_declares_no_affinities():
    # declared types would let sqlite coerce values on insert ('2' under
    # INTEGER affinity becomes the integer 2), so columns stay untyped
    schema = Schema("R", ["i", "f", "s"], key=["i"])
    relation = Relation(schema, [(1, 2.5, "x")])
    ddl = create_table_sql(relation, "T")
    assert ddl == 'CREATE TABLE "T" ("i", "f", "s")'


#: one of every value class the engine accepts, at the edges of its range
LITERALS = [
    None,
    True,
    False,
    0,
    2**63 - 1,
    -(2**63 - 1),
    -(2**63),
    1.5,
    -0.25,
    1e300,
    1e16,
    float("inf"),
    float("-inf"),
    "",
    "o'brien",
    'say "hi"',
    "what?",
    "100%",
    "'; DROP TABLE D; --",
]


@pytest.mark.parametrize("value", LITERALS, ids=repr)
def test_literal_round_trips(value):
    (back,) = sqlite3.connect(":memory:").execute(
        f"SELECT {_quote_value(value)}"
    ).fetchone()
    assert back == value
    expected_type = int if isinstance(value, bool) else type(value)
    assert type(back) is expected_type


def test_printed_sql_runs_as_printed(capsys):
    """``repro sql``'s stdout, executed verbatim (comment lines included),
    returns the reference Vioπ on a table holding None cells."""
    from repro.cli import main

    schema = Schema("T", ("id", "a", "b"), key=("id",))
    relation = Relation(
        schema,
        [(0, 1, None), (1, 1, "x"), (2, None, "z"), (3, "x", None),
         (4, "x", None), (5, 2, "y")],
    )
    connection = sqlite3.connect(":memory:")
    connection.execute(create_table_sql(relation, "T"))
    connection.executemany("INSERT INTO T VALUES (?, ?, ?)", relation.rows)
    texts = ["([a] -> [b])", "([a=1] -> [b='x'])", "([a!='x'] -> [b='y'])"]
    sigma, found = [], set()
    for number, text in enumerate(texts):
        sigma.append(parse_cfd(text, name=f"cfd{number}"))
        assert main(["sql", "--table", "T", "--cfd", text]) == 0
        for statement in filter(None, capsys.readouterr().out.split(";\n")):
            found |= {(f"cfd{number}", row) for row in connection.execute(statement)}
    expected = detect_violations(relation, sigma, engine="reference")
    assert found == {(v.cfd, v.lhs_values) for v in expected.violations}
    assert len(found) == 4  # three of them need the NULL contract


# -- equivalence on the paper's example ------------------------------------


def test_sqlite_matches_detector_on_emp():
    d0 = emp_instance()
    cfds = emp_tableau_cfds()
    assert run_detection_on_sqlite(d0, cfds) == vio_pi(d0, cfds)


def test_sqlite_matches_detector_on_cust():
    data = generate_cust(3000)
    cfd = cust_street_cfd(80)
    assert run_detection_on_sqlite(data, cfd) == vio_pi(data, cfd)


# -- the engine entry point --------------------------------------------------


def test_engine_matches_reference_and_display_sql_on_emp():
    d0 = emp_instance()
    cfds = emp_tableau_cfds()
    assert_sql_engine_matches_reference(d0, cfds)
    # the display SQL and the engine agree on Vioπ — no drift
    report = detect_violations_sql(d0, cfds, collect_tuples=False)
    assert {(v.cfd, v.lhs_values) for v in report.violations} == (
        run_detection_on_sqlite(d0, cfds)
    )


def test_engine_collect_tuples_false_reports_no_keys():
    d0 = emp_instance()
    report = detect_violations_sql(d0, emp_tableau_cfds(), collect_tuples=False)
    assert report.violations and not report.tuple_keys


def test_handle_is_cached_per_relation():
    d0 = emp_instance()
    first = sql_handle(d0)
    assert sql_handle(d0) is first
    other = emp_instance()
    assert sql_handle(other) is not first


def test_dispatcher_routes_sql_engine(monkeypatch):
    d0 = emp_instance()
    monkeypatch.setenv("REPRO_ENGINE", "sql")
    via_env = detect_violations(d0, emp_tableau_cfds())
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    reference = detect_violations(d0, emp_tableau_cfds())
    assert via_env.violations == reference.violations
    assert via_env.tuple_keys == reference.tuple_keys


# -- quoting / parameterization regressions ----------------------------------

# the breaking inputs of the audit: identifiers with spaces and embedded
# quotes, values with quotes, percent signs and injection-shaped payloads
NASTY_SCHEMA = Schema(
    "nasty", ("row id", 'att"r', "va'l"), key=("row id",)
)
NASTY_ROWS = [
    (1, "o'brien", "100%"),
    (2, "o'brien", "100%"),
    (3, "o'brien", "'; DROP TABLE D; --"),
    (4, 'quo"ted', "100%"),
    (5, "plain", "_ LIKE %"),
]


def nasty_relation():
    return Relation(NASTY_SCHEMA, NASTY_ROWS)


def test_engine_handles_quoted_identifiers_and_values():
    relation = nasty_relation()
    fd = CFD(
        ('att"r',), ("va'l",), [PatternTuple((WILDCARD,), (WILDCARD,))],
        name="fd",
    )
    constant = CFD(
        ('att"r',),
        ("va'l",),
        [PatternTuple(("o'brien",), ("100%",))],
        name="const",
    )
    assert_sql_engine_matches_reference(relation, [fd, constant])


def test_display_sql_survives_quoted_identifiers_and_values():
    relation = nasty_relation()
    constant = CFD(
        ('att"r',),
        ("va'l",),
        [PatternTuple(("o'brien",), ("100%",))],
        name="const",
    )
    assert run_detection_on_sqlite(relation, constant) == vio_pi(
        relation, constant
    )


def test_injection_shaped_values_stay_data():
    relation = nasty_relation()
    constant = CFD(
        ("va'l",),
        ('att"r',),
        [PatternTuple(("'; DROP TABLE D; --",), ("never",))],
        name="inj",
    )
    assert_sql_engine_matches_reference(relation, [constant])
    # the table must still exist afterwards (the payload stayed a value)
    assert detect_violations_sql(relation, [constant]).violations


# -- unrepresentable values fail loudly --------------------------------------


def assert_only_sql_rejects(cells, match, monkeypatch):
    """The in-memory engines answer like reference on ``cells``; the sql
    engine and the printed statements raise :class:`SQLEngineError`."""
    monkeypatch.setattr(columnar, "VECTORIZE_MIN_ROWS", 0)
    schema = Schema("R", ("id", "a"), key=("id",))
    relation = Relation(schema, [(i, cell) for i, cell in enumerate(cells)])
    fd = CFD(("a",), ("id",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    expected = detect_violations(relation, fd, engine="reference")
    assert expected.violations  # the repeated cell is a conflicting X group
    report = detect_violations(relation, fd, engine="fused")
    assert report.violations == expected.violations
    assert report.tuple_keys == expected.tuple_keys
    with pytest.raises(SQLEngineError, match=match):
        detect_violations_sql(relation, fd)
    with pytest.raises(SQLEngineError, match=match):
        run_detection_on_sqlite(relation, fd)


def test_nan_cells_rejected(monkeypatch):
    assert_only_sql_rejects([math.nan, math.nan, 0.5], "NaN", monkeypatch)


def test_oversized_integers_rejected(monkeypatch):
    assert_only_sql_rejects([2**63, 2**63, 2**64 + 1], "64 bits", monkeypatch)


def test_non_primitive_cells_rejected(monkeypatch):
    assert_only_sql_rejects(
        [(2, 3), (2, 3), (4, 5)], "not\\s+representable", monkeypatch
    )


# -- equivalence on random instances ----------------------------------------

ATTRS = ("a", "b", "c")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))


@st.composite
def random_case(draw):
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, 2) for _ in ATTRS]),
            min_size=0,
            max_size=20,
        )
    )
    relation = Relation(SCHEMA, [(i,) + r for i, r in enumerate(rows)])
    lhs_size = draw(st.integers(1, 2))
    attrs = draw(st.permutations(ATTRS).map(lambda p: list(p[: lhs_size + 1])))
    lhs, rhs = attrs[:-1], [attrs[-1]]
    tableau = [
        PatternTuple(
            [draw(st.sampled_from([WILDCARD, 0, 1, 2])) for _ in lhs],
            [draw(st.sampled_from([WILDCARD, 0, 1, 2])) for _ in rhs],
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    cfd = CFD(lhs, rhs, tableau, name="r")
    return relation, cfd


@settings(max_examples=80, deadline=None)
@given(random_case())
def test_sqlite_matches_detector_random(case):
    relation, cfd = case
    assert run_detection_on_sqlite(relation, cfd) == vio_pi(relation, cfd)


@settings(max_examples=80, deadline=None)
@given(random_case())
def test_engine_matches_reference_random(case):
    relation, cfd = case
    assert_sql_engine_matches_reference(relation, [cfd])


# -- the handle cache: bounded LRU that closes what it evicts ------------


def _tiny_relation(tag: int) -> Relation:
    schema = Schema(f"r{tag}", ("k", "v"), key=("k",))
    return Relation(schema, [(1, tag), (2, tag)])


def test_handle_cache_eviction_closes_the_connection(monkeypatch):
    """Filling the cache past its cap must evict LRU-first and actually
    close the evicted database connection — a long-running host cycling
    through relations must not leak file handles."""
    close_sql_handles()
    monkeypatch.setattr(sql, "_HANDLES_CAP", 3)
    relations = [_tiny_relation(i) for i in range(5)]
    handles = [sql_handle(relation) for relation in relations]
    # the two oldest were evicted; their connections are closed for real
    for evicted in handles[:2]:
        with pytest.raises(Exception) as caught:
            evicted._connection.execute("SELECT 1")
        assert "closed" in str(caught.value).lower()
    # the three youngest still answer, and re-requesting one is a cache
    # hit (same object), not a rebuild
    for kept, relation in zip(handles[2:], relations[2:]):
        assert kept._connection.execute("SELECT 1") is not None
        assert sql_handle(relation) is kept
    # an evicted relation gets a *fresh* working handle on re-request
    fresh = sql_handle(relations[0])
    assert fresh is not handles[0]
    assert fresh._connection.execute("SELECT 1") is not None
    close_sql_handles()


def teardown_module(module):
    close_sql_handles()
