"""The core primitives at benchmark scale: each runs once on the
``REPRO_SCALE``-sized ``cust`` data and its result is checked."""

from repro.core import PatternIndex, detect_violations, normalize
from repro.datagen import cust_street_cfd, generate_cust
from repro.experiments import scaled
from repro.relational import Eq


def test_centralized_detection_throughput():
    data = generate_cust(scaled(400_000))
    cfd = cust_street_cfd(255)
    report = detect_violations(data, cfd, collect_tuples=False)
    assert report is not None


def test_pattern_index_lookup():
    cfd = cust_street_cfd(255)
    (variable,) = normalize(cfd).variables
    index = PatternIndex(variable.patterns)
    data = generate_cust(scaled(200_000))
    positions = data.schema.positions(variable.lhs)
    rows = data.rows

    def lookup_all():
        return sum(
            1
            for row in rows
            if index.first_match(tuple(row[p] for p in positions)) is not None
        )

    matched = lookup_all()
    assert matched > 0


def test_group_by_throughput():
    data = generate_cust(scaled(400_000))
    groups = data.group_by(["CC", "AC", "zip"])
    assert groups


def test_selection_throughput():
    data = generate_cust(scaled(400_000))
    selected = data.select(Eq("CC", 44))
    assert len(selected) > 0
