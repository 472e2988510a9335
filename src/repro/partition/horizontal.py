"""Horizontal fragmentation: ``D_i = σ_{F_i}(D)`` (Section II-B).

Fragments are disjoint and their union reconstructs ``D``.  Besides
predicate-defined partitions (the paper's Figure 1(b) groups EMP by
``title``), the module provides the uniform round-robin split used
throughout the paper's experiments ("we distributed the data uniformly
among the sites") plus hash- and attribute-based splits.
"""

from __future__ import annotations

import numbers
import zlib
from typing import Sequence

from ..distributed import Cluster, CostModel
from ..relational import Eq, Predicate, Relation


class PartitionError(ValueError):
    """Raised when a requested partition is not well formed."""


def partition_by_predicates(
    relation: Relation,
    predicates: Sequence[Predicate],
    names: Sequence[str] | None = None,
    cost_model: CostModel | None = None,
    strict: bool = True,
) -> Cluster:
    """Fragment by selection predicates, one site per predicate.

    ``strict`` enforces the paper's well-formedness conditions: the
    predicates must be pairwise disjoint on the data and jointly cover it.
    """
    schema = relation.schema
    fragments: list[list[tuple]] = [[] for _ in predicates]
    for row in relation.rows:
        hits = [
            i for i, pred in enumerate(predicates) if pred.evaluate(row, schema)
        ]
        if strict and len(hits) != 1:
            raise PartitionError(
                f"row {row!r} matches {len(hits)} fragment predicates; "
                "a horizontal partition needs exactly one"
            )
        if hits:
            fragments[hits[0]].append(row)
    return Cluster.from_fragments(
        (Relation(schema, rows, copy=False) for rows in fragments),
        predicates=predicates,
        names=names,
        cost_model=cost_model,
    )


def partition_by_attribute(
    relation: Relation,
    attribute: str,
    cost_model: CostModel | None = None,
) -> Cluster:
    """One fragment per distinct value of ``attribute`` (Figure 1(b) style)."""
    groups = relation.group_by([attribute])
    if not groups:
        # An empty relation still deploys as a single (empty) fragment.
        return Cluster.from_fragments([relation], cost_model=cost_model)
    values = sorted(groups, key=repr)
    predicates = [Eq(attribute, value[0]) for value in values]
    names = [f"{attribute}={value[0]}" for value in values]
    return Cluster.from_fragments(
        (
            Relation(relation.schema, groups[value], copy=False)
            for value in values
        ),
        predicates=predicates,
        names=names,
        cost_model=cost_model,
    )


def partition_uniform(
    relation: Relation,
    n_sites: int,
    cost_model: CostModel | None = None,
) -> Cluster:
    """Round-robin split into ``n_sites`` near-equal fragments.

    This is the uniform distribution of the paper's experiments: it does not
    bias the fragmentation toward any detection algorithm.
    """
    if n_sites < 1:
        raise PartitionError("need at least one site")
    buckets: list[list[tuple]] = [[] for _ in range(n_sites)]
    for position, row in enumerate(relation.rows):
        buckets[position % n_sites].append(row)
    return Cluster.from_fragments(
        (Relation(relation.schema, rows, copy=False) for rows in buckets),
        cost_model=cost_model,
    )


def _canonical(value: object) -> object:
    """Integral numbers (``True``, ``1.0``) as their ``int``."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        value = float(value)
        return int(value) if value.is_integer() else value
    return value


def partition_by_hash(
    relation: Relation,
    attributes: Sequence[str],
    n_sites: int,
    cost_model: CostModel | None = None,
) -> Cluster:
    """Hash-partition on ``attributes`` into ``n_sites`` fragments.

    A row goes to site ``crc32(repr(canonical values)) % n_sites``, in
    relation order: the same under every ``PYTHONHASHSEED``, and equal
    numbers (``1 == 1.0 == True``) share a site, other values by ``repr``.
    """
    if n_sites < 1:
        raise PartitionError("need at least one site")
    positions = relation.schema.positions(attributes)
    buckets: list[list[tuple]] = [[] for _ in range(n_sites)]
    for row in relation.rows:
        canonical = repr(tuple(_canonical(row[p]) for p in positions))
        buckets[zlib.crc32(canonical.encode()) % n_sites].append(row)
    return Cluster.from_fragments(
        (Relation(relation.schema, rows, copy=False) for rows in buckets),
        cost_model=cost_model,
    )
