"""Closed frequent itemset mining by attribute-subset group counts.

The Section IV-B optimization instantiates the wildcards of an FD with
"frequent pattern tuples found in the database", mined as *closed frequent
itemsets* over the FD's LHS attributes.  Items are ``(attribute, value)``
pairs; a transaction is one tuple's projection onto the LHS.  An itemset is
frequent when its support reaches the threshold and closed when no proper
superset has the same support.

An itemset holds at most one value per attribute, so it is a projection
onto one of the 2ᵏ − 1 subsets of the k ≤ 5 LHS attributes: one
``Counter`` per subset, summed over the distinct transactions, gives every
support.  Closedness does not depend on the threshold (a superset with
equal support is frequent whenever the itemset is), so the closed itemsets
at any threshold are those at support 1 filtered by support.

Itemsets come out by size, then by first occurrence in the transactions,
then by subset order (``itertools.combinations``).  The order matters:
mined rows go through a stable generality sort, so among rows with as many
wildcards it decides which pattern claims a tuple, and so what is shipped.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Sequence

Itemset = frozenset


def _mine(transactions, attributes, min_support, closed_only):
    """The (closed) itemsets with support ``>= min_support``, in order."""
    if min_support < 1:
        raise ValueError("min_support must be a positive count")
    # distinct transactions, counted, in first-seen order: a projection's
    # support sums theirs, and its first one's rank is its first occurrence
    distinct = Counter(map(tuple, transactions))
    groups: dict[tuple, tuple[Counter, dict]] = {}
    for size in range(1, len(attributes) + 1):
        for subset in combinations(range(len(attributes)), size):
            counts, first = Counter(), {}
            for rank, (transaction, n) in enumerate(distinct.items()):
                key = tuple(map(transaction.__getitem__, subset))
                counts[key] += n
                first.setdefault(key, rank)
            groups[subset] = (counts, first)
    absorbed = set()  # (subset, key) with a one-item superset of equal support
    for subset, (counts, _first) in groups.items():
        if not closed_only or len(subset) == 1:
            continue
        for p in range(len(subset)):
            parent = subset[:p] + subset[p + 1:]
            parent_counts = groups[parent][0]
            for key, support in counts.items():
                parent_key = key[:p] + key[p + 1:]
                if parent_counts[parent_key] == support:
                    absorbed.add((parent, parent_key))
    order = sorted(
        (len(subset), first[key], position, subset, key, support)
        for position, (subset, (counts, first)) in enumerate(groups.items())
        for key, support in counts.items()
        if support >= min_support and (subset, key) not in absorbed
    )
    return {
        frozenset(zip(map(attributes.__getitem__, subset), key)): support
        for _size, _first, _position, subset, key, support in order
    }


def frequent_itemsets(
    transactions: Sequence[Sequence[object]],
    attributes: Sequence[str],
    min_support: int,
) -> dict[Itemset, int]:
    """All itemsets with support ``>= min_support`` and their supports.

    ``transactions[i][j]`` is the value of ``attributes[j]`` in tuple ``i``.
    The empty itemset is excluded.  ``min_support`` must be positive.
    """
    return _mine(transactions, tuple(attributes), min_support, False)


def closed_frequent_itemsets(
    transactions: Sequence[Sequence[object]],
    attributes: Sequence[str],
    min_support: int,
) -> dict[Itemset, int]:
    """The closed subsets of :func:`frequent_itemsets`: no one-item
    superset has the same support."""
    return _mine(transactions, tuple(attributes), min_support, True)


def itemsets_to_rows(
    itemsets: Iterable[Itemset], attributes: Sequence[str], wildcard: object
) -> list[tuple]:
    """Render itemsets as pattern rows over ``attributes``."""
    rows = []
    for itemset in itemsets:
        values = dict(itemset)
        rows.append(tuple(values.get(attr, wildcard) for attr in attributes))
    return rows
