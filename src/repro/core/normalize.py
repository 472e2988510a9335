"""Normal forms of CFDs (Section IV-A).

A CFD ``(X → Y, Tp)`` converts to an equivalent set of CFDs ``(X → A, tp)``
with a single RHS attribute and a single pattern tuple.  Each such CFD is

* a **constant CFD** when ``tp[A]`` is a constant — equivalent to one whose
  pattern tuple carries no wildcards at all (wildcard LHS entries can be
  dropped), and violated by *single* tuples, hence locally checkable
  (Proposition 5); or
* a **variable CFD** when ``tp[A] = '_'`` — violated only by *pairs* of
  tuples, the case that may force data shipment.

For the distributed algorithms we regroup the variable normal forms of one
CFD back into a single :class:`VariableCFD` per RHS-attribute set: it keeps
one LHS pattern tableau (sorted by generality, ready for the σ partition
function of Section IV-B) and ships each matching tuple once for all its RHS
attributes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .cfd import CFD, PatternTuple, WILDCARD, is_wildcard, matches, tuple_matches
from .epatterns import is_predicate


@dataclass(frozen=True)
class ConstantCFD:
    """A constant normal form ``(X → A, (c̄ ‖ a))`` with no LHS wildcards.

    ``lhs``/``values`` list only the attributes bound to constants (the
    wildcard positions of the original pattern are dropped — an equivalent
    form, as observed in [2]).  ``report_lhs`` keeps the original ``X`` so
    violation reports project onto the attributes of the source CFD.
    """

    source: str
    lhs: tuple[str, ...]
    values: tuple[object, ...]
    rhs_attr: str
    rhs_value: object
    report_lhs: tuple[str, ...]
    pattern_index: int = 0

    def condition(self) -> dict[str, object]:
        """The conjunction ``F_φ`` of ``B = b`` atoms of this pattern.

        Extended predicate entries are omitted (they are not equality
        atoms); the ``F_i ∧ F_φ`` pruning that consumes this stays sound —
        it just prunes less.
        """
        return {
            attr: value
            for attr, value in zip(self.lhs, self.values)
            if not is_predicate(value)
        }

    def violated_by(self, lhs_values: Sequence[object], rhs_value: object) -> bool:
        """Whether a single tuple with these projections violates the CFD."""
        return tuple_matches(lhs_values, self.values) and not matches(
            rhs_value, self.rhs_value
        )


@dataclass(frozen=True)
class VariableCFD:
    """The variable part of a CFD: ``(X → A1..Am, T)`` with all-wildcard RHS.

    ``patterns`` holds LHS-only pattern rows sorted by generality (fewer
    wildcards first), as required by the σ partition function (Lemma 6);
    ``pattern_sources`` maps each row back to the tableau index of the
    source CFD.
    """

    source: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    patterns: tuple[tuple[object, ...], ...]
    pattern_sources: tuple[int, ...] = field(default=(), compare=False)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes a coordinator needs: ``X`` then the RHS attributes."""
        seen = dict.fromkeys(self.lhs)
        seen.update(dict.fromkeys(self.rhs))
        return tuple(seen)

    def matches_some_pattern(self, lhs_values: Sequence[object]) -> bool:
        """Whether the values match the LHS of any pattern row."""
        return any(tuple_matches(lhs_values, p) for p in self.patterns)

    def as_cfd(self) -> CFD:
        """Reconstruct a plain :class:`CFD` (all-wildcard RHS tableau)."""
        rhs_row = (WILDCARD,) * len(self.rhs)
        return CFD(
            self.lhs,
            self.rhs,
            [PatternTuple(p, rhs_row) for p in self.patterns],
            name=self.source,
        )


@dataclass(frozen=True)
class NormalizedCFD:
    """The full normal form of one CFD."""

    source: str
    constants: tuple[ConstantCFD, ...]
    variables: tuple[VariableCFD, ...]


def sort_patterns_by_generality(
    patterns: Iterable[tuple[object, ...]],
) -> list[tuple[object, ...]]:
    """Stable sort with fewer-wildcard (more specific) rows first."""
    return sorted(
        patterns, key=lambda row: sum(1 for v in row if is_wildcard(v))
    )


#: guards the LRU reorder/evict mutations below — the resident service's
#: request threads call these memos concurrently, and a hit must never
#: make the entry momentarily invisible to a concurrent reader (which
#: would recompute exactly what the memo exists to remember).  The critical sections are
#: a few dict operations, far from any hot per-row path.
_MEMO_LOCK = threading.Lock()


def _memo_get(memo: dict, key):
    """LRU probe: a hit is re-inserted so it moves to the young end."""
    with _MEMO_LOCK:
        cached = memo.pop(key, None)
        if cached is not None:
            memo[key] = cached
    return cached


def _memo_put(memo: dict, key, value, cap: int) -> None:
    """LRU insert: evict oldest-first at the cap, never the whole memo.

    Wholesale clearing caused a thundering herd — every concurrently hot
    entry re-computed at once the moment the property suites pushed the
    memo over the cap.  Python dicts iterate in insertion order, and
    :func:`_memo_get` reinserts on hit, so the first key is always the
    least recently used.
    """
    with _MEMO_LOCK:
        while len(memo) >= cap:
            del memo[next(iter(memo))]
        memo[key] = value


#: value-keyed memo of :func:`normalize` — CFDs are immutable values and
#: every detection run (and every site of a distributed run) re-normalizes
#: the same Σ, so the split is worth remembering.  Keyed on the name too:
#: ``CFD.__eq__`` deliberately ignores it, but the normal forms carry it
#: as their ``source``.  Bounded LRU: the oldest entry is evicted at the
#: cap (property-based suites mint thousands of CFDs).
_NORMALIZE_MEMO: dict[tuple[str, CFD], NormalizedCFD] = {}
_NORMALIZE_MEMO_CAP = 512


def normalize(cfd: CFD) -> NormalizedCFD:
    """Split ``cfd`` into constant and variable normal forms (memoized).

    The union of violations of the parts equals the violations of the
    original CFD (the standard equivalence of [2], pinned by tests).
    """
    key = (cfd.name, cfd)
    cached = _memo_get(_NORMALIZE_MEMO, key)
    if cached is not None:
        return cached
    normalized = _normalize_uncached(cfd)
    _memo_put(_NORMALIZE_MEMO, key, normalized, _NORMALIZE_MEMO_CAP)
    return normalized


def _normalize_uncached(cfd: CFD) -> NormalizedCFD:
    constants: list[ConstantCFD] = []
    # RHS-attribute subset with wildcard entries -> list of (tableau idx, lhs row)
    variable_rows: dict[tuple[str, ...], list[tuple[int, tuple[object, ...]]]] = {}

    for index, tp in enumerate(cfd.tableau):
        # A constant RHS entry implies pairwise equality on its own, so it
        # needs no variable part.  A *predicate* RHS entry (eCFD) does not:
        # two tuples may both satisfy it yet differ, so the embedded FD
        # still needs the pairwise GROUP BY — alongside the single-tuple
        # predicate check.
        wildcard_rhs = tuple(
            attr
            for attr, v in zip(cfd.rhs, tp.rhs)
            if is_wildcard(v) or is_predicate(v)
        )
        for attr, value in zip(cfd.rhs, tp.rhs):
            if is_wildcard(value):
                continue
            kept = [
                (a, c) for a, c in zip(cfd.lhs, tp.lhs) if not is_wildcard(c)
            ]
            constants.append(
                ConstantCFD(
                    source=cfd.name,
                    lhs=tuple(a for a, _ in kept),
                    values=tuple(c for _, c in kept),
                    rhs_attr=attr,
                    rhs_value=value,
                    report_lhs=cfd.lhs,
                    pattern_index=index,
                )
            )
        if wildcard_rhs:
            variable_rows.setdefault(wildcard_rhs, []).append((index, tp.lhs))

    variables = []
    for rhs_attrs, rows in variable_rows.items():
        # Deduplicate identical LHS rows, keep the first source index.
        seen: dict[tuple[object, ...], int] = {}
        for index, lhs_row in rows:
            seen.setdefault(lhs_row, index)
        ordered = sort_patterns_by_generality(seen)
        variables.append(
            VariableCFD(
                source=cfd.name,
                lhs=cfd.lhs,
                rhs=rhs_attrs,
                patterns=tuple(ordered),
                pattern_sources=tuple(seen[row] for row in ordered),
            )
        )
    return NormalizedCFD(cfd.name, tuple(constants), tuple(variables))


def normalize_all(cfds: Iterable[CFD]) -> list[NormalizedCFD]:
    """Normalize a set Σ of CFDs."""
    return [normalize(cfd) for cfd in cfds]


def projector(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``values → tuple(values[p] for p in positions)``, compiled once.

    Several positions project in C (``itemgetter``); ``itemgetter`` yields
    a bare value for one position and rejects none, hence the lambdas.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda values: (values[p],)
    return lambda values: ()


class PatternIndex:
    """First-match lookup ``σ: t[X] → pattern ordinal`` (Section IV-B).

    Patterns must already be sorted by generality.  Rows are bucketed by
    their wildcard mask; a lookup probes one hash table per distinct mask
    and returns the smallest matching ordinal, so the cost per tuple is
    independent of the tableau size.
    """

    __slots__ = ("_buckets", "_predicate_rows", "n_patterns")

    def __init__(self, patterns: Sequence[tuple[object, ...]]) -> None:
        self.n_patterns = len(patterns)
        buckets: dict[tuple[int, ...], dict[tuple, int]] = {}
        # rows carrying eCFD predicate entries cannot be hashed on their
        # constants; they are probed linearly after the hash lookups
        predicate_rows: list[tuple[int, tuple[object, ...]]] = []
        for ordinal, row in enumerate(patterns):
            if any(is_predicate(v) for v in row):
                predicate_rows.append((ordinal, row))
                continue
            const_positions = tuple(
                i for i, v in enumerate(row) if not is_wildcard(v)
            )
            table = buckets.setdefault(const_positions, {})
            key = tuple(row[i] for i in const_positions)
            table.setdefault(key, ordinal)  # keep the most specific (first)
        self._buckets = [
            (projector(positions), table)
            for positions, table in buckets.items()
        ]
        self._predicate_rows = predicate_rows

    def first_match(self, values: Sequence[object]) -> int | None:
        """Ordinal of the first pattern whose LHS matches, or ``None``."""
        best: int | None = None
        for project, table in self._buckets:
            ordinal = table.get(project(values))
            if ordinal is not None and (best is None or ordinal < best):
                best = ordinal
        for ordinal, row in self._predicate_rows:
            if best is not None and ordinal >= best:
                break
            if tuple_matches(values, row):
                best = ordinal
                break
        return best

    def matches_any(self, values: Sequence[object]) -> bool:
        """Whether any pattern row matches (membership in ``D[Tp[X]]``)."""
        return self.first_match(values) is not None


#: value-keyed memo of :func:`pattern_index` (same rationale and LRU
#: bounding as the :func:`normalize` memo: one trie per distinct tableau,
#: shared by every site and repeat detection that partitions with it).
_INDEX_MEMO: dict[tuple, PatternIndex] = {}
_INDEX_MEMO_CAP = 512


def pattern_index(patterns: tuple[tuple[object, ...], ...]) -> PatternIndex:
    """The (memoized) :class:`PatternIndex` of a pattern tableau.

    Pattern rows are immutable value tuples, so the σ trie is a pure
    function of them.  This is the one place in ``src/`` that calls the
    :class:`PatternIndex` constructor: every engine, detector and session
    gets its index here, so a tableau is compiled once per process however
    many sites, buckets or repeat detections probe it.
    """
    cached = _memo_get(_INDEX_MEMO, patterns)
    if cached is not None:
        return cached
    index = PatternIndex(patterns)
    _memo_put(_INDEX_MEMO, patterns, index, _INDEX_MEMO_CAP)
    return index
