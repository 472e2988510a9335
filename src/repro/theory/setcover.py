"""Minimum set cover: the source problem of the paper's reductions.

All four NP-completeness proofs (Theorems 1–4) reduce from MINIMUM SET
COVER (the appendix uses the 3-element-subsets variant, still NP-complete
[15]).  This module provides an exact branch-and-bound solver for the small
instances the reduction tests use, plus the classical ``ln n`` greedy.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence


class SetCoverError(ValueError):
    """Raised when no cover exists (the subsets do not span the universe)."""


def _normalize(
    universe: Iterable[Hashable],
    subsets: Mapping[Hashable, Iterable[Hashable]] | Sequence[Iterable[Hashable]],
) -> tuple[dict, dict]:
    universe = dict.fromkeys(universe)  # a set that keeps the given order
    elements = universe.keys()
    if isinstance(subsets, Mapping):
        named = {name: set(s) & elements for name, s in subsets.items()}
    else:
        named = {i: set(s) & elements for i, s in enumerate(subsets)}
    if elements - set().union(*named.values()) if named else universe:
        raise SetCoverError("subsets do not cover the universe")
    return universe, named


def greedy_set_cover(
    universe: Iterable[Hashable],
    subsets: Mapping[Hashable, Iterable[Hashable]] | Sequence[Iterable[Hashable]],
) -> list[Hashable]:
    """Greedy cover: repeatedly take the subset covering most remaining,
    the first given on a tie (not hash order: ``max`` keeps the first)."""
    universe, named = _normalize(universe, subsets)
    remaining = set(universe)
    cover: list[Hashable] = []
    while remaining:
        best = max(named, key=lambda name: len(named[name] & remaining))
        gain = named[best] & remaining
        if not gain:
            raise SetCoverError("subsets do not cover the universe")
        cover.append(best)
        remaining -= gain
    return cover


def minimum_set_cover(
    universe: Iterable[Hashable],
    subsets: Mapping[Hashable, Iterable[Hashable]] | Sequence[Iterable[Hashable]],
) -> list[Hashable]:
    """An exact minimum cover via branch and bound.

    Branches on the uncovered element with the fewest candidate subsets
    (the first given on a tie, never hash order); the greedy solution
    provides the initial upper bound.
    """
    universe, named = _normalize(universe, subsets)
    if not universe:
        return []
    coverers: dict[Hashable, list[Hashable]] = {
        element: [name for name, s in named.items() if element in s]
        for element in universe
    }
    best: list[Hashable] = greedy_set_cover(universe, named)

    def search(remaining: set, chosen: list[Hashable]) -> None:
        nonlocal best
        if not remaining:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            # Even one more subset cannot beat the incumbent unless it
            # finishes the cover; cheap lower bound.
            if len(chosen) + 1 < len(best) + 1:
                for name in coverers[next(iter(remaining))]:
                    if remaining <= named[name] and len(chosen) + 1 < len(best):
                        best = chosen + [name]
                        return
            return
        pending = (element for element in coverers if element in remaining)
        pivot = min(pending, key=lambda element: len(coverers[element]))
        for name in coverers[pivot]:
            search(remaining - named[name], chosen + [name])

    search(set(universe), [])
    return best


def set_cover_size(
    universe: Iterable[Hashable],
    subsets: Mapping[Hashable, Iterable[Hashable]] | Sequence[Iterable[Hashable]],
) -> int:
    """Size of a minimum cover."""
    return len(minimum_set_cover(universe, subsets))


def has_cover_of_size(
    universe: Iterable[Hashable],
    subsets: Mapping[Hashable, Iterable[Hashable]] | Sequence[Iterable[Hashable]],
    k: int,
) -> bool:
    """The decision problem MSC: does a cover of size ``<= k`` exist?"""
    try:
        return set_cover_size(universe, subsets) <= k
    except SetCoverError:
        return False
