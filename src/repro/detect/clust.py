"""Algorithm CLUSTDETECT (Section IV-C): merge CFDs with overlapping LHS.

Partition kind: horizontal.  Paper section: IV-C, Fig. 3(f)–(i).  Two CFDs
``(X → A, Tp)`` and ``(X' → B, T'p)`` are merged when ``X ⊆ X'`` or
``X' ⊆ X``.  For each resulting cluster the data is partitioned once, by
the tableaux *projected onto the shared attributes* ``X ∩ X'``; a
coordinator is designated per projected pattern; and each coordinator runs
the detection queries of every member CFD on the tuples it received.  A
tuple matching several member CFDs is thus shipped once per cluster rather
than once per CFD, which is where CLUSTDETECT's savings over SEQDETECT come
from.

Shipping strategy: each shipped row crosses the network as a *single*
int — its combination's code in the CFD cluster's
:class:`~repro.relational.shareddict.SharedComboDictionary` (the
coordinator needs whole combinations, because every member CFD projects
them differently).  A coordinator *site* dedupes the codes of all the
buckets it coordinates and runs one GROUP BY per member CFD over them: the
distinct combinations are projected onto the member's ``X`` and RHS, the
``X`` carrying two distinct RHS projections conflict, and those matching
the member's own tableau are reported — conflict existence is
multiplicity-free, so this is exactly the row-level answer, and equal
combinations carry equal codes cluster-wide, so nothing is re-encoded.

A step routes each distinct attribute-union combination once, however
many sites hold it (:func:`clust_step`).

Correctness: tuples agreeing on a member's full LHS ``X'`` also agree on
``X ∩ X' ⊆ X'``, hence land at the same coordinator, so every violating
pair is co-located (the Lemma 6 argument, applied per member).  Read the
other way, the bucket ordinal is a function of ``t[X ∩ X']`` and hence of
``t[X']``: two combinations in different buckets never agree on a
member's LHS, so merging a site's buckets before the GROUP BY can neither
add nor lose a conflict.

:func:`clust_step` is the scan → pick → ship step for one CFD cluster,
written once: :func:`clust_detect` runs the member GROUP BYs over what
each coordinator received, and the resident session
(:class:`IncrementalClustDetector`, the shared skeleton of
:mod:`repro.detect.incremental` with this module's absorb step) seeds
its kernels from the same received codes: coordinators keep each
bucket's resident count per combination code, and one GROUP BY kernel
per member CFD over the *distinct* resident combinations — the same
argument again: equal ``X`` means one bucket, so one table per member
serves them all.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..core import (
    CFD,
    VariableCFD,
    Violation,
    ViolationReport,
    normalize,
    pattern_index,
    projector,
    sort_patterns_by_generality,
)
from ..core.incremental import GroupCounts, TransitionCounter, _bump
from ..distributed import (
    Cluster,
    CostBreakdown,
    DetectionOutcome,
    ShipmentLog,
    StageTimes,
)
from ..relational import (
    Relation,
    SharedComboDictionary,
    shared_dict_on,
)
from . import base
from .incremental import (
    _UNDERFLOW,
    _forward,
    _ResidentSession,
    _VariableState,
)
from .pat import Strategy, _resolve_strategy


@dataclass
class CFDCluster:
    """One group of merged variable CFDs and its projected tableau."""

    members: list[VariableCFD]
    shared: tuple[str, ...]
    projected: tuple[tuple[object, ...], ...]
    attributes: tuple[str, ...]
    name: str


def _overlapping(a: VariableCFD, b: VariableCFD) -> bool:
    """The paper's merge condition: one LHS contains the other."""
    sa, sb = set(a.lhs), set(b.lhs)
    return sa <= sb or sb <= sa


def cluster_cfds(
    variables: Sequence[VariableCFD], schema_order: Sequence[str]
) -> list[CFDCluster]:
    """Group variable CFDs by the LHS-overlap condition (union-find)."""
    parent = list(range(len(variables)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(variables)):
        for j in range(i + 1, len(variables)):
            if _overlapping(variables[i], variables[j]):
                parent[find(i)] = find(j)

    groups: dict[int, list[VariableCFD]] = {}
    for i, variable in enumerate(variables):
        groups.setdefault(find(i), []).append(variable)

    order = {attr: pos for pos, attr in enumerate(schema_order)}
    clusters = []
    for members in groups.values():
        shared_set = set(members[0].lhs)
        for member in members[1:]:
            shared_set &= set(member.lhs)
        shared = tuple(sorted(shared_set, key=order.__getitem__))

        projected_rows: dict[tuple, None] = {}
        for member in members:
            positions = [member.lhs.index(attr) for attr in shared]
            for row in member.patterns:
                projected_rows.setdefault(tuple(row[p] for p in positions))
        projected = tuple(sort_patterns_by_generality(projected_rows))

        attr_set = {a for member in members for a in member.attributes}
        attributes = tuple(sorted(attr_set, key=order.__getitem__))
        name = "+".join(sorted({m.source for m in members}))
        clusters.append(
            CFDCluster(
                members=members,
                shared=shared,
                projected=projected,
                attributes=attributes,
                name=name,
            )
        )
    return clusters


def _combo_router(group: CFDCluster):
    """Compile the cluster's σ routing over its attribute-union combinations.

    Returns ``route(combo) → (ordinal, matched)``: the member CFDs whose
    tableau the combination's LHS projection matches, and the projected
    pattern (bucket) its shared-attribute projection falls in — ``None``
    when no member matches, i.e. the tuple is not shipped at all.
    """
    attr_pos = {attr: i for i, attr in enumerate(group.attributes)}
    member_probes = [
        (
            projector([attr_pos[a] for a in member.lhs]),
            pattern_index(member.patterns).first_match,
        )
        for member in group.members
    ]
    shared_of = projector([attr_pos[a] for a in group.shared])
    bucket_of = pattern_index(group.projected).first_match

    def route(combo: tuple) -> tuple[int | None, list[int]]:
        matched = [
            m
            for m, (x_of, first_match) in enumerate(member_probes)
            if first_match(x_of(combo)) is not None
        ]
        if not matched:
            return None, matched
        ordinal = bucket_of(shared_of(combo))
        if ordinal is None:  # cannot happen: member match ⇒ projected match
            raise AssertionError(
                "tuple matched a member CFD but no projected pattern"
            )
        return ordinal, matched

    return route


def cluster_fragment_summary(
    fragment: Relation, group: CFDCluster, route, routed: dict
):
    """One scan of a fragment serving every member CFD of the cluster.

    Member matches and the projected σ ordinal are resolved once per
    distinct combination of :func:`~repro.detect.base.combination_counts`
    by ``route`` (:func:`_combo_router`), memoized in ``routed`` across
    the step's sites.  Each bucket comes back as (row count, distinct
    local combination codes) — ready for the shared-dictionary
    translation at the coordinator — plus the per-member matching counts
    used for check-cost accounting; last, the fragment's local
    dictionary (its distinct combinations).
    """
    n_buckets = len(group.projected)
    n_members = len(group.members)
    counts = [0] * n_buckets
    bucket_codes: list[list[int]] = [[] for _ in range(n_buckets)]
    member_counts = [[0] * n_members for _ in range(n_buckets)]
    values, occupancy = base.combination_counts(fragment, group.attributes)
    for g, combo in enumerate(values):
        hit = routed.get(combo)
        if hit is None:
            hit = routed[combo] = route(combo)
        ordinal, matched = hit
        if ordinal is None:
            continue
        n = occupancy[g]
        counts[ordinal] += n
        bucket_codes[ordinal].append(g)
        for m in matched:
            member_counts[ordinal][m] += n
    return counts, bucket_codes, member_counts, values


@dataclass
class ClusterStep:
    """One CFD cluster's step, as its coordinators left it: bucket ``l``
    went to ``coordinators[l]``.  ``shipped``
    holds, per site with matching rows, ``(counts, bucket_codes, codes,
    occupancy)``: the ``counts[l]`` rows and local combinations
    ``bucket_codes[l]`` it sent to bucket ``l``, and per local
    combination ``g`` its global code ``codes[g]`` and row count
    ``occupancy[g]``; ``routed`` is the step's routing memo."""

    group: CFDCluster
    shared: SharedComboDictionary
    coordinators: list[int]
    shipped: list[tuple[list[int], list[list[int]], list[int], list[int]]]
    stage: StageTimes
    routed: dict


def clust_step(
    cluster: Cluster, group: CFDCluster, pick: Strategy, log: ShipmentLog
) -> ClusterStep:
    """CLUSTDETECT's step for one CFD cluster: one scan per site for all
    members, ``lstat`` exchange, a coordinator per projected pattern by
    ``pick``, each bucket shipped as one combination code per row (the
    cluster's dictionary is cached on the data cluster)."""
    shared: SharedComboDictionary = shared_dict_on(
        cluster, ("combo",) + tuple(group.members), SharedComboDictionary
    )
    fragments = [site.fragment for site in cluster.sites]
    # one router and one routing memo for all of the step's site scans
    route, routed = _combo_router(group), {}
    tasks = [(i, (group, route, routed)) for i in range(len(fragments))]
    summaries = base.scan_sites(fragments, cluster_fragment_summary, tasks)
    base.exchange_statistics(cluster, log)
    coordinators = pick(cluster, [summary[0] for summary in summaries])

    width = len(group.attributes)
    n_buckets = len(group.projected)
    shipped: list[tuple] = []
    rows = [0] * n_buckets
    member_rows = [[0] * len(group.members) for _ in range(n_buckets)]
    stage_log = ShipmentLog()
    for i, (site, (counts, bucket_codes, member_counts, values)) in enumerate(
        zip(cluster.sites, summaries)
    ):
        codes = shared.codes_for(i)
        if codes is None:
            codes = shared.translate(i, values)
        if not any(counts):
            continue
        occupancy = base.combination_counts(site.fragment, group.attributes)[1]
        shipped.append((counts, bucket_codes, codes, occupancy))
        for ordinal, count in enumerate(counts):
            if not count:
                continue
            dest = coordinators[ordinal]
            if dest != site.index:
                # one combination code per row on the wire
                stage_log.ship(
                    dest, site.index, count, count * width,
                    tag=f"{group.name}#p{ordinal}", n_codes=count,
                )
            rows[ordinal] += count
            for m, matching in enumerate(member_counts[ordinal]):
                member_rows[ordinal][m] += matching
    log.merge(stage_log)

    # the cost model charges each bucket's full row counts: a routing
    # scan of the received rows, then one GROUP BY per member over its
    # own matching tuples
    model = cluster.cost_model
    ops_per_site: dict[int, float] = {}
    for ordinal, n in enumerate(rows):
        if not n:
            continue
        ops = float(n)
        for matching in member_rows[ordinal]:
            ops += model.check_ops(matching)
        site = coordinators[ordinal]
        ops_per_site[site] = ops_per_site.get(site, 0.0) + ops
    stage = StageTimes(
        max((model.scan_time(len(fragment)) for fragment in fragments), default=0.0),
        model.transfer_time(stage_log.outgoing_by_source()),
        max(map(model.check_time, ops_per_site.values()), default=0.0),
    )
    return ClusterStep(group, shared, coordinators, shipped, stage, routed)


def _details(steps: Sequence[ClusterStep]) -> dict:
    return {
        "clusters": [step.group.name for step in steps],
        "coordinators": {step.group.name: step.coordinators for step in steps},
    }


def clust_detect(
    cluster: Cluster,
    cfds: Iterable[CFD],
    strategy: str | Strategy = "s",
) -> DetectionOutcome:
    """Detect violations of Σ with LHS-overlap clustering.

    ``strategy`` selects coordinators per projected pattern: ``"s"``
    (max-stat, minimizing shipment) or ``"rt"`` (greedy response time), as
    in the single-CFD algorithms.
    """
    pick = _resolve_strategy(cluster, strategy)
    report = ViolationReport()
    log = ShipmentLog()
    variables: list[VariableCFD] = []
    for cfd in cfds:
        normalized = normalize(cfd)
        report.merge(base.local_constant_checks(cluster, normalized.constants))
        variables.extend(normalized.variables)

    steps = [
        clust_step(cluster, group, pick, log)
        for group in cluster_cfds(variables, cluster.schema.attributes)
    ]
    for step in steps:
        group = step.group
        # distinct global combination codes per coordinator *site*, deduped
        # across its buckets and the sending sites (its working set)
        working: defaultdict[int, set[int]] = defaultdict(set)
        for counts, bucket_codes, codes, _occupancy in step.shipped:
            for dest, count, local in zip(step.coordinators, counts, bucket_codes):
                if count:
                    working[dest].update(map(codes.__getitem__, local))
        # one GROUP BY per member CFD per coordinator site, over the
        # site's distinct combinations (see the module docstring for why
        # merging its buckets is sound)
        schema = cluster.schema.project(group.attributes)
        working_sets = [
            [step.shared.values[code] for code in codes]
            for codes in working.values()
        ]
        for member in group.members:
            x_of = projector(schema.positions(member.lhs))
            y_of = projector(schema.positions(member.rhs))
            matches = pattern_index(member.patterns).matches_any
            for combos in working_sets:
                for x in base.conflicting_x_codes(
                    zip(map(x_of, combos), map(y_of, combos))
                ):
                    if matches(x):
                        report.add(Violation(member.source, member.lhs, x))

    return DetectionOutcome(
        algorithm="CLUSTDETECT",
        report=report,
        shipments=log,
        cost=CostBreakdown(stages=[step.stage for step in steps]),
        details=_details(steps),
    )


# -- incremental sessions ------------------------------------------------------


def scan_clust_delta_summary(
    fragment: Relation, group: CFDCluster, inserted, deleted
):
    """One site's scan of its *delta rows* for one CFD cluster.

    The incremental counterpart of :func:`cluster_fragment_summary`: for
    each projected pattern returns the signed ``combination → ±count``
    summary (cancelled combinations dropped) and the row-event count;
    last, ``combination → (bucket, member CFDs it σ-matches)`` for every
    delta combination, so the coordinator need not probe the tableaux
    again.  ``fragment`` supplies only the schema — the scan never
    touches resident rows, which keeps the update cost independent of
    ``|D_i|``.
    """
    schema = fragment.schema
    n_buckets = len(group.projected)
    combo_deltas: list[dict] = [{} for _ in range(n_buckets)]
    row_events = [0] * n_buckets
    routed: dict[tuple, tuple] = {}
    if not inserted and not deleted:
        return combo_deltas, row_events, routed
    combo_of = projector(schema.positions(group.attributes))
    route = _combo_router(group)
    for sign, rows in ((-1, deleted), (1, inserted)):
        for row in rows:
            combo = combo_of(row)
            hit = routed.get(combo)
            if hit is None:
                hit = routed[combo] = route(combo)
            ordinal = hit[0]
            if ordinal is None:
                continue
            deltas = combo_deltas[ordinal]
            count = deltas.get(combo, 0) + sign
            if count:
                deltas[combo] = count
            else:
                del deltas[combo]
            row_events[ordinal] += 1
    return combo_deltas, row_events, routed


class _ClusterGroupState:
    """One CFD cluster's resident coordinator state.

    ``combos`` is one :class:`~repro.core.incremental.GroupCounts` table,
    bucket ordinal → {global combination code: resident row count}; it
    is never settled, so its conflict set stays empty (a rollback
    restores the journalled flag, never re-derives it).  Per member CFD,
    one GROUP BY kernel over the *distinct* resident combinations
    (conflict existence is multiplicity-free, exactly like the one-shot
    coordinator).  Equal ``X`` always lands in one bucket (``shared ⊆
    member.lhs``), so one table per member serves all of the cluster's
    buckets.
    """

    __slots__ = ("group", "shared", "coordinators", "combos", "members", "_probes")

    def __init__(self, group, shared, coordinators, schema) -> None:
        self.group = group
        self.shared = shared
        self.coordinators = list(coordinators)
        self.combos = GroupCounts()
        self.members = [_VariableState(member) for member in group.members]
        #: per member: combination -> X, combination -> RHS
        self._probes = [
            (
                projector(schema.positions(member.lhs)),
                projector(schema.positions(member.rhs)),
            )
            for member in group.members
        ]

    @classmethod
    def seeded(
        cls, step: ClusterStep, schema, violations: TransitionCounter
    ) -> "_ClusterGroupState":
        """The state a one-shot step leaves resident: per bucket the row
        count of every combination code its coordinator received, and
        every distinct combination crossed into its member kernels."""
        group = step.group
        state = cls(
            group, step.shared, step.coordinators,
            schema.project(group.attributes),
        )
        touched = [set() for _ in group.members]
        table = state.combos.counts
        for counts, bucket_codes, codes, occupancy in step.shipped:
            for ordinal, (count, local) in enumerate(zip(counts, bucket_codes)):
                if not count:
                    continue
                bucket = table.setdefault(ordinal, {})
                for g in local:
                    code = codes[g]
                    bucket[code] = bucket.get(code, 0) + occupancy[g]
        for ordinal in range(len(group.projected)):
            for code in table.get(ordinal, ()):
                combo = step.shared.values[code]
                state.cross(combo, step.routed[combo][1], 1, touched)
        state.settle(touched, violations)
        return state

    def begin(self) -> None:
        """Open a transactional batch, here and in every member kernel."""
        self.combos.begin()
        for member in self.members:
            member.begin()

    def commit(self) -> None:
        """Close the batch, discarding its undo logs."""
        self.combos.commit()
        for member in self.members:
            member.commit()

    def rollback(self) -> None:
        """Restore every touched combination count and the member
        kernels.  A no-op when no batch is open."""
        self.combos.rollback()
        for member in self.members:
            member.rollback()

    def cross(
        self, combo: tuple, matched: Sequence[int], sign: int, touched: list[set]
    ) -> None:
        """A combination entered (+1) or left (−1) the distinct working
        set: patch the kernel of each ``matched`` member CFD — those whose
        tableau it σ-matches."""
        for m in matched:
            x_of, y_of = self._probes[m]
            x = x_of(combo)
            self.members[m].add_rows(x, y_of(combo), sign)
            touched[m].add(x)

    def patch(
        self,
        ordinal: int,
        deltas: Mapping[tuple, int],
        routed: Mapping[tuple, tuple],
        touched: list[set],
    ) -> None:
        """Apply one site's signed combination counts to one bucket."""
        counts = self.combos.counts
        journal = self.combos._arm(ordinal)
        bucket = counts.setdefault(ordinal, {})
        intern = self.shared.intern
        try:
            for combo, count in deltas.items():
                prior = _bump(bucket, intern(combo), count, journal)
                # a combination's conflict contribution changes exactly
                # when its resident count crosses zero
                if not prior:
                    self.cross(combo, routed[combo][1], 1, touched)
                elif prior + count == 0:
                    self.cross(combo, routed[combo][1], -1, touched)
        except ValueError:
            raise ValueError(_UNDERFLOW) from None
        finally:
            if not bucket:
                del counts[ordinal]

    def settle(self, touched: list[set], violations: TransitionCounter) -> None:
        """Re-derive the conflict status of every patched group."""
        for member, seen in zip(self.members, touched):
            for x in seen:
                flip = member.settle(x)
                if flip:
                    violations.add(member._violation(x), flip)


class IncrementalClustDetector(_ResidentSession):
    """A resident CLUSTDETECT session over one cluster and CFD set Σ.

    :meth:`detect` runs :func:`clust_step` once per CFD cluster and keeps
    what each coordinator received resident; :meth:`update` /
    :meth:`apply_updates` absorb batches in O(|ΔD|): each updated site
    σ-scans only its delta, new combinations intern append-only, and the
    coordinators receive signed ``(combo_code, count)`` pairs —
    ``n_codes = 2·|changed combinations|`` — a combination's conflict
    contribution changing exactly when its resident count crosses zero.
    """

    algorithm = "CLUSTDETECT+Δ"

    def __init__(
        self,
        cluster: Cluster,
        cfds: Iterable[CFD],
        strategy: str | Strategy = "s",
    ) -> None:
        self._pick = _resolve_strategy(cluster, strategy)
        super().__init__(
            cluster, cfds, cluster.sites,
            [site.fragment for site in cluster.sites],
        )
        self._groups = cluster_cfds(
            self._variable_cfds, cluster.schema.attributes
        )

    #: a round may span several sites
    apply_updates = _ResidentSession._round

    def _seed(self) -> dict:
        steps = [
            clust_step(self.cluster, group, self._pick, self._log)
            for group in self._groups
        ]
        schema = self.cluster.schema
        for step in steps:
            self._states.append(
                _ClusterGroupState.seeded(step, schema, self._violations)
            )
            self._cost.stages.append(step.stage)
        return _details(steps)

    def _absorb(self, batches, update_log: ShipmentLog) -> dict[int, int]:
        received_events: dict[int, int] = {}
        for state in self._states:
            group = state.group
            touched = [set() for _ in group.members]
            for index, inserted, removed in batches:
                combo_deltas, row_events, routed = (
                    scan_clust_delta_summary(
                        self._initial_fragments[index], group,
                        inserted, removed,
                    )
                )
                for ordinal, deltas in enumerate(combo_deltas):
                    if not deltas:
                        continue
                    _forward(
                        update_log, received_events,
                        state.coordinators[ordinal], index,
                        row_events[ordinal], len(group.attributes),
                        f"{group.name}#p{ordinal}Δ", 2 * len(deltas),
                    )
                    state.patch(ordinal, deltas, routed, touched)
            state.settle(touched, self._violations)
        return received_events


def incremental_clust(
    cluster: Cluster, cfds: Iterable[CFD], strategy: str | Strategy = "s"
) -> IncrementalClustDetector:
    """An attached incremental CLUSTDETECT session (initial run included)."""
    detector = IncrementalClustDetector(cluster, cfds, strategy)
    detector.detect()
    return detector
