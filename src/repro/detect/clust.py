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

Correctness: tuples agreeing on a member's full LHS ``X'`` also agree on
``X ∩ X' ⊆ X'``, hence land at the same coordinator, so every violating
pair is co-located (the Lemma 6 argument, applied per member).  Read the
other way, the bucket ordinal is a function of ``t[X ∩ X']`` and hence of
``t[X']``: two combinations in different buckets never agree on a
member's LHS, so merging a site's buckets before the GROUP BY can neither
add nor lose a conflict.
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
from ..core.incremental import (
    ConstantFolds,
    TransitionCounter,
    VariableGroupState,
    commit_counters,
    counters_report,
    counters_size,
)
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
    column_store,
    compatible_with_bindings,
    shared_dict_on,
)
from . import base
from .pat import Strategy, make_select_min_response, select_max_stat


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
    fragment: Relation, group: CFDCluster, need_values: bool = True
):
    """One scan of a fragment serving every member CFD of the cluster.

    Columnar: the attribute union is encoded once, member matches and the
    projected σ ordinal are resolved per *distinct* combination, and each
    bucket comes back as (row count, distinct local combination codes) —
    ready for the shared-dictionary translation at the coordinator — plus
    the per-member matching counts used for check-cost accounting.
    ``need_values`` additionally returns the fragment's local dictionary
    (its distinct combinations), which the coordinator requests only once
    per fragment.
    """
    n_buckets = len(group.projected)
    n_members = len(group.members)
    counts = [0] * n_buckets
    bucket_codes: list[list[int]] = [[] for _ in range(n_buckets)]
    member_counts = [[0] * n_members for _ in range(n_buckets)]
    if not fragment.rows:
        return counts, bucket_codes, member_counts, [] if need_values else None

    key = column_store(fragment).key_column(group.attributes)
    occupancy = base.group_occupancy(fragment, group.attributes)
    route = _combo_router(group)
    for g, combo in enumerate(key.values):
        ordinal, matched = route(combo)
        if ordinal is None:
            continue
        n = occupancy[g]
        counts[ordinal] += n
        bucket_codes[ordinal].append(g)
        for m in matched:
            member_counts[ordinal][m] += n
    return counts, bucket_codes, member_counts, key.values if need_values else None


def _scan_cluster(cluster: Cluster, group: CFDCluster):
    """Every site's scan for one CFD cluster, translated to global codes.

    Returns the cluster's shared combination dictionary — one per CFD
    cluster, cached on the data cluster so repeat detections reuse the
    interned codes — each site's ``(counts, bucket_codes, codes,
    member_counts)`` and the modelled scan time (slowest site).
    """
    shared: SharedComboDictionary = shared_dict_on(
        cluster, ("combo",) + tuple(group.members), SharedComboDictionary
    )
    fragments = [site.fragment for site in cluster.sites]
    tasks = [
        (i, (group, shared.codes_for(i) is None))
        for i in range(len(fragments))
    ]
    site_results = []
    for i, (counts, bucket_codes, member_counts, values) in enumerate(
        base.scan_sites(fragments, cluster_fragment_summary, tasks)
    ):
        codes = shared.codes_for(i)
        if codes is None:
            codes = shared.translate(i, values)
        site_results.append((counts, bucket_codes, codes, member_counts))
    scan_time = cluster.cost_model.scan_time
    scan = max((scan_time(len(fragment)) for fragment in fragments), default=0.0)
    return shared, site_results, scan


def _resolve_strategy(cluster: Cluster, strategy: str | Strategy) -> Strategy:
    """Coordinator-selection strategy: ``"s"``, ``"rt"`` or a callable."""
    if isinstance(strategy, str):
        if strategy == "s":
            return select_max_stat
        if strategy == "rt":
            return make_select_min_response(cluster)
        raise ValueError(f"unknown strategy {strategy!r}; use 's' or 'rt'")
    return strategy


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
    cfds = list(cfds)
    pick = _resolve_strategy(cluster, strategy)

    report = ViolationReport()
    log = ShipmentLog()
    variables: list[VariableCFD] = []
    for cfd in cfds:
        normalized = normalize(cfd)
        report.merge(base.local_constant_checks(cluster, normalized.constants))
        variables.extend(normalized.variables)

    groups = cluster_cfds(variables, cluster.schema.attributes)
    model = cluster.cost_model
    cost_stages = []
    chosen: dict[str, list[int]] = {}

    for group in groups:
        shared, site_results, scan = _scan_cluster(cluster, group)
        base.exchange_statistics(cluster, log)

        lstat = [counts for counts, _codes, _pairs, _mc in site_results]
        coordinators = pick(cluster, lstat)
        chosen[group.name] = coordinators

        width = len(group.attributes)
        stage_log = ShipmentLog()
        merged_rows = [0] * len(group.projected)
        # distinct global combination codes per coordinator *site*, deduped
        # across its buckets and the sending sites (its working set)
        received: defaultdict[int, set[int]] = defaultdict(set)
        total_counts = [
            [0] * len(group.members) for _ in group.projected
        ]
        for site, (counts, bucket_codes, codes, member_counts) in zip(
            cluster.sites, site_results
        ):
            for ordinal, count in enumerate(counts):
                if not count:
                    continue
                dest = coordinators[ordinal]
                if dest != site.index:
                    stage_log.ship(
                        dest,
                        site.index,
                        count,
                        count * width,
                        tag=f"{group.name}#p{ordinal}",
                        # one combination code per row on the wire
                        n_codes=count,
                    )
                merged_rows[ordinal] += count
                received[dest].update(
                    map(codes.__getitem__, bucket_codes[ordinal])
                )
                for m in range(len(group.members)):
                    total_counts[ordinal][m] += member_counts[ordinal][m]
        transfer = model.transfer_time(stage_log.outgoing_by_source())
        log.merge(stage_log)

        # one GROUP BY per member CFD per coordinator site, over the
        # site's distinct combinations (see the module docstring for why
        # merging its buckets is sound)
        schema = cluster.schema.project(group.attributes)
        working_sets = [
            [shared.values[code] for code in codes]
            for codes in received.values()
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

        # the cost model charges each bucket's full row counts: a routing
        # scan of the received rows, then one GROUP BY per member over its
        # own matching tuples
        ops_per_site: dict[int, float] = {}
        for ordinal, rows in enumerate(merged_rows):
            if not rows:
                continue
            ops = float(rows)
            for matching in total_counts[ordinal]:
                ops += model.check_ops(matching)
            site_index = coordinators[ordinal]
            ops_per_site[site_index] = ops_per_site.get(site_index, 0.0) + ops
        check = max(
            (model.check_time(ops) for ops in ops_per_site.values()),
            default=0.0,
        )
        cost_stages.append(StageTimes(scan, transfer, check))

    return DetectionOutcome(
        algorithm="CLUSTDETECT",
        report=report,
        shipments=log,
        cost=CostBreakdown(stages=cost_stages),
        details={
            "clusters": [group.name for group in groups],
            "coordinators": chosen,
        },
    )


# -- incremental sessions ------------------------------------------------------


def scan_clust_delta_summary(
    fragment: Relation, group: CFDCluster, inserted, deleted
):
    """One site's scan of its *delta rows* for one CFD cluster.

    The incremental counterpart of :func:`cluster_fragment_summary`: for
    each projected pattern returns the signed ``combination → ±count``
    summary (cancelled combinations dropped), the row-event count and the
    signed row-count change.  ``fragment`` supplies only the schema — the
    scan never touches resident rows, which keeps the update cost
    independent of ``|D_i|``.
    """
    schema = fragment.schema
    n_buckets = len(group.projected)
    combo_deltas: list[dict] = [{} for _ in range(n_buckets)]
    row_events = [0] * n_buckets
    net_rows = [0] * n_buckets
    if not inserted and not deleted:
        return combo_deltas, row_events, net_rows
    combo_of = projector(schema.positions(group.attributes))
    route = _combo_router(group)
    match_cache: dict[tuple, int | None] = {}
    for sign, rows in ((-1, deleted), (1, inserted)):
        for row in rows:
            combo = combo_of(row)
            ordinal = match_cache.get(combo, -1)
            if ordinal == -1:
                ordinal = match_cache[combo] = route(combo)[0]
            if ordinal is None:
                continue
            deltas = combo_deltas[ordinal]
            count = deltas.get(combo, 0) + sign
            if count:
                deltas[combo] = count
            else:
                del deltas[combo]
            row_events[ordinal] += 1
            net_rows[ordinal] += sign
    return combo_deltas, row_events, net_rows


class _ClusterGroupState:
    """One CFD cluster's resident coordinator state."""

    __slots__ = (
        "group",
        "shared",
        "coordinators",
        "combo_counts",
        "member_states",
        "bucket_rows",
        "schema",
    )

    def __init__(self, group, shared, coordinators, schema) -> None:
        self.group = group
        self.shared = shared
        self.coordinators = list(coordinators)
        #: per projected pattern: global combo code -> resident row count
        self.combo_counts: list[dict[int, int]] = [
            {} for _ in group.projected
        ]
        #: per projected pattern, per member CFD: the GROUP-BY state over
        #: the bucket's *distinct* combinations (conflict existence is
        #: multiplicity-free, exactly like the one-shot coordinator)
        self.member_states: list[list[VariableGroupState]] = [
            [
                VariableGroupState(member, collect_tuples=False)
                for member in group.members
            ]
            for _ in group.projected
        ]
        self.bucket_rows = [0] * len(group.projected)
        self.schema = schema

    def patch(
        self,
        ordinal: int,
        deltas: Mapping[tuple, int],
        violations: TransitionCounter,
        keys: TransitionCounter,
    ) -> None:
        """Apply one site's signed combination counts to one bucket."""
        counts = self.combo_counts[ordinal]
        intern = self.shared.intern
        entered: list[tuple] = []
        left: list[tuple] = []
        for combo, count in deltas.items():
            code = intern(combo)
            new = counts.get(code, 0) + count
            if new > 0:
                counts[code] = new
                if new == count:
                    entered.append(combo)
            elif new == 0:
                del counts[code]
                left.append(combo)
            else:
                raise ValueError(
                    "coordinator state underflow: a site deleted rows it "
                    "never reported"
                )
        for sign, combos in ((-1, left), (1, entered)):
            if not combos:
                continue
            batch = Relation(self.schema, combos, copy=False)
            for state in self.member_states[ordinal]:
                state.fold(batch, sign, violations, keys)


class IncrementalClustDetector:
    """A resident CLUSTDETECT session over one cluster and CFD set Σ.

    :meth:`detect` runs the one-shot LHS-overlap algorithm once and keeps
    every coordinator's per-combination counts *and* per-member GROUP-BY
    states resident; :meth:`update` / :meth:`apply_updates` then absorb
    insert/delete batches in O(|ΔD|): each updated site σ-scans only its
    delta, new combinations intern append-only into the cluster's
    :class:`~repro.relational.shareddict.SharedComboDictionary` (codes
    from the initial run never move), and the coordinators receive signed
    ``(combo_code, count)`` pairs — a combination's conflict contribution
    changes exactly when its resident count crosses zero, which is when
    it enters or leaves the distinct working set the member CFDs group
    over.

    Sessions are *single-writer* (no internal lock): concurrent callers
    must serialize externally — the resident service does so with one
    lock per managed session (see :mod:`repro.serve`).
    """

    def __init__(
        self,
        cluster: Cluster,
        cfds: Iterable[CFD],
        strategy: str | Strategy = "s",
    ) -> None:
        self.cluster = cluster
        self.cfds = [cfds] if isinstance(cfds, CFD) else list(cfds)
        self._pick = _resolve_strategy(cluster, strategy)
        self.fragments: list[Relation] = [
            site.fragment for site in cluster.sites
        ]
        self._wrap_keys = len(cluster.schema.key_positions()) == 1
        self._violations = TransitionCounter()
        self._keys = TransitionCounter()
        variables: list[VariableCFD] = []
        constants = []
        for cfd in self.cfds:
            normalized = normalize(cfd)
            constants.extend(normalized.constants)
            variables.extend(normalized.variables)
        self._constants = [
            ConstantFolds(
                [
                    constant
                    for constant in constants
                    if site.predicate is None
                    or compatible_with_bindings(
                        site.predicate, constant.condition()
                    )
                ]
            )
            for site in cluster.sites
        ]
        self._groups = cluster_cfds(variables, cluster.schema.attributes)
        self._states: list[_ClusterGroupState] = []
        self._log = ShipmentLog()
        self._cost = CostBreakdown()
        self._detected = False

    # -- initial run ------------------------------------------------------

    def detect(self) -> DetectionOutcome:
        """The full one-shot run; builds the resident coordinator state.

        One run per session, like the horizontal sessions: re-running
        would fold stale rows on top of live counters.
        """
        if self._detected:
            raise ValueError(
                "detect() already ran for this session; updates are "
                "absorbed via update()/apply_updates() — build a new "
                "IncrementalClustDetector to re-detect from scratch"
            )
        cluster = self.cluster
        model = cluster.cost_model
        chosen: dict[str, list[int]] = {}

        for site, folds in zip(cluster.sites, self._constants):
            batch = site.fragment
            folds.fold(batch, 1, self._violations, self._keys)

        for group in self._groups:
            shared, site_results, scan = _scan_cluster(cluster, group)
            base.exchange_statistics(cluster, self._log)

            lstat = [counts for counts, _codes, _pairs, _mc in site_results]
            coordinators = self._pick(cluster, lstat)
            chosen[group.name] = list(coordinators)

            schema = cluster.schema.project(group.attributes)
            state = _ClusterGroupState(group, shared, coordinators, schema)
            width = len(group.attributes)
            stage_log = ShipmentLog()
            total_counts = [
                [0] * len(group.members) for _ in group.projected
            ]
            for site, (counts, bucket_codes, codes, member_counts) in zip(
                cluster.sites, site_results
            ):
                occupancy = base.group_occupancy(
                    site.fragment, group.attributes
                )
                for ordinal, count in enumerate(counts):
                    if not count:
                        continue
                    dest = coordinators[ordinal]
                    if dest != site.index:
                        stage_log.ship(
                            dest,
                            site.index,
                            count,
                            count * width,
                            tag=f"{group.name}#p{ordinal}",
                            n_codes=count,
                        )
                    state.bucket_rows[ordinal] += count
                    bucket = state.combo_counts[ordinal]
                    for g in bucket_codes[ordinal]:
                        code = codes[g]
                        bucket[code] = bucket.get(code, 0) + occupancy[g]
                    for m in range(len(group.members)):
                        total_counts[ordinal][m] += member_counts[ordinal][m]
            transfer = model.transfer_time(stage_log.outgoing_by_source())
            self._log.merge(stage_log)

            decode = shared.values
            ops_per_site: dict[int, float] = {}
            for ordinal, rows in enumerate(state.bucket_rows):
                if not rows:
                    continue
                batch = Relation(
                    schema,
                    [decode[code] for code in state.combo_counts[ordinal]],
                    copy=False,
                )
                for member_state in state.member_states[ordinal]:
                    member_state.fold(
                        batch, 1, self._violations, self._keys
                    )
                site_index = coordinators[ordinal]
                ops = float(rows)
                for m in range(len(group.members)):
                    ops += model.check_ops(total_counts[ordinal][m])
                ops_per_site[site_index] = (
                    ops_per_site.get(site_index, 0.0) + ops
                )
            check = max(
                (model.check_time(ops) for ops in ops_per_site.values()),
                default=0.0,
            )
            self._cost.stages.append(StageTimes(scan, transfer, check))
            self._states.append(state)

        self._detected = True
        return DetectionOutcome(
            algorithm="CLUSTDETECT+Δ",
            report=self.report,
            shipments=self._log,
            cost=self._cost,
            details={
                "clusters": [group.name for group in self._groups],
                "coordinators": chosen,
                "incremental": True,
            },
        )

    # -- updates ----------------------------------------------------------

    def update(self, site: int, inserted=(), deleted=()):
        """Absorb one site's batch (see :meth:`apply_updates`)."""
        return self.apply_updates({site: (inserted, deleted)})

    def apply_updates(self, updates: Mapping[int, tuple]):
        """Absorb insert/delete batches at several sites in one round.

        Mirrors
        :meth:`~repro.detect.incremental.IncrementalHorizontalDetector.apply_updates`:
        only the deltas are scanned, shipped — as signed
        ``(combo_code, count)`` pairs, recorded with
        ``n_codes = 2·|changed combinations|`` — and folded into the
        resident per-member GROUP-BY states.
        """
        from .incremental import IncrementalUpdate, apply_fragment_updates

        if not self._detected:
            raise ValueError("run detect() before applying updates")
        cluster = self.cluster
        model = cluster.cost_model
        update_log = ShipmentLog()

        # all-or-nothing fragment step first: a round it rejects leaves
        # no open counter batch behind
        batches = apply_fragment_updates(self.fragments, updates)
        self._violations.begin()
        self._keys.begin()
        if not batches:
            return IncrementalUpdate(
                self._commit(), self.report, update_log, StageTimes(0, 0, 0)
            )

        # constants: fold each site's delta locally (Proposition 5)
        for index, inserted, removed in batches:
            folds = self._constants[index]
            for sign, rows in ((-1, removed), (1, inserted)):
                if rows:
                    batch = Relation(cluster.schema, rows, copy=False)
                    folds.fold(batch, sign, self._violations, self._keys)

        # clusters: σ-scan each updated site's delta
        received_events: dict[int, int] = {}
        site_fragments = [site.fragment for site in cluster.sites]
        for state in self._states:
            tasks = [
                (index, (state.group, inserted, removed))
                for index, inserted, removed in batches
            ]
            results = base.scan_sites(
                site_fragments, scan_clust_delta_summary, tasks
            )
            for (index, _args), (combo_deltas, row_events, net_rows) in zip(
                tasks, results
            ):
                for ordinal, deltas in enumerate(combo_deltas):
                    if not deltas:
                        continue
                    coordinator = state.coordinators[ordinal]
                    if coordinator != index:
                        update_log.ship(
                            coordinator,
                            index,
                            row_events[ordinal],
                            row_events[ordinal] * len(state.group.attributes),
                            tag=f"{state.group.name}#p{ordinal}Δ",
                            n_codes=2 * len(deltas),
                        )
                    received_events[coordinator] = (
                        received_events.get(coordinator, 0)
                        + row_events[ordinal]
                    )
                    state.patch(
                        ordinal, deltas, self._violations, self._keys
                    )
                    state.bucket_rows[ordinal] += net_rows[ordinal]

        scan = max(
            (
                model.scan_time(len(inserted) + len(removed))
                for _index, inserted, removed in batches
            ),
            default=0.0,
        )
        transfer = model.transfer_time(update_log.outgoing_by_source())
        check = max(
            (
                model.check_time(model.check_ops(events))
                for events in received_events.values()
            ),
            default=0.0,
        )
        stage = StageTimes(scan, transfer, check)
        self._cost.stages.append(stage)
        self._log.merge(update_log)
        return IncrementalUpdate(self._commit(), self.report, update_log, stage)

    # -- results ----------------------------------------------------------

    def _commit(self):
        return commit_counters(self._violations, self._keys, self._wrap_keys)

    @property
    def report(self) -> ViolationReport:
        """The full current report (fresh copy)."""
        return counters_report(self._violations, self._keys, self._wrap_keys)

    def report_size(self) -> tuple[int, int]:
        """``(len(report.violations), len(report.tuple_keys))`` in O(1)."""
        return counters_size(self._violations, self._keys)

    @property
    def shipments(self) -> ShipmentLog:
        """Cumulative traffic: the initial run plus every absorbed batch."""
        return self._log

    def outcome(self) -> DetectionOutcome:
        """The session as a :class:`DetectionOutcome` (cumulative)."""
        return DetectionOutcome(
            algorithm="CLUSTDETECT+Δ",
            report=self.report,
            shipments=self._log,
            cost=self._cost,
            details={"incremental": True},
        )

    def __repr__(self) -> str:
        total = sum(len(fragment) for fragment in self.fragments)
        return (
            f"IncrementalClustDetector({len(self.cfds)} CFDs, "
            f"{len(self.fragments)} sites, {total} tuples)"
        )


def incremental_clust(
    cluster: Cluster, cfds: Iterable[CFD], strategy: str | Strategy = "s"
) -> IncrementalClustDetector:
    """An attached incremental CLUSTDETECT session (initial run included)."""
    detector = IncrementalClustDetector(cluster, cfds, strategy)
    detector.detect()
    return detector
