"""Detection in vertically partitioned data.

Partition kind: vertical (fragment ``i`` holds ``π_{X_i}(D)``, keyed).
Paper sections: II-C (local checkability) and VII (the semijoin direction).
The paper defers full algorithms for the vertical case to a later report,
but its Section V machinery needs a working detector: a CFD is checked
*locally* when some fragment covers all its attributes (Section II-C);
otherwise the needed attribute columns are shipped (keyed) to a coordinator
and joined before running the centralized detector — the semijoin-flavoured
plan Section VII points at.  Both the key joins and the coordinator's
detection run on the columnar backend: joins probe the fragments' cached
group indexes, and detection goes through the fused engine the
:func:`repro.core.detect_violations` dispatcher selects.

Shipping strategy: whole keyed columns, at most once per attribute, with
the payload accounted as dictionary codes (``n_codes`` — each shipped cell
is one int against the source fragment's column dictionary; the
dictionaries themselves travel once, like control traffic).  Per-CFD plans
are independent; their results merge in CFD order.

Each needed attribute column is shipped at most once: for every attribute
outside the coordinator's fragment we pick one source site holding it.

With ``prune=True`` the sources apply semijoin-style filtering before
shipping: each site keeps only the rows whose *local* attributes match the
projection of at least one pattern tuple (constants must agree; wildcards
admit everything).  Any tuple matching a full pattern matches its
projection at every site, so pruning never loses violations; it simply
avoids shipping rows the coordinator's join would discard anyway — the
semijoin idea of [25] the paper points at for the vertical case.

:func:`vertical_step` is one CFD's plan and key join: :func:`vertical_detect`
runs the centralized detector on the relation it leaves at the plan's
site; the resident session keeps that relation and its fold state there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core import CFD, ViolationReport, detect_violations, is_wildcard, normalize
from ..core.incremental import (
    ConstantFolds,
    VariableGroupState,
    apply_batch,
)
from ..distributed import (
    CostBreakdown,
    DetectionOutcome,
    ShipmentLog,
    Site,
    StageTimes,
    VerticalCluster,
)
from ..relational import Relation, SchemaError
from ..relational.rowstore import KeyedRows, _is_predicate
from .incremental import IncrementalUpdate, _DistributedSession


def locally_checkable_vertical(
    cluster: VerticalCluster, cfd: CFD
) -> bool:
    """Whether some fragment covers all attributes of ``cfd``."""
    return bool(cluster.sites_with_attributes(cfd.attributes))


def _pattern_projections(cfd: CFD, attributes: list[str]) -> list[dict[str, object]]:
    """The constant bindings of each pattern's LHS, restricted to ``attributes``.

    Only LHS entries matter for matching ``D[Tp[X]]``; RHS constants are
    checked by the detection query itself.
    """
    normalized = normalize(cfd)
    rows = [
        dict(zip(variable.lhs, row))
        for variable in normalized.variables
        for row in variable.patterns
    ]
    rows.extend(
        dict(zip(constant.lhs, constant.values))
        for constant in normalized.constants
    )
    return [
        {
            attr: value
            for attr, value in row.items()
            if attr in attributes and not is_wildcard(value)
        }
        for row in rows
    ]


def _prune_rows(relation: Relation, projections: list[dict[str, object]]) -> Relation:
    """Rows matching at least one pattern projection (conservative filter)."""
    if any(not projection for projection in projections):
        return relation  # some pattern admits everything locally
    schema = relation.schema
    compiled = [
        [(schema.position(attr), value) for attr, value in projection.items()]
        for projection in projections
    ]
    rows = [
        row
        for row in relation.rows
        if any(all(row[p] == v for p, v in checks) for checks in compiled)
    ]
    return Relation(schema, rows, copy=False)


@dataclass
class _VerticalPlan:
    """One CFD's plan: a local check or a coordinator key-join.

    ``details`` is what ``details["plans"]`` reports for the CFD,
    ``sources`` maps source site -> attributes it ships (joins only).  A
    resident session also keeps, at the plan's site, the plan's relation
    (``rows``) and its constant and variable fold state.
    """

    cfd: CFD
    stage: StageTimes
    details: dict
    coordinator: int | None = None
    sources: dict[int, list[str]] = field(default_factory=dict)
    rows: KeyedRows | None = None
    constants: ConstantFolds | None = None
    variables: list[VariableGroupState] = field(default_factory=list)


def vertical_step(
    cluster: VerticalCluster, cfd: CFD, log: ShipmentLog, prune: bool = False
) -> tuple[_VerticalPlan, Relation]:
    """One CFD's plan, its shipments on ``log``, and the relation its
    check runs on: a covering fragment, else the coordinator's key join
    of the shipped (with ``prune``, filtered) columns."""
    model = cluster.cost_model
    needed = cfd.attributes
    local_sites = cluster.sites_with_attributes(needed)
    if local_sites:
        site = local_sites[0]
        check = model.check_time(model.check_ops(len(site.fragment)))
        plan = _VerticalPlan(cfd, StageTimes(0.0, 0.0, check), {"local": site.name})
        return plan, site.fragment

    # Coordinator: the site covering the most needed attributes.
    coverage = [
        sum(1 for a in needed if a in site.fragment.schema)
        for site in cluster.sites
    ]
    coordinator = max(range(len(coverage)), key=coverage.__getitem__)
    coord_site = cluster.sites[coordinator]
    have = [a for a in needed if a in coord_site.fragment.schema]

    # One source site per missing attribute (attribute shipped once).
    sources: dict[int, list[str]] = {}
    for attribute in needed:
        if attribute in have:
            continue
        holders = cluster.sites_with_attributes([attribute])
        if not holders:
            raise ValueError(f"no fragment holds attribute {attribute!r}")
        sources.setdefault(holders[0].index, []).append(attribute)

    key = tuple(cluster.original_schema.key)
    stage_log = ShipmentLog()
    joined = coord_site.fragment.project(key + tuple(have))
    if prune:
        joined = _prune_rows(joined, _pattern_projections(cfd, have))
    for source_index, attributes in sorted(sources.items()):
        column = cluster.sites[source_index].fragment.project(key + tuple(attributes))
        if prune:
            column = _prune_rows(column, _pattern_projections(cfd, attributes))
        stage_log.ship(
            coordinator,
            source_index,
            len(column),
            len(column) * len(column.schema),
            tag=cfd.name,
            # keyed columns ship dictionary-coded: one int per cell
            n_codes=len(column) * len(column.schema),
        )
        joined = joined.join(column, on=key)
    log.merge(stage_log)
    # Join + GROUP BY at the coordinator.
    stage = StageTimes(
        0.0,
        model.transfer_time(stage_log.outgoing_by_source()),
        model.check_time(
            model.check_ops(len(joined), n_queries=1 + len(sources))
        ),
    )
    details = {
        "coordinator": coord_site.name,
        "shipped_from": {
            cluster.sites[i].name: attrs for i, attrs in sources.items()
        },
    }
    return _VerticalPlan(cfd, stage, details, coordinator, sources), joined


def vertical_detect(
    cluster: VerticalCluster,
    cfds: CFD | Iterable[CFD],
    prune: bool = False,
) -> DetectionOutcome:
    """Detect ``Vioπ(Σ, D)`` in a vertical partition."""
    if isinstance(cfds, CFD):
        cfds = [cfds]
    report = ViolationReport()
    log = ShipmentLog()
    plans = []
    for cfd in cfds:
        plan, relation = vertical_step(cluster, cfd, log, prune)
        report.merge(detect_violations(relation, cfd, collect_tuples=True))
        plans.append(plan)
    return DetectionOutcome(
        algorithm="VERTICALDETECT",
        report=report,
        shipments=log,
        cost=CostBreakdown(stages=[plan.stage for plan in plans]),
        details={"plans": {plan.cfd.name: plan.details for plan in plans}},
    )


# -- incremental sessions ------------------------------------------------------


class IncrementalVerticalDetector(_DistributedSession):
    """A resident detection session over one vertical cluster and Σ.

    :meth:`detect` runs the one-shot :func:`vertical_step` once per CFD
    — local check where a fragment covers the CFD, otherwise keyed
    columns ship to a coordinator and join — and keeps, at each plan's
    site, that plan's relation (the covering fragment or the joined
    projection) in a :class:`~repro.relational.rowstore.KeyedRows` store
    together with the CFD's constant folds and variable group state.

    :meth:`update` then absorbs a batch of whole-tuple inserts and
    key deletes in O(|ΔD|): inserted tuples carry every attribute, so the
    *delta's* key join is just a projection — each source site ships only
    its delta's keyed column codes, and the coordinator patches its
    join-side state in place instead of re-joining ``D``.  Deletes travel
    as bare keys (the joined state indexes by key already).  Each
    fragment keeps its rows in a ``KeyedRows`` store too, which takes its
    projection of the batch in O(|ΔD|); :attr:`fragments` shows them as
    relations, and ``verify`` checks against their key join.

    Every plan folds straight into the session's one pair of
    :class:`~repro.core.incremental.TransitionCounter`\\ s, so
    :meth:`report_size` is O(1) and an update's ``delta`` is exactly
    what changed in :attr:`report`.  A round is one
    :class:`~repro.core.incremental.Transaction` over the counters and
    every store and group state: a round that raises leaves all of them,
    the cost log and the shipments as they were.
    """

    algorithm = "VERTICALDETECT+Δ"

    def __init__(
        self, cluster: VerticalCluster, cfds: CFD | Iterable[CFD]
    ) -> None:
        super().__init__(cluster, cfds, cluster.original_schema)
        #: per fragment: its resident rows
        self._stores = [KeyedRows(site.fragment) for site in cluster.sites]
        self._plans: list[_VerticalPlan] = []

    @property
    def fragments(self) -> list[Relation]:
        """Each fragment's current rows as a :class:`Relation` (cached
        until that fragment's next successful round)."""
        with self._session_lock:
            return [store.relation for store in self._stores]

    def _current(self) -> Relation:
        cluster = self.cluster
        sites = [
            Site(site.index, fragment, site.name)
            for site, fragment in zip(cluster.sites, self.fragments)
        ]
        return VerticalCluster(cluster.original_schema, sites).reconstruct()

    def _fold_plan(self, plan: _VerticalPlan, batches: list) -> None:
        self._fold(plan.rows.schema, batches, plan.constants, plan.variables)

    def _initial_run(self) -> dict:
        key = tuple(self.cluster.original_schema.key)
        for cfd in self.cfds:
            plan, relation = vertical_step(self.cluster, cfd, self._log)
            if plan.coordinator is not None:
                # canonical attribute order, so delta projections align
                relation = relation.project(tuple(dict.fromkeys(key + cfd.attributes)))
            normalized = normalize(cfd)
            plan.rows = KeyedRows(relation)
            plan.constants = ConstantFolds(normalized.constants)
            plan.variables = [
                VariableGroupState(variable) for variable in normalized.variables
            ]
            self._fold_plan(plan, [(relation.rows, 1)])
            self._cost.stages.append(plan.stage)
            self._plans.append(plan)
        self._transaction.participants = (
            [*self._stores, *(plan.rows for plan in self._plans)]
            + [state for plan in self._plans for state in plan.variables]
        )
        return {"plans": {plan.cfd.name: plan.details for plan in self._plans}}

    # -- updates ----------------------------------------------------------

    def update(self, inserted=(), deleted=()) -> IncrementalUpdate:
        """Absorb one batch of whole-tuple inserts and key deletes.

        ``inserted`` holds rows over the *original* schema (a vertical
        update is a tuple-level fact — every fragment receives its
        projection); ``deleted`` is an iterable of keys.  Predicate
        deletes would need a full scan of ``D`` and are rejected — run a
        predicate against your own copy and pass the keys.
        """
        with self._session_lock:
            self._require_detected()
            if _is_predicate(deleted):
                raise ValueError(
                    "incremental vertical sessions take key deletes, not "
                    "predicates (a predicate needs a scan of D)"
                )
            cluster = self.cluster
            model = cluster.cost_model
            schema = cluster.original_schema
            width = len(schema)
            inserted = [tuple(row) for row in inserted]
            for row in inserted:
                if len(row) != width:
                    raise SchemaError(
                        f"row of width {len(row)} does not fit schema "
                        f"{schema.name!r} of width {width}: {row!r}"
                    )
            deleted = list(deleted)
            delta_rows = len(inserted) + len(deleted)

            def check_batch(store):
                positions = schema.positions(store.schema.attributes)
                projected = [tuple(row[p] for p in positions) for row in inserted]
                return store.check(projected, deleted)

            # every fragment's and every plan's projection of the batch is
            # checked before any state moves
            stores = self._stores
            plans = self._plans
            checked = [check_batch(store) for store in stores]
            plan_checked = [check_batch(plan.rows) for plan in plans]
            with self._transaction:
                for store, (rows, doomed) in zip(stores, checked):
                    apply_batch(store, rows, doomed)
                for plan, (rows, doomed) in zip(plans, plan_checked):
                    self._fold_plan(plan, apply_batch(plan.rows, rows, doomed))

            # the delta key-join: sources ship only their delta's keyed
            # column codes; the coordinator's join-side state was patched
            # in place
            update_log = ShipmentLog()
            for plan in plans:
                for source_index, attributes in sorted(plan.sources.items()):
                    if delta_rows:
                        cells = delta_rows * (len(schema.key) + len(attributes))
                        update_log.ship(
                            plan.coordinator, source_index, delta_rows, cells,
                            tag=f"{plan.cfd.name}Δ", n_codes=cells,
                        )

            scan = model.scan_time(delta_rows)
            transfer = model.transfer_time(update_log.outgoing_by_source())
            check = max(
                (
                    model.check_time(
                        model.check_ops(delta_rows, n_queries=1 + len(plan.sources))
                    )
                    for plan in plans
                ),
                default=0.0,
            )
            # every round is recorded, an empty one too
            return self._settle_round(
                update_log, StageTimes(scan, transfer, check), True
            )


def incremental_vertical(
    cluster: VerticalCluster, cfds: CFD | Iterable[CFD]
) -> IncrementalVerticalDetector:
    """An attached incremental vertical session (initial run included)."""
    detector = IncrementalVerticalDetector(cluster, cfds)
    detector.detect()
    return detector
