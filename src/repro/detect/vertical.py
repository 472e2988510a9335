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
site; the resident session attaches an incremental detector there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core import CFD, ViolationReport, detect_violations, is_wildcard, normalize
from ..core.incremental import ViolationDelta
from ..distributed import (
    CostBreakdown,
    DetectionOutcome,
    ShipmentLog,
    StageTimes,
    VerticalCluster,
)
from ..relational import Relation, SchemaError
from .incremental import IncrementalUpdate, apply_fragment_updates


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
    ``sources`` maps source site -> attributes it ships (joins only),
    ``detector`` is a resident session's state over the plan's relation.
    """

    cfd: CFD
    stage: StageTimes
    details: dict
    coordinator: int | None = None
    sources: dict[int, list[str]] = field(default_factory=dict)
    detector: object = None


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


class IncrementalVerticalDetector:
    """A resident detection session over one vertical cluster and Σ.

    :meth:`detect` runs the one-shot :func:`vertical_step` once per CFD
    — local check where a fragment covers the CFD, otherwise keyed
    columns ship to a coordinator and join — and leaves an attached
    :class:`~repro.core.incremental.IncrementalDetector` behind at each
    plan's site, holding that plan's relation (the covering fragment or
    the joined projection) as resident GROUP-BY state.

    :meth:`update` then absorbs a batch of whole-tuple inserts and
    key deletes in O(|ΔD|): inserted tuples carry every attribute, so the
    *delta's* key join is just a projection — each source site ships only
    its delta's keyed column codes, and the coordinator patches its
    join-side state in place instead of re-joining ``D``.  Deletes travel
    as bare keys (the joined state indexes by key already).  A round is
    all-or-nothing: every plan folds with its batch left open and only
    then do all of them commit, so a round that raises leaves the
    fragment versions, every plan's state, the cost log and the
    shipments as they were.

    Sessions are *single-writer* (no internal lock): concurrent callers
    must serialize externally — the resident service does so with one
    lock per managed session (see :mod:`repro.serve`).
    """

    def __init__(
        self,
        cluster: VerticalCluster,
        cfds: CFD | Iterable[CFD],
        engine: str | None = None,
    ) -> None:
        from ..core import IncrementalDetector

        self.cluster = cluster
        self.cfds = [cfds] if isinstance(cfds, CFD) else list(cfds)
        self._engine = engine
        self._detector_factory = IncrementalDetector
        self.fragments: list[Relation] = [
            site.fragment for site in cluster.sites
        ]
        self._plans: list[_VerticalPlan] = []
        self._log = ShipmentLog()
        self._cost = CostBreakdown()
        self._detected = False

    # -- initial run ------------------------------------------------------

    def detect(self) -> DetectionOutcome:
        """The full one-shot run; attaches the per-plan resident state."""
        if self._detected:
            raise ValueError(
                "detect() already ran for this session; updates are "
                "absorbed via update() — build a new "
                "IncrementalVerticalDetector to re-detect from scratch"
            )
        key = tuple(self.cluster.original_schema.key)
        for cfd in self.cfds:
            plan, relation = vertical_step(self.cluster, cfd, self._log)
            if plan.coordinator is not None:
                # canonical attribute order, so delta projections align
                relation = relation.project(tuple(dict.fromkeys(key + cfd.attributes)))
            plan.detector = self._detector_factory(cfd, engine=self._engine)
            plan.detector.attach(relation)
            self._cost.stages.append(plan.stage)
            self._plans.append(plan)

        self._detected = True
        return DetectionOutcome(
            algorithm="VERTICALDETECT+Δ",
            report=self.report,
            shipments=self._log,
            cost=self._cost,
            details={
                "plans": {plan.cfd.name: plan.details for plan in self._plans},
                "incremental": True,
            },
        )

    # -- updates ----------------------------------------------------------

    def update(self, inserted=(), deleted=()):
        """Absorb one batch of whole-tuple inserts and key deletes.

        ``inserted`` holds rows over the *original* schema (a vertical
        update is a tuple-level fact — every fragment receives its
        projection); ``deleted`` is an iterable of keys.  Predicate
        deletes would need a full scan of ``D`` and are rejected — run a
        predicate against your own copy and pass the keys.
        """
        if not self._detected:
            raise ValueError("run detect() before applying updates")
        if callable(deleted) or hasattr(deleted, "evaluate"):
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

        # advance every fragment version by its projection of the batch
        fragment_updates = {}
        for i, site in enumerate(cluster.sites):
            positions = schema.positions(site.fragment.schema.attributes)
            fragment_updates[i] = (
                [tuple(row[p] for p in positions) for row in inserted],
                deleted,
            )
        prior_fragments = list(self.fragments)
        folded = []
        try:
            apply_fragment_updates(self.fragments, fragment_updates)
            # every plan folds with its batch open; all commit below
            for plan in self._plans:
                positions = schema.positions(plan.detector.schema.attributes)
                projected = [tuple(row[p] for p in positions) for row in inserted]
                if plan.detector._fold_open(projected, deleted):
                    folded.append(plan.detector)
        except BaseException:
            for detector in folded:
                detector._rollback_batch()
            self.fragments[:] = prior_fragments
            raise
        merged = ViolationDelta()
        for detector in folded:
            delta = detector._commit()
            merged.added.merge(delta.added)
            merged.removed.merge(delta.removed)

        # the delta key-join: sources ship only their delta's keyed column
        # codes; the coordinator's join-side state was patched in place
        update_log = ShipmentLog()
        for plan in self._plans:
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
                for plan in self._plans
            ),
            default=0.0,
        )
        stage = StageTimes(scan, transfer, check)
        self._cost.stages.append(stage)
        self._log.merge(update_log)
        return IncrementalUpdate(merged, self.report, update_log, stage)

    # -- results ----------------------------------------------------------

    @property
    def report(self) -> ViolationReport:
        """The full current report (fresh merged copy)."""
        return ViolationReport.union(
            plan.detector.report for plan in self._plans
        )

    @property
    def shipments(self) -> ShipmentLog:
        return self._log

    def outcome(self) -> DetectionOutcome:
        return DetectionOutcome(
            algorithm="VERTICALDETECT+Δ",
            report=self.report,
            shipments=self._log,
            cost=self._cost,
            details={"incremental": True},
        )

    def __repr__(self) -> str:
        return (
            f"IncrementalVerticalDetector({len(self.cfds)} CFDs, "
            f"{self.cluster.n_sites} fragments)"
        )


def incremental_vertical(
    cluster: VerticalCluster,
    cfds: CFD | Iterable[CFD],
    engine: str | None = None,
) -> IncrementalVerticalDetector:
    """An attached incremental vertical session (initial run included)."""
    detector = IncrementalVerticalDetector(cluster, cfds, engine)
    detector.detect()
    return detector
