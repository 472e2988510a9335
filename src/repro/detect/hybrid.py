"""Detection under hybrid fragmentation (Section VIII future work).

Partition kind: hybrid — horizontal *regions*, each vertically partitioned
inside.  Paper section: VIII (future work).  Two phases compose the
existing machinery:

1. **Vertical gather (within each region).**  For each CFD, every region
   designates the vertical fragment covering most of the CFD's attributes
   as the *region gather site*; the other fragments ship the keyed columns
   of the missing attributes there (dictionary-coded, one int per cell —
   ``n_codes`` in the shipment log), where the region's
   ``π_{X ∪ A}(D_region[Tp[X]])`` projection is assembled by key join.
   Regions whose predicate contradicts every pattern (``F_i ∧ F_φ``) are
   skipped outright; the remaining gathers are independent, and their
   shipment logs merge in region order.

2. **Horizontal detection (across regions).**  The gather sites now hold a
   horizontal partition of the matching tuples, so the σ-based per-pattern
   coordination of PATDETECTS runs across them unchanged — we synthesize a
   horizontal :class:`~repro.distributed.Cluster` over the gathered
   projections (whose buckets then ship as shared-dictionary code pairs,
   like every horizontal algorithm) and remap the resulting shipments back
   to global site ids.

Each tuple attribute crosses the network at most twice (once into its
region's gather site, once to a pattern coordinator), and only when needed.

The resident session (:class:`IncrementalHybridDetector`) is the shared
skeleton of :mod:`repro.detect.incremental` with regions as its places:
it keeps phase 1's gather plans and phase 2's coordinator kernels, and
a region's batch replays both phases over the delta alone.
"""

from __future__ import annotations

from typing import Iterable

from ..core import (
    CFD,
    ViolationReport,
    detect_constants,
    normalize,
)
from ..distributed import (
    Cluster,
    CostBreakdown,
    DetectionOutcome,
    ShipmentLog,
    Site,
    StageTimes,
)
from ..distributed.hybrid import HybridCluster
from ..relational import Relation, compatible_with_bindings
from . import base
from .incremental import (
    IncrementalUpdate,
    _ResidentSession,
    _seed_variable,
    scan_delta_summary,
)
from .pat import Strategy, make_select_min_response, select_max_stat


def _region_applicable(region, variable) -> bool:
    """The F_i ∧ F_φ test lifted to a region's predicate."""
    if region.predicate is None:
        return True
    from ..core import is_wildcard
    from ..core.epatterns import is_predicate

    for row in variable.patterns:
        bindings = {
            attr: value
            for attr, value in zip(variable.lhs, row)
            if not is_wildcard(value) and not is_predicate(value)
        }
        if compatible_with_bindings(region.predicate, bindings):
            return True
    return False


def _gather_region(
    cluster: HybridCluster,
    region_index: int,
    attributes: tuple[str, ...],
    tag: str,
) -> tuple[int, Relation, float, ShipmentLog, dict]:
    """Phase 1 at one region: assemble π_{key ∪ attributes} at one site.

    Returns (global gather-site id, gathered relation, transfer time of
    this region's intra-region shipments, the shipment log of those
    shipments, and the gather *plan* — which holder fragment ships which
    attributes — which the incremental session replays per update batch).
    The log is returned rather than merged in place: the caller merges
    the per-region logs in region order.
    """
    region = cluster.regions[region_index]
    vertical = region.vertical
    key = vertical.original_schema.key

    coverage = [
        sum(1 for a in attributes if a in site.fragment.schema)
        for site in vertical.sites
    ]
    gather_fragment = max(range(len(coverage)), key=coverage.__getitem__)
    gather_site = cluster.site_id(region_index, gather_fragment)
    gather = vertical.sites[gather_fragment].fragment
    have = [a for a in attributes if a in gather.schema]
    missing = [a for a in attributes if a not in gather.schema]

    joined = gather.project(tuple(key) + tuple(have))
    stage_log = ShipmentLog()
    holders_plan: dict[int, list[str]] = {}
    for attribute in missing:
        holders = [
            f
            for f, site in enumerate(vertical.sites)
            if attribute in site.fragment.schema
        ]
        holder = holders[0]
        holders_plan.setdefault(holder, []).append(attribute)
        column = vertical.sites[holder].fragment.project(
            tuple(key) + (attribute,)
        )
        stage_log.ship(
            gather_site,
            cluster.site_id(region_index, holder),
            len(column),
            len(column) * len(column.schema),
            tag=f"{tag}@{region.name}",
            # keyed columns ship dictionary-coded: one int per cell
            n_codes=len(column) * len(column.schema),
        )
        joined = joined.join(column, on=key)
    transfer = cluster.cost_model.transfer_time(stage_log.outgoing_by_source())
    ordered = joined.project(tuple(key) + tuple(attributes))
    plan = {"gather_site": gather_site, "holders": holders_plan}
    return gather_site, ordered, transfer, stage_log, plan


def hybrid_detect(
    cluster: HybridCluster,
    cfds: CFD | Iterable[CFD],
    strategy: str | Strategy = "s",
) -> DetectionOutcome:
    """Detect ``Vioπ(Σ, D)`` in a hybrid-fragmented relation."""
    if isinstance(cfds, CFD):
        cfds = [cfds]
    cfds = list(cfds)
    if isinstance(strategy, str):
        if strategy not in {"s", "rt"}:
            raise ValueError(f"unknown strategy {strategy!r}; use 's' or 'rt'")

    report = ViolationReport()
    log = ShipmentLog()
    stages = []
    plans: dict[str, dict] = {}
    model = cluster.cost_model

    for cfd in cfds:
        normalized = normalize(cfd)

        # Constant CFDs: check within each region (Prop. 5 lifted; the
        # region may still need an intra-region gather when the CFD's
        # attributes span vertical fragments).
        for constant in normalized.constants:
            needed = tuple(
                dict.fromkeys(constant.report_lhs + (constant.rhs_attr,))
            )
            for r, region in enumerate(cluster.regions):
                if region.predicate is not None and not compatible_with_bindings(
                    region.predicate, constant.condition()
                ):
                    continue
                local = region.vertical.sites_with_attributes(needed)
                if local:
                    gathered = local[0].fragment
                else:
                    _site, gathered, transfer, stage_log, _plan = _gather_region(
                        cluster, r, needed, constant.source
                    )
                    log.merge(stage_log)
                    stages.append(StageTimes(0.0, transfer, 0.0))
                report.merge(
                    detect_constants(gathered, [constant], collect_tuples=False)
                )

        for variable in normalized.variables:
            # Phase 1: vertical gathers, region by region; logs merge in
            # region order.
            gathers = [
                _gather_region(
                    cluster, r, variable.attributes, variable.source
                )
                for r, region in enumerate(cluster.regions)
                if _region_applicable(region, variable)
            ]
            gathered_sites: list[int] = []
            gathered_fragments: list[Relation] = []
            transfers = []
            for site, fragment, transfer, stage_log, _plan in gathers:
                log.merge(stage_log)
                gathered_sites.append(site)
                gathered_fragments.append(
                    fragment.project(variable.attributes)
                )
                transfers.append(transfer)
            if not gathered_fragments:
                continue
            gather_transfer = max(transfers, default=0.0)
            join_check = max(
                (
                    model.check_time(model.check_ops(len(fragment)))
                    for fragment in gathered_fragments
                ),
                default=0.0,
            )
            stages.append(StageTimes(0.0, gather_transfer, join_check))

            # Phase 2: horizontal σ detection across the gather sites.
            synthetic = Cluster(
                [
                    Site(i, fragment)
                    for i, fragment in enumerate(gathered_fragments)
                ],
                cost_model=model,
            )
            pick: Strategy
            if strategy == "s":
                pick = select_max_stat
            elif strategy == "rt":
                pick = make_select_min_response(synthetic)
            else:
                pick = strategy

            partitions, _ = base.partition_cluster(synthetic, variable)
            scan = base.scan_stage_time(synthetic, partitions)
            base.exchange_statistics(synthetic, log)
            lstat = [part.lstat for part in partitions]
            coordinators = pick(synthetic, lstat)
            plans[variable.source] = {
                "gather_sites": gathered_sites,
                "coordinators": [gathered_sites[c] for c in coordinators],
            }

            schema = base.ship_projection_schema(synthetic.schema, variable)
            stage_log = ShipmentLog()
            merged = base.ship_buckets(
                synthetic,
                partitions,
                coordinators,
                stage_log,
                variable.source,
                width=len(schema),
            )
            transfer = model.transfer_time(stage_log.outgoing_by_source())
            # remap synthetic site indices to global ids before merging
            for event in stage_log.events:
                log.ship(
                    gathered_sites[event.dest],
                    gathered_sites[event.src],
                    event.n_tuples,
                    event.n_cells,
                    tag=event.tag,
                    n_codes=event.n_codes,
                )
            stage_report, check = base.coordinator_check(
                synthetic, variable, coordinators, merged, partitions[0].shared
            )
            report.merge(stage_report)
            stages.append(StageTimes(scan, transfer, check))

    return DetectionOutcome(
        algorithm="HYBRIDDETECT",
        report=report,
        shipments=log,
        cost=CostBreakdown(stages=stages),
        details={"plans": plans},
    )


# -- incremental sessions ------------------------------------------------------


class IncrementalHybridDetector(_ResidentSession):
    """A resident detection session over one hybrid cluster and Σ.

    :meth:`detect` runs the one-shot two-phase algorithm once and keeps,
    per variable CFD, both phases resident: the per-region gather plans
    (phase 1) and the pattern coordinators' merged GROUP BY over
    cluster-global code pairs (phase 2, the horizontal sessions' kernel).
    :meth:`update` absorbs a region's batch of whole-tuple inserts and
    key deletes in O(|ΔD|): the delta's vertical gather is just a
    projection (inserted tuples carry every attribute), so each holder
    fragment ships only its delta's keyed column codes to the region's
    gather site, which σ-scans the delta and forwards signed
    ``(x_code, y_code, count)`` triples to the resident coordinators.
    """

    algorithm = "HYBRIDDETECT+Δ"
    # matching the one-shot hybrid detector, which collects no keys
    _collect_tuples = False

    def __init__(
        self,
        cluster: HybridCluster,
        cfds: CFD | Iterable[CFD],
        strategy: str = "s",
    ) -> None:
        if strategy not in {"s", "rt"}:
            raise ValueError(f"unknown strategy {strategy!r}; use 's' or 'rt'")
        self._strategy = strategy
        super().__init__(
            cluster, cfds, cluster.regions,
            [region.vertical.reconstruct() for region in cluster.regions],
        )
        #: per region: the current full-schema relation version
        self.regions_data = self.fragments
        #: (constant tag, region index, gather plan), for delta traffic
        self._constant_gathers: list[tuple[str, int, dict]] = []
        #: per entry of ``_states``: applicable region -> its gather plan
        #: (which holder fragment ships which attributes to which site)
        self._gather_plans: list[dict[int, dict]] = []

    def _seed(self) -> dict:
        cluster = self.cluster
        model = cluster.cost_model
        plans: dict[str, dict] = {}

        # constants fold region-locally; account the same intra-region
        # gathers as the one-shot run
        for r, (region, folds) in enumerate(
            zip(cluster.regions, self._constants)
        ):
            for constant in folds.constants:
                needed = tuple(
                    dict.fromkeys(constant.report_lhs + (constant.rhs_attr,))
                )
                if not region.vertical.sites_with_attributes(needed):
                    _site, _g, transfer, stage_log, plan = _gather_region(
                        cluster, r, needed, constant.source
                    )
                    self._log.merge(stage_log)
                    self._cost.stages.append(StageTimes(0.0, transfer, 0.0))
                    self._constant_gathers.append((constant.source, r, plan))

        for variable in self._variable_cfds:
            # phase 1: vertical gathers, region by region
            applicable = [
                r
                for r, region in enumerate(cluster.regions)
                if _region_applicable(region, variable)
            ]
            if not applicable:
                continue
            gathered_sites: list[int] = []
            gathered_fragments: list[Relation] = []
            gather_plans: dict[int, dict] = {}
            transfers = []
            for r in applicable:
                site, fragment, transfer, stage_log, plan = _gather_region(
                    cluster, r, variable.attributes, variable.source
                )
                self._log.merge(stage_log)
                gathered_sites.append(site)
                gathered_fragments.append(
                    fragment.project(variable.attributes)
                )
                gather_plans[r] = plan
                transfers.append(transfer)
            join_check = max(
                model.check_time(model.check_ops(len(fragment)))
                for fragment in gathered_fragments
            )
            self._cost.stages.append(
                StageTimes(0.0, max(transfers), join_check)
            )

            # phase 2: horizontal σ detection across the gather sites
            synthetic = Cluster(
                [
                    Site(i, fragment)
                    for i, fragment in enumerate(gathered_fragments)
                ],
                cost_model=model,
            )
            pick = (
                select_max_stat
                if self._strategy == "s"
                else make_select_min_response(synthetic)
            )
            state, stage_log, scan, transfer = _seed_variable(
                synthetic, variable, pick, self._log, self._violations
            )
            # synthetic site indices become global ids from here on
            for event in stage_log.events:
                self._log.ship(
                    gathered_sites[event.dest],
                    gathered_sites[event.src],
                    event.n_tuples,
                    event.n_cells,
                    tag=event.tag,
                    n_codes=event.n_codes,
                )
            state.coordinators = [gathered_sites[c] for c in state.coordinators]
            plans[variable.source] = {
                "gather_sites": gathered_sites,
                "coordinators": list(state.coordinators),
            }
            check = max(
                (
                    model.check_time(model.check_ops(rows))
                    for rows in state.bucket_rows
                    if rows
                ),
                default=0.0,
            )
            self._cost.stages.append(StageTimes(scan, transfer, check))
            self._states.append(state)
            self._gather_plans.append(gather_plans)
        return {"plans": plans}

    def _check_round(self, updates):
        cluster = self.cluster
        checked = {}
        for r, (inserted, deleted) in updates.items():
            if callable(deleted) or hasattr(deleted, "evaluate"):
                raise ValueError(
                    "incremental hybrid sessions take key deletes, not "
                    "predicates (a predicate needs a scan of the region)"
                )
            region = cluster.regions[r]
            inserted = [tuple(row) for row in inserted]
            if region.predicate is not None:
                for row in inserted:
                    if not region.predicate.evaluate(row, cluster.schema):
                        raise ValueError(
                            f"inserted row {row!r} does not satisfy region "
                            f"{region.name}'s predicate"
                        )
            checked[r] = (inserted, list(deleted))
        return checked

    def update(self, region: int, inserted=(), deleted=()) -> IncrementalUpdate:
        """Absorb one region's batch of tuple inserts and key deletes.

        ``inserted`` rows are over the *original* schema and must satisfy
        the region's predicate (a row in the wrong region would corrupt
        the ``F_i ∧ F_φ`` pruning); ``deleted`` is an iterable of keys.
        Only the delta crosses the network: its keyed column codes into
        the gather sites, signed coded triples onward to the pattern
        coordinators.
        """
        return self._round({region: (inserted, deleted)})

    def _absorb(self, batches, update_log: ShipmentLog) -> dict[int, int]:
        cluster = self.cluster
        key_width = len(cluster.schema.key)
        received_events: dict[int, int] = {}
        for region, inserted, removed in batches:
            delta_rows = len(inserted) + len(removed)
            name = cluster.regions[region].name

            def gather(tag: str, plan: dict) -> None:
                # phase 1: holders ship the delta's keyed columns in
                for holder, attributes in sorted(plan["holders"].items()):
                    cells = delta_rows * (key_width + len(attributes))
                    update_log.ship(
                        plan["gather_site"],
                        cluster.site_id(region, holder),
                        delta_rows,
                        cells,
                        tag=f"{tag}@{name}Δ",
                        n_codes=cells,
                    )

            # constants stay region-local; replay their gathers' traffic
            for tag, r, plan in self._constant_gathers:
                if r == region:
                    gather(tag, plan)
            for state, plans in zip(self._states, self._gather_plans):
                plan = plans.get(region)
                if plan is None:
                    continue  # F_i ∧ F_φ: the region never matches σ
                gather(state.variable.source, plan)
                # phase 2: σ-scan the delta at the gather site, forward
                # the signed coded triples to the resident coordinators
                (summary,) = scan_delta_summary(
                    self.fragments[region], [state.variable], inserted, removed
                )
                state.absorb(
                    plan["gather_site"], summary, update_log, received_events,
                    self._violations,
                )
        return received_events


def incremental_hybrid(
    cluster: HybridCluster,
    cfds: CFD | Iterable[CFD],
    strategy: str = "s",
) -> IncrementalHybridDetector:
    """An attached incremental hybrid session (initial run included)."""
    detector = IncrementalHybridDetector(cluster, cfds, strategy)
    detector.detect()
    return detector
