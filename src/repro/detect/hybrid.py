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


class _HybridVariableState:
    """One variable CFD's resident phase-1 + phase-2 state."""

    __slots__ = (
        "variable",
        "regions",
        "gather_plans",
        "synthetic",
        "state",
        "gathered_sites",
        "schema",
    )

    def __init__(
        self, variable, regions, gather_plans, synthetic, state,
        gathered_sites, schema,
    ) -> None:
        self.variable = variable
        #: applicable region indices, in region order — a region's
        #: position here is its site index in the synthetic cluster
        self.regions = regions
        #: per applicable region: the recorded gather plan (which holder
        #: fragment ships which attributes to which gather site)
        self.gather_plans = gather_plans
        self.synthetic = synthetic
        self.state = state
        self.gathered_sites = gathered_sites
        self.schema = schema


class IncrementalHybridDetector:
    """A resident detection session over one hybrid cluster and Σ.

    :meth:`detect` runs the one-shot two-phase algorithm once and keeps,
    per variable CFD, both phases resident: the per-region gather plans
    (phase 1) and the pattern coordinators' merged GROUP-BY state over
    cluster-global code pairs (phase 2, the
    :class:`~repro.detect.incremental._VariableState` machinery of the
    horizontal sessions).  :meth:`update` absorbs a region's batch of
    whole-tuple inserts and key deletes in O(|ΔD|): the delta's vertical
    gather is just a projection (inserted tuples carry every attribute),
    so each holder fragment ships only its delta's keyed column codes to
    the region's gather site, which σ-scans the delta and forwards signed
    ``(x_code, y_code, count)`` triples to the resident coordinators.

    Sessions are *single-writer* (no internal lock): concurrent callers
    must serialize externally — the resident service does so with one
    lock per managed session (see :mod:`repro.serve`).
    """

    def __init__(
        self,
        cluster: HybridCluster,
        cfds: CFD | Iterable[CFD],
        strategy: str = "s",
    ) -> None:
        from ..core.incremental import ConstantFolds, TransitionCounter

        if isinstance(cfds, CFD):
            cfds = [cfds]
        self.cluster = cluster
        self.cfds = list(cfds)
        if strategy not in {"s", "rt"}:
            raise ValueError(f"unknown strategy {strategy!r}; use 's' or 'rt'")
        self._strategy = strategy
        #: per region: the current full-schema relation version
        self.regions_data: list[Relation] = [
            region.vertical.reconstruct() for region in cluster.regions
        ]
        self._violations = TransitionCounter()
        self._keys = TransitionCounter()
        constants = []
        self._variable_cfds = []
        for cfd in self.cfds:
            normalized = normalize(cfd)
            constants.extend(normalized.constants)
            self._variable_cfds.extend(normalized.variables)
        # constant forms check within each region (Prop. 5 lifted);
        # keys are not collected, matching the one-shot hybrid detector
        self._constants = [
            ConstantFolds(
                [
                    constant
                    for constant in constants
                    if region.predicate is None
                    or compatible_with_bindings(
                        region.predicate, constant.condition()
                    )
                ],
                collect_tuples=False,
            )
            for region in cluster.regions
        ]
        #: (constant tag, region index) -> gather plan, for delta traffic
        self._constant_gathers: list[tuple[str, int, dict]] = []
        self._variables: list[_HybridVariableState] = []
        self._log = ShipmentLog()
        self._cost = CostBreakdown()
        self._detected = False

    # -- initial run ------------------------------------------------------

    def detect(self) -> DetectionOutcome:
        """The full two-phase run; builds the resident state."""
        from ..core.incremental import ConstantFolds  # noqa: F401 (doc aid)
        from . import base
        from .incremental import _VariableState

        if self._detected:
            raise ValueError(
                "detect() already ran for this session; updates are "
                "absorbed via update() — build a new "
                "IncrementalHybridDetector to re-detect from scratch"
            )
        cluster = self.cluster
        model = cluster.cost_model
        plans: dict[str, dict] = {}

        # constants: fold each region's rows through its resident folds;
        # account the same intra-region gathers as the one-shot run
        for r, (region, folds) in enumerate(
            zip(cluster.regions, self._constants)
        ):
            for constant in folds.constants:
                needed = tuple(
                    dict.fromkeys(constant.report_lhs + (constant.rhs_attr,))
                )
                local = region.vertical.sites_with_attributes(needed)
                if not local:
                    _site, _g, transfer, stage_log, plan = _gather_region(
                        cluster, r, needed, constant.source
                    )
                    self._log.merge(stage_log)
                    self._cost.stages.append(StageTimes(0.0, transfer, 0.0))
                    self._constant_gathers.append((constant.source, r, plan))
            batch = self.regions_data[r]
            folds.fold(batch, 1, self._violations, self._keys)

        for variable in self._variable_cfds:
            applicable = [
                r
                for r, region in enumerate(cluster.regions)
                if _region_applicable(region, variable)
            ]
            gathers = [
                _gather_region(
                    cluster, r, variable.attributes, variable.source
                )
                for r in applicable
            ]
            gathered_sites: list[int] = []
            gathered_fragments: list[Relation] = []
            gather_plans: list[dict] = []
            transfers = []
            for site, fragment, transfer, stage_log, plan in gathers:
                self._log.merge(stage_log)
                gathered_sites.append(site)
                gathered_fragments.append(
                    fragment.project(variable.attributes)
                )
                gather_plans.append(plan)
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
            self._cost.stages.append(
                StageTimes(0.0, gather_transfer, join_check)
            )

            synthetic = Cluster(
                [
                    Site(i, fragment)
                    for i, fragment in enumerate(gathered_fragments)
                ],
                cost_model=model,
            )
            pick: Strategy
            if self._strategy == "s":
                pick = select_max_stat
            else:
                pick = make_select_min_response(synthetic)

            partitions, _ = base.partition_cluster(synthetic, variable)
            scan = base.scan_stage_time(synthetic, partitions)
            base.exchange_statistics(synthetic, self._log)
            lstat = [part.lstat for part in partitions]
            coordinators = pick(synthetic, lstat)
            plans[variable.source] = {
                "gather_sites": gathered_sites,
                "coordinators": [gathered_sites[c] for c in coordinators],
            }

            schema = base.ship_projection_schema(synthetic.schema, variable)
            stage_log = ShipmentLog()
            base.ship_buckets(
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
                self._log.ship(
                    gathered_sites[event.dest],
                    gathered_sites[event.src],
                    event.n_tuples,
                    event.n_cells,
                    tag=event.tag,
                    n_codes=event.n_codes,
                )

            state = _VariableState(
                variable, partitions[0].shared, coordinators, len(schema)
            )
            for part in partitions:
                if not part.participated:
                    continue
                fragment = part.site.fragment
                occupancy = base.group_occupancy(
                    fragment, variable.attributes
                )
                pairs = part.pairs
                for ordinal, bucket in enumerate(part.buckets):
                    for local_code in bucket.codes:
                        x_code, y_code = pairs[local_code]
                        state.add_rows(x_code, y_code, occupancy[local_code])
                    state.bucket_rows[ordinal] += bucket.count
            for x_code in list(state.pair_counts):
                state.settle(x_code, self._violations)
            check = max(
                (
                    model.check_time(model.check_ops(rows))
                    for rows in state.bucket_rows
                    if rows
                ),
                default=0.0,
            )
            self._cost.stages.append(StageTimes(scan, transfer, check))
            self._variables.append(
                _HybridVariableState(
                    variable,
                    applicable,
                    gather_plans,
                    synthetic,
                    state,
                    gathered_sites,
                    schema,
                )
            )

        self._detected = True
        return DetectionOutcome(
            algorithm="HYBRIDDETECT+Δ",
            report=self.report,
            shipments=self._log,
            cost=self._cost,
            details={"plans": plans, "incremental": True},
        )

    # -- updates ----------------------------------------------------------

    def update(self, region: int, inserted=(), deleted=()):
        """Absorb one region's batch of tuple inserts and key deletes.

        ``inserted`` rows are over the *original* schema and must satisfy
        the region's predicate (a row in the wrong region would corrupt
        the ``F_i ∧ F_φ`` pruning); ``deleted`` is an iterable of keys.
        Only the delta crosses the network: its keyed column codes into
        the gather sites, signed coded triples onward to the pattern
        coordinators.
        """
        from . import base
        from .incremental import (
            IncrementalUpdate,
            apply_fragment_updates,
            scan_delta_summary,
        )

        if not self._detected:
            raise ValueError("run detect() before applying updates")
        if callable(deleted) or hasattr(deleted, "evaluate"):
            raise ValueError(
                "incremental hybrid sessions take key deletes, not "
                "predicates (a predicate needs a scan of the region)"
            )
        cluster = self.cluster
        model = cluster.cost_model
        region_obj = cluster.regions[region]
        schema = cluster.schema
        inserted = [tuple(row) for row in inserted]
        if region_obj.predicate is not None:
            for row in inserted:
                if not region_obj.predicate.evaluate(row, schema):
                    raise ValueError(
                        f"inserted row {row!r} does not satisfy region "
                        f"{region_obj.name}'s predicate"
                    )
        update_log = ShipmentLog()

        # all-or-nothing fragment step first: a batch it rejects leaves
        # no open counter batch behind
        batches = apply_fragment_updates(
            self.regions_data, {region: (inserted, list(deleted))}
        )
        self._violations.begin()
        self._keys.begin()
        if not batches:
            return IncrementalUpdate(
                self._commit(), self.report, update_log, StageTimes(0, 0, 0)
            )
        _index, inserted, removed = batches[0]
        delta_rows = len(inserted) + len(removed)

        # constants stay region-local; replay their gather plans' traffic
        folds = self._constants[region]
        for sign, rows in ((-1, removed), (1, inserted)):
            if rows:
                batch = Relation(schema, rows, copy=False)
                folds.fold(batch, sign, self._violations, self._keys)
        key_width = len(schema.key)
        for _tag, r, plan in self._constant_gathers:
            if r != region:
                continue
            for holder, attributes in sorted(plan["holders"].items()):
                update_log.ship(
                    plan["gather_site"],
                    cluster.site_id(region, holder),
                    delta_rows,
                    delta_rows * (key_width + len(attributes)),
                    tag=f"{_tag}@{region_obj.name}Δ",
                    n_codes=delta_rows * (key_width + len(attributes)),
                )

        received_events: dict[int, int] = {}
        for entry in self._variables:
            if region not in entry.regions:
                continue  # F_i ∧ F_φ: the region never matches σ
            ordinal_site = entry.regions.index(region)
            variable = entry.variable
            positions = schema.positions(variable.attributes)
            ins_proj = [
                tuple(row[p] for p in positions) for row in inserted
            ]
            del_proj = [
                tuple(row[p] for p in positions) for row in removed
            ]
            # phase 1: holders ship the delta's keyed columns in
            gather_plan = entry.gather_plans[ordinal_site]
            for holder, attributes in sorted(gather_plan["holders"].items()):
                update_log.ship(
                    gather_plan["gather_site"],
                    cluster.site_id(region, holder),
                    delta_rows,
                    delta_rows * (key_width + len(attributes)),
                    tag=f"{variable.source}@{region_obj.name}Δ",
                    n_codes=delta_rows * (key_width + len(attributes)),
                )
            # phase 2: σ-scan the delta at the gather site, forward the
            # signed coded triples, patch the coordinator state in place
            fragment = entry.synthetic.sites[ordinal_site].fragment
            per_variable = scan_delta_summary(
                fragment, [variable], ins_proj, del_proj
            )
            pair_deltas, row_events, net_rows = per_variable[0]
            state = entry.state
            shared = state.shared
            touched: set[int] = set()
            for ordinal, deltas in enumerate(pair_deltas):
                if not deltas:
                    continue
                coordinator = state.coordinators[ordinal]
                coordinator_site = entry.gathered_sites[coordinator]
                if coordinator != ordinal_site:
                    update_log.ship(
                        coordinator_site,
                        gather_plan["gather_site"],
                        row_events[ordinal],
                        row_events[ordinal] * state.width,
                        tag=f"{variable.source}#p{ordinal}Δ",
                        n_codes=3 * len(deltas),
                    )
                received_events[coordinator_site] = (
                    received_events.get(coordinator_site, 0)
                    + row_events[ordinal]
                )
                for (x, y), count in deltas.items():
                    x_code = shared.intern_x(x)
                    y_code = shared.intern_y(y)
                    state.add_rows(x_code, y_code, count)
                    touched.add(x_code)
                state.bucket_rows[ordinal] += net_rows[ordinal]
            for x_code in touched:
                state.settle(x_code, self._violations)

        scan = model.scan_time(delta_rows)
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
        from ..core.incremental import commit_counters

        return commit_counters(self._violations, self._keys)

    @property
    def report(self) -> ViolationReport:
        """The full current report (fresh copy)."""
        from ..core.incremental import counters_report

        return counters_report(self._violations, self._keys)

    @property
    def shipments(self) -> ShipmentLog:
        return self._log

    def outcome(self) -> DetectionOutcome:
        return DetectionOutcome(
            algorithm="HYBRIDDETECT+Δ",
            report=self.report,
            shipments=self._log,
            cost=self._cost,
            details={"incremental": True},
        )

    def __repr__(self) -> str:
        return (
            f"IncrementalHybridDetector({len(self.cfds)} CFDs, "
            f"{len(self.cluster.regions)} regions, "
            f"{self.cluster.n_sites} sites)"
        )


def incremental_hybrid(
    cluster: HybridCluster,
    cfds: CFD | Iterable[CFD],
    strategy: str = "s",
) -> IncrementalHybridDetector:
    """An attached incremental hybrid session (initial run included)."""
    detector = IncrementalHybridDetector(cluster, cfds, strategy)
    detector.detect()
    return detector
