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

Both phases are :func:`hybrid_step`: :func:`hybrid_detect` checks what it
gathered and shipped, and the resident session
(:class:`IncrementalHybridDetector`, the :mod:`repro.detect.incremental`
skeleton with regions as places) keeps its gather plans and coordinator
kernels; a region's batch replays both phases over the delta alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core import (
    CFD,
    ConstantCFD,
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
from ..relational.rowstore import _is_predicate
from . import base
from .incremental import (
    IncrementalUpdate,
    _ResidentSession,
    _VariableState,
    scan_delta_summary,
)
from .local import applicable_patterns
from .pat import Strategy, _resolve_strategy, pat_step


def _gather_region(
    cluster: HybridCluster,
    region_index: int,
    attributes: tuple[str, ...],
    tag: str,
    log: ShipmentLog,
) -> tuple[Relation, float, dict]:
    """Phase 1 at one region: assemble π_{key ∪ attributes} at one site.

    Records the intra-region shipments on ``log``; returns the gathered
    relation, their transfer time, and the gather *plan* — the global
    gather-site id and which holder fragment ships which attributes —
    which the incremental session replays per update batch.
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
    log.merge(stage_log)
    return (
        joined.project(tuple(key) + tuple(attributes)),
        cluster.cost_model.transfer_time(stage_log.outgoing_by_source()),
        {"gather_site": gather_site, "holders": holders_plan},
    )


@dataclass
class HybridStep:
    """Both phases of a hybrid run: per constant form and region, the
    relation its check runs on and its gather plan (``None`` if a fragment
    covers the form); per variable form, its phase-2 step (global site
    ids) and gather plans by region; the stages and ``details["plans"]``.
    """

    constants: list[tuple[ConstantCFD, int, Relation, dict | None]] = field(
        default_factory=list
    )
    variables: list[tuple[base.VariableStep, dict[int, dict]]] = field(
        default_factory=list
    )
    stages: list[StageTimes] = field(default_factory=list)
    plans: dict[str, dict] = field(default_factory=dict)


def hybrid_step(
    cluster: HybridCluster,
    cfds: Iterable[CFD],
    pick: Strategy,
    log: ShipmentLog,
) -> HybridStep:
    """Both phases for every form of ``cfds``, shipments on ``log``.

    Per CFD: each constant form is gathered within every applicable
    region no single fragment covers (Prop. 5 lifted); then each variable
    form is gathered region by region (phase 1) and PATDETECT's step runs
    across the gather sites (phase 2), which keep their global ids.
    """
    model = cluster.cost_model
    step = HybridStep()
    for cfd in cfds:
        normalized = normalize(cfd)
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
                    step.constants.append((constant, r, local[0].fragment, None))
                    continue
                gathered, transfer, plan = _gather_region(
                    cluster, r, needed, constant.source, log
                )
                step.stages.append(StageTimes(0.0, transfer, 0.0))
                step.constants.append((constant, r, gathered, plan))

        for variable in normalized.variables:
            synthetic_sites: list[Site] = []
            gather_plans: dict[int, dict] = {}
            transfers = []
            for r, region in enumerate(cluster.regions):
                # F_i ∧ F_φ: a region no pattern can match is skipped
                if not applicable_patterns(region, variable):
                    continue
                fragment, transfer, plan = _gather_region(
                    cluster, r, variable.attributes, variable.source, log
                )
                # phase 2's sites keep their global ids
                fragment = fragment.project(variable.attributes)
                synthetic_sites.append(Site(plan["gather_site"], fragment))
                gather_plans[r] = plan
                transfers.append(transfer)
            if not synthetic_sites:
                continue
            join_check = max(
                model.check_time(model.check_ops(len(site.fragment)))
                for site in synthetic_sites
            )
            step.stages.append(StageTimes(0.0, max(transfers), join_check))

            gathered_sites = [site.index for site in synthetic_sites]
            done = pat_step(
                Cluster(synthetic_sites, cost_model=model),
                variable,
                log,
                # the picker answers in site positions: map them to ids
                lambda synthetic, lstat: [
                    gathered_sites[c] for c in pick(synthetic, lstat)
                ],
            )
            step.stages.append(done.stage)
            step.variables.append((done, gather_plans))
            step.plans[variable.source] = {
                "gather_sites": gathered_sites,
                "coordinators": done.coordinators,
            }
    return step


def hybrid_detect(
    cluster: HybridCluster,
    cfds: CFD | Iterable[CFD],
    strategy: str | Strategy = "s",
) -> DetectionOutcome:
    """Detect ``Vioπ(Σ, D)`` in a hybrid-fragmented relation."""
    if isinstance(cfds, CFD):
        cfds = [cfds]
    pick = _resolve_strategy(cluster, strategy)
    log = ShipmentLog()
    step = hybrid_step(cluster, cfds, pick, log)

    report = ViolationReport()
    for constant, _region, relation, _plan in step.constants:
        report.merge(detect_constants(relation, [constant], collect_tuples=False))
    for done, _plans in step.variables:
        found, _check = base.coordinator_check(
            cluster, done.variable, done.coordinators, done.merged, done.shared
        )
        report.merge(found)
    return DetectionOutcome(
        algorithm="HYBRIDDETECT",
        report=report,
        shipments=log,
        cost=CostBreakdown(stages=step.stages),
        details={"plans": step.plans},
    )


# -- incremental sessions ------------------------------------------------------


class IncrementalHybridDetector(_ResidentSession):
    """A resident detection session over one hybrid cluster and Σ.

    :meth:`detect` runs :func:`hybrid_step` once and keeps, per variable
    CFD, its gather plans and its coordinators' kernel (the horizontal
    sessions').  :meth:`update` absorbs a region's batch of tuple inserts
    and key deletes in O(|ΔD|): each holder fragment ships only its
    delta's keyed column codes to the region's gather site, which
    σ-scans the delta and forwards signed ``(x_code, y_code, count)``
    triples to the resident coordinators.
    """

    algorithm = "HYBRIDDETECT+Δ"
    # matching the one-shot hybrid detector, which collects no keys
    _collect_tuples = False

    def __init__(
        self,
        cluster: HybridCluster,
        cfds: CFD | Iterable[CFD],
        strategy: str | Strategy = "s",
    ) -> None:
        self._pick = _resolve_strategy(cluster, strategy)
        super().__init__(
            cluster, cfds, cluster.regions,
            [region.vertical.reconstruct() for region in cluster.regions],
        )
        #: (constant tag, region index, gather plan), for delta traffic
        self._constant_gathers: list[tuple[str, int, dict]] = []
        #: per entry of ``_states``: applicable region -> its gather plan
        #: (which holder fragment ships which attributes to which site)
        self._gather_plans: list[dict[int, dict]] = []

    @property
    def regions_data(self) -> list[Relation]:
        """Per region: its current full-schema rows (:attr:`fragments`)."""
        return self.fragments

    def _seed(self) -> dict:
        # constants fold region-locally; their gathers' plans are kept
        step = hybrid_step(self.cluster, self.cfds, self._pick, self._log)
        self._constant_gathers = [
            (constant.source, r, plan)
            for constant, r, _relation, plan in step.constants
            if plan is not None
        ]
        for done, gather_plans in step.variables:
            self._states.append(_VariableState.seeded(done, self._violations))
            self._gather_plans.append(gather_plans)
        self._cost.stages.extend(step.stages)
        return {"plans": step.plans}

    def _check_round(self, updates):
        cluster = self.cluster
        checked = {}
        for r, (inserted, deleted) in updates.items():
            if _is_predicate(deleted):
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
                    self._initial_fragments[region], [state.variable],
                    inserted, removed,
                )
                state.absorb(
                    plan["gather_site"], summary, update_log, received_events,
                    self._violations,
                )
        return received_events


def incremental_hybrid(
    cluster: HybridCluster,
    cfds: CFD | Iterable[CFD],
    strategy: str | Strategy = "s",
) -> IncrementalHybridDetector:
    """An attached incremental hybrid session (initial run included)."""
    detector = IncrementalHybridDetector(cluster, cfds, strategy)
    detector.detect()
    return detector
