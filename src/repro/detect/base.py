"""Shared plumbing of the horizontal detection algorithms (Section IV).

All three single-CFD algorithms follow the same skeleton:

1. normalize the CFD; check its constant normal forms locally at every
   site (Proposition 5 — no shipment);
2. for each variable normal form, every (applicable) site scans its
   fragment once, partitions the matching tuples with the σ function of
   Section IV-B and gathers the ``lstat`` statistics;
3. the statistics are exchanged (control traffic), coordinators are chosen
   by an algorithm-specific rule, the ``(X, A)`` projections are shipped,
   and each coordinator runs the local GROUP BY detection.

This module implements the skeleton; two *step* functions run steps 2–3
up to the shipment for one variable form — :func:`repro.detect.pat.pat_step`
(a coordinator per pattern) and :func:`repro.detect.ctr.ctr_step` (one
coordinator) — each returning a :class:`VariableStep`.
:func:`horizontal_detect` runs a step one-shot, then
:func:`coordinator_check` on what each coordinator received; the resident
sessions (:mod:`repro.detect.incremental`) run the same steps through
:func:`run_steps` and fill their kernels from it instead.

The sites' parallelism is *modelled* (:mod:`repro.distributed.cost`
takes the max over sites), not executed: step 2 runs one
:func:`partition_fragment_summary` per site through :func:`scan_sites`,
one site after another in site order.

Shipments are dictionary-coded: each cluster keeps one
:class:`~repro.relational.shareddict.SharedPairDictionary` per variable
CFD.  A fragment's scan returns its *local* distinct ``X ∪ A``
combinations once (the local dictionary, shipped like the ``lstat``
control traffic); afterwards every bucket crosses sites as ``(x_code,
y_code)`` int pairs, and :func:`coordinator_check` detects conflicts
directly on the code pairs, decoding only the violating ``X`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core import (
    CFD,
    ConstantCFD,
    PatternIndex,
    VariableCFD,
    Violation,
    ViolationReport,
    detect_constants,
    normalize,
    pattern_index,
)
from ..distributed import (
    Cluster,
    CostBreakdown,
    CostModel,
    DetectionOutcome,
    ShipmentLog,
    Site,
    StageTimes,
)
from ..relational import (
    Relation,
    SharedPairDictionary,
    column_store,
    compatible_with_bindings,
    shared_dict_on,
)
from .local import applicable_patterns


@dataclass
class CodedBucket:
    """One σ bucket of one fragment, in dictionary-coded form.

    ``count`` is ``|H_i^l|`` — how many of the fragment's rows fall in the
    bucket (the statistic broadcast as ``lstat`` and the number of rows a
    shipment of this bucket counts).  ``codes`` lists the *local* distinct
    ``X ∪ A`` combination codes present, in the fragment's first-seen
    order; the coordinator translates them to cluster-global ``(x_code,
    y_code)`` pairs through the site's
    :class:`~repro.relational.shareddict.SharedPairDictionary` entry.
    """

    count: int = 0
    codes: list[int] = field(default_factory=list)

    def __len__(self) -> int:  # rows in the bucket, as the paper counts
        return self.count


@dataclass
class SitePartition:
    """One site's share of the σ partition of a variable CFD.

    ``buckets[l]`` summarizes the tuples ``t`` of the site's fragment with
    ``σ(t) = l`` (``H_i^l`` in the paper); ``lstat[l] = |H_i^l|`` is the
    statistic the site broadcasts.  ``pairs`` maps the fragment's local
    combination codes to the cluster-global ``(x_code, y_code)`` pairs of
    ``shared`` — the translation the coordinator applies when merging —
    and ``occupancy`` the fragment's row count per local code.
    """

    site: Site
    buckets: list[CodedBucket]
    participated: bool
    pairs: list[tuple[int, int]] = field(default_factory=list)
    shared: SharedPairDictionary | None = None
    occupancy: list[int] = field(default_factory=list)

    @property
    def lstat(self) -> list[int]:
        return [bucket.count for bucket in self.buckets]


@dataclass
class MergedBucket:
    """One pattern's merged bucket ``⋃_i H_i^l`` as seen by its coordinator.

    ``rows`` counts the member tuples (what the check-cost model charges);
    ``pairs`` holds the received distinct ``(x_code, y_code)`` pairs of
    each sending site — the code arrays the coordinator-side merge runs
    on — and ``counts`` the rows behind each pair, which a resident
    kernel seeds from.
    """

    rows: int = 0
    pairs: list[tuple[int, int]] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)


@dataclass
class VariableStep:
    """One variable form's step, as its coordinators left it: σ bucket
    ``l`` went to ``coordinators[l]`` as ``merged[l]`` (coded against
    ``shared``); ``chosen`` is what ``details["coordinators"]`` reports."""

    variable: VariableCFD
    shared: SharedPairDictionary
    coordinators: list[int]
    merged: list[MergedBucket]
    stage: StageTimes
    chosen: object


def scan_sites(fragments: Sequence[Relation], fn, tasks) -> list:
    """The site-local step: ``fn(fragments[i], *args)`` per ``(i, args)`` task."""
    return [fn(fragments[i], *args) for i, args in tasks]


def group_occupancy(fragment: Relation, attributes: Sequence[str]) -> list[int]:
    """Rows per distinct combination of ``attributes`` (cached per store).

    A pure function of the fragment's composite key column, so it is
    memoized in the store's scratch space: repeat detections skip the
    per-row pass entirely.
    """
    store = column_store(fragment)
    key = store.key_column(attributes)
    cache_key = ("occupancy", tuple(attributes))
    cached = store.scratch.get(cache_key)
    if cached is not None:
        return cached
    occupancy = np.bincount(key.codes_array(), minlength=key.n_groups).tolist()
    store.scratch[cache_key] = occupancy
    return occupancy


def partition_fragment_summary(
    fragment: Relation,
    variable: VariableCFD,
    need_values: bool = True,
):
    """σ-partition one fragment into dictionary-coded bucket summaries.

    The site-local scan of step 2: the fragment's cached composite key
    column assigns each row the ordinal of its distinct ``X ∪ A``
    combination, σ is probed once per *distinct* combination, and each
    bucket is summarized as (row count, distinct local codes present).

    Returns ``(counts, bucket_codes, values)`` where ``values`` is the
    fragment's local dictionary (distinct combinations, first-seen order)
    when ``need_values`` — the coordinator asks for it only the first time
    it sees this fragment; afterwards codes suffice.
    """
    n_patterns = len(variable.patterns)
    counts = [0] * n_patterns
    bucket_codes: list[list[int]] = [[] for _ in range(n_patterns)]
    if not fragment.rows:
        return counts, bucket_codes, [] if need_values else None
    key = column_store(fragment).key_column(variable.attributes)
    occupancy = group_occupancy(fragment, variable.attributes)
    lhs_width = len(variable.lhs)
    # memoized per tableau: every site's scan reuses one σ trie
    first_match = pattern_index(variable.patterns).first_match
    for g, combo in enumerate(key.values):
        ordinal = first_match(combo[:lhs_width])
        if ordinal is None:
            continue
        counts[ordinal] += occupancy[g]
        bucket_codes[ordinal].append(g)
    return counts, bucket_codes, key.values if need_values else None


def partition_cluster(
    cluster: Cluster, variable: VariableCFD
) -> tuple[list[SitePartition], PatternIndex]:
    """Run the σ scan at every participating site of the cluster.

    Translation into the cluster's shared dictionary happens
    coordinator-side after the scans, in site order.  The dictionary
    (and each site's translation) is cached on the cluster, so only the
    first detection of a variable CFD pays the interning pass.
    """
    index = pattern_index(variable.patterns)
    shared: SharedPairDictionary = shared_dict_on(
        cluster,
        ("pairs", variable),
        lambda: SharedPairDictionary(len(variable.lhs)),
    )
    sites = cluster.sites
    n_patterns = len(variable.patterns)
    participating = [
        i for i, site in enumerate(sites) if applicable_patterns(site, variable)
    ]
    tasks = [
        (i, (variable, shared.pairs_for(i) is None))
        for i in participating
    ]
    fragments = [site.fragment for site in sites]
    results = scan_sites(fragments, partition_fragment_summary, tasks)

    by_site = dict(zip(participating, results))
    partitions: list[SitePartition] = []
    for i, site in enumerate(sites):
        result = by_site.get(i)
        if result is None:
            empty = [CodedBucket() for _ in range(n_patterns)]
            partitions.append(SitePartition(site, empty, False, [], shared))
            continue
        counts, bucket_codes, values = result
        pairs = shared.pairs_for(i)
        if pairs is None:
            pairs = shared.translate(i, values)
        buckets = [
            CodedBucket(count, codes)
            for count, codes in zip(counts, bucket_codes)
        ]
        occupancy = group_occupancy(site.fragment, variable.attributes)
        partitions.append(
            SitePartition(site, buckets, True, pairs, shared, occupancy)
        )
    return partitions, index


def scan_stage_time(
    cluster: Cluster, partitions: Sequence[SitePartition]
) -> float:
    """Time of the parallel statistics scan: slowest participating site."""
    model = cluster.cost_model
    times = [
        model.scan_time(len(part.site.fragment))
        for part in partitions
        if part.participated
    ]
    return max(times, default=0.0)


def exchange_statistics(cluster: Cluster, log: ShipmentLog) -> None:
    """Account the all-to-all ``lstat`` broadcast as control traffic."""
    n = cluster.n_sites
    log.record_control(n * (n - 1))


def merge_buckets(
    partitions: Sequence[SitePartition], n_patterns: int
) -> list[MergedBucket]:
    """Every site's σ bucket ``l`` merged, in site order, into
    ``merged[l]``: the coded ``⋃_i H_i^l`` its coordinator holds."""
    merged = [MergedBucket() for _ in range(n_patterns)]
    for part in partitions:
        pairs, occupancy = part.pairs, part.occupancy
        for target, bucket in zip(merged, part.buckets):
            if not bucket.count:
                continue
            target.rows += bucket.count
            target.pairs.extend(map(pairs.__getitem__, bucket.codes))
            target.counts.extend(map(occupancy.__getitem__, bucket.codes))
    return merged


def ship_buckets(
    cluster: Cluster,
    partitions: Sequence[SitePartition],
    coordinators: Sequence[int],
    log: ShipmentLog,
    tag: str,
    width: int,
) -> list[MergedBucket]:
    """Ship every bucket to its pattern's coordinator; return merged data.

    Returns :func:`merge_buckets` (local rows are not shipped, only
    counted into the merged bucket).  Shipments are dictionary-coded: a
    row crosses the wire as one ``(x_code, y_code)`` pair whatever its
    attribute width, which the log records via ``n_codes``.
    """
    for part in partitions:
        source = part.site.index
        for ordinal, bucket in enumerate(part.buckets):
            dest = coordinators[ordinal]
            if bucket.count and dest != source:
                log.ship(
                    dest,
                    source,
                    bucket.count,
                    bucket.count * width,
                    tag=f"{tag}#p{ordinal}",
                    n_codes=2 * bucket.count,
                )
    return merge_buckets(partitions, len(coordinators))


def conflicting_x_codes(pairs: Iterable[tuple]) -> set:
    """``x`` codes taking at least two distinct ``y`` codes in ``pairs``.

    The coordinator-side merge: one pass over the received code pairs, no
    value materialization.  Equal values carry equal codes cluster-wide
    (the shared-dictionary invariant), so this is exactly the GROUP BY
    conflict test of the centralized detector.  Any hashable ``x`` / ``y``
    work: CLUSTDETECT passes the ``(X, A)`` projections of its distinct
    combinations.
    """
    first: dict = {}
    conflicts: set = set()
    for x, y in pairs:
        f = first.setdefault(x, y)
        if f != y:
            conflicts.add(x)
    return conflicts


def local_constant_checks(
    cluster: Cluster, constants: Sequence[ConstantCFD]
) -> ViolationReport:
    """Proposition 5: validate constant CFDs at each site, no shipment.

    Each site runs one fused pass over its fragment for all the constant
    forms applicable there, instead of one scan per (site, form).
    """
    report = ViolationReport()
    for site in cluster.sites:
        applicable = [
            constant
            for constant in constants
            # F_i ∧ F_φ unsatisfiable: φ not applicable at this site
            if site.predicate is None
            or compatible_with_bindings(site.predicate, constant.condition())
        ]
        if applicable:
            report.merge(
                detect_constants(site.fragment, applicable, collect_tuples=True)
            )
    return report


def check_stage_time(
    model: CostModel,
    coordinators: Sequence[int],
    merged: Sequence[MergedBucket],
) -> float:
    """Check-stage time, one GROUP BY per received bucket: the busiest
    coordinator's, charged for full row counts (the paper's model)."""
    ops_per_site: dict[int, float] = {}
    for site, bucket in zip(coordinators, merged):
        if bucket.rows:
            ops_per_site[site] = ops_per_site.get(site, 0.0) + model.check_ops(
                bucket.rows
            )
    return max(map(model.check_time, ops_per_site.values()), default=0.0)


def coordinator_check(
    cluster: Cluster,
    variable: VariableCFD,
    coordinators: Sequence[int],
    merged: Sequence[MergedBucket],
    shared: SharedPairDictionary,
) -> tuple[ViolationReport, float]:
    """Run the per-pattern detection at each coordinator, on code pairs.

    Each coordinator groups its received ``(x_code, y_code)`` pairs and
    reports the ``x`` codes carrying two distinct ``y`` codes — the
    centralized GROUP BY detection collapsed onto the shared dictionary's
    codes; only violating ``X`` values are decoded.  Returns the merged
    report and the check-stage time (:func:`check_stage_time`).
    """
    report = ViolationReport()
    for bucket in merged:
        for x_code in conflicting_x_codes(bucket.pairs):
            report.add(
                Violation(variable.source, variable.lhs, shared.x_values[x_code])
            )
    return report, check_stage_time(cluster.cost_model, coordinators, merged)


#: a horizontal step: ``(cluster, variable form, log) -> VariableStep``
Step = Callable[[Cluster, VariableCFD, ShipmentLog], VariableStep]


def run_steps(
    cluster: Cluster,
    variables: Sequence[VariableCFD],
    step: Step,
    log: ShipmentLog,
) -> tuple[list[VariableStep], list[StageTimes], dict]:
    """The variable half of a horizontal run: ``step`` once per form.

    Returns the steps, the run's stages (a constant-only CFD is a pure
    local pass, modelled as one scan stage) and the outcome's details.
    """
    steps = [step(cluster, variable, log) for variable in variables]
    stages = [done.stage for done in steps]
    if not variables:
        model = cluster.cost_model
        scan = max(
            (model.scan_time(len(site.fragment)) for site in cluster.sites),
            default=0.0,
        )
        stages.append(StageTimes(scan, 0.0, 0.0))
    chosen = {done.variable.source: done.chosen for done in steps}
    return steps, stages, {"coordinators": chosen}


def horizontal_detect(
    cluster: Cluster, cfd: CFD, step: Step, algorithm: str
) -> DetectionOutcome:
    """The one-shot horizontal run of ``step``: local constant checks,
    the steps, then each coordinator's GROUP BY on what it received."""
    normalized = normalize(cfd)
    log = ShipmentLog()
    report = local_constant_checks(cluster, normalized.constants)
    steps, stages, details = run_steps(cluster, normalized.variables, step, log)
    for done in steps:
        # the step's stage already charges the check
        found, _check = coordinator_check(
            cluster, done.variable, done.coordinators, done.merged, done.shared
        )
        report.merge(found)
    return DetectionOutcome(algorithm, report, log, CostBreakdown(stages), details)
