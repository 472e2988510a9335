"""Incremental distributed detection: maintain coordinator state over ΔD.

The one-shot horizontal algorithms (CTRDETECT / PATDETECTS / PATDETECTRT)
re-scan every fragment and re-ship every σ bucket per run.  This module
keeps a detection *session* alive instead: after one full run, each
coordinator's merged GROUP-BY state — per global ``x_code``, the multiset
of ``y_code``\\ s it takes, with row counts — stays resident, and a batch
of inserts/deletes at some sites is absorbed by shipping only the **coded
delta** of the affected ``(X, A)`` combinations:

1. every updated site σ-partitions *its delta rows only* into per-pattern
   ``(x, y) → ±count`` summaries — inserts and deletes of the same
   combination cancel site-side and never cross the wire;
2. new values intern into the cluster's append-only
   :class:`~repro.relational.shareddict.SharedPairDictionary`, so every
   code from the initial run stays valid (the invariant that makes
   in-place patching sound);
3. each pattern's coordinator receives its delta as signed
   ``(x_code, y_code, count)`` triples — the
   :class:`~repro.distributed.network.ShipmentLog` records them with
   ``n_codes = 3·|distinct changed pairs|``, so
   :meth:`~repro.distributed.cost.CostModel.payload_bytes` shows the
   saving over a full re-shipment — and patches its counters in place; a
   group flips between clean and conflicting exactly when its distinct
   ``y_code`` count crosses two;
4. constant normal forms stay purely local (Proposition 5): each updated
   site folds its delta through :class:`~repro.core.incremental.ConstantFolds`.

Coordinators are chosen once, by the wrapped algorithm's strategy, during
the initial run and then kept — re-electing them after every batch would
force re-shipping state that already sits at the old coordinator.  The
update's simulated response time follows the same three-stage model as a
full run, with every stage driven by |ΔD| instead of |D|.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core import CFD, Violation, ViolationReport
from ..core.incremental import (
    ConstantFolds,
    TransitionCounter,
    ViolationDelta,
    commit_counters,
    counters_report,
    counters_size,
)
from ..core.normalize import VariableCFD, normalize, pattern_index
from ..distributed import (
    Cluster,
    CostBreakdown,
    DetectionOutcome,
    ShipmentLog,
    StageTimes,
)
from ..relational import Relation, column_store, compatible_with_bindings
from ..relational.delta import prune_delta_history
from . import base
from .ctr import _pick_central_coordinator
from .pat import make_select_min_response, select_max_stat


def apply_fragment_updates(
    fragments: list[Relation], updates: Mapping[int, tuple]
) -> list[tuple[int, list, list]]:
    """Advance per-site fragment versions by one round of update batches.

    ``updates`` maps site index to ``(inserted_rows, deleted)`` with
    ``deleted`` an iterable of keys or a predicate (the
    :meth:`Relation.delete` contract).  Each updated entry of
    ``fragments`` is replaced by its new
    :class:`~repro.relational.delta.DeltaRelation` version with the
    consumed provenance pruned, so a long session holds one live row list
    per site.  Returns ``(site, inserted_rows, removed_rows)`` for every
    site whose fragment actually changed — the delta streams every
    resident session folds.  All-or-nothing: when any site's batch
    raises (a wrong-width row, an invalid delete), no entry of
    ``fragments`` has been replaced.  Shared by the horizontal,
    CLUSTDETECT and hybrid sessions.
    """
    staged: list[tuple[int, Relation, list, list]] = []
    for index in sorted(updates):
        inserted, deleted = updates[index]
        version = fragments[index]
        is_predicate = callable(deleted) or hasattr(deleted, "evaluate")
        if not is_predicate:
            deleted = list(deleted)
        if is_predicate or deleted:
            version = version.delete(deleted)
            removed = list(getattr(version, "delta_deleted", ()))
        else:
            removed = []
        inserted = [tuple(row) for row in inserted]
        if inserted:
            version = version.insert(inserted)
        if version is not fragments[index]:
            staged.append((index, version, inserted, removed))
    # every site's new version derived cleanly: only now install them
    batches: list[tuple[int, list, list]] = []
    for index, version, inserted, removed in staged:
        # sever consumed provenance so a long session holds one live
        # row list per site, not one per absorbed batch
        prune_delta_history(version.delta_parent)
        prune_delta_history(version)
        fragments[index] = version
        batches.append((index, inserted, removed))
    return batches


def _select_central(cluster: Cluster, lstat: Sequence[Sequence[int]]) -> list[int]:
    """CTRDETECT as a per-pattern strategy: one coordinator for every bucket."""
    site_totals = [sum(per_site) for per_site in lstat]
    coordinator = _pick_central_coordinator(site_totals)
    n_patterns = len(lstat[0]) if lstat else 0
    return [coordinator] * n_patterns


#: algorithm name -> (display name, strategy factory taking the cluster)
_ALGORITHMS: dict[str, tuple[str, Callable]] = {
    "ctr": ("CTRDETECT+Δ", lambda cluster: _select_central),
    "pat-s": ("PATDETECTS+Δ", lambda cluster: select_max_stat),
    "pat-rt": ("PATDETECTRT+Δ", make_select_min_response),
}


def scan_delta_summary(
    fragment: Relation,
    variables: Sequence[VariableCFD],
    inserted: Sequence[tuple],
    deleted: Sequence[tuple],
):
    """One site's σ scan of its *delta rows* (site-local, O(|ΔD_i|)).

    For each variable CFD returns ``(pair_deltas, row_events, net_rows)``
    per pattern: the signed ``(x, y) → count`` summary (cancelled
    combinations dropped), how many row events (inserts + deletes) hit
    the bucket, and the signed row-count change.  ``fragment`` supplies
    only the schema — the scan never touches the resident rows, which is
    what makes the update cost independent of |D_i|.
    """
    schema = fragment.schema
    out = []
    for variable in variables:
        index = pattern_index(variable.patterns)
        first_match = index.first_match
        x_pos = schema.positions(variable.lhs)
        y_pos = schema.positions(variable.rhs)
        n_patterns = len(variable.patterns)
        pair_deltas: list[dict] = [{} for _ in range(n_patterns)]
        row_events = [0] * n_patterns
        net_rows = [0] * n_patterns
        match_cache: dict[tuple, int | None] = {}
        for sign, rows in ((-1, deleted), (1, inserted)):
            for row in rows:
                x = tuple(row[p] for p in x_pos)
                ordinal = match_cache.get(x, -1)
                if ordinal == -1:
                    ordinal = match_cache[x] = first_match(x)
                if ordinal is None:
                    continue
                y = tuple(row[p] for p in y_pos)
                deltas = pair_deltas[ordinal]
                count = deltas.get((x, y), 0) + sign
                if count:
                    deltas[(x, y)] = count
                else:
                    del deltas[(x, y)]
                row_events[ordinal] += 1
                net_rows[ordinal] += sign
        out.append((pair_deltas, row_events, net_rows))
    return out


class _VariableState:
    """One variable CFD's resident coordinator state."""

    __slots__ = (
        "variable",
        "shared",
        "coordinators",
        "pair_counts",
        "conflicting",
        "bucket_rows",
        "width",
        "_undo_pairs",
        "_undo_buckets",
    )

    def __init__(self, variable, shared, coordinators, width) -> None:
        self.variable = variable
        self.shared = shared
        self.coordinators = list(coordinators)
        #: x_code -> {y_code: row count}, merged across all sites
        self.pair_counts: dict[int, dict[int, int]] = {}
        self.conflicting: set[int] = set()
        self.bucket_rows = [0] * len(variable.patterns)
        self.width = width
        # transactional batches: x_code -> (y-table copy | None, was
        # conflicting), recorded on first touch; see begin()
        self._undo_pairs: dict | None = None
        self._undo_buckets: list | None = None

    def begin(self) -> None:
        """Open a transactional batch (first-touch group snapshots)."""
        self._undo_pairs = {}
        self._undo_buckets = list(self.bucket_rows)

    def commit(self) -> None:
        """Close the batch, discarding its undo log."""
        self._undo_pairs = None
        self._undo_buckets = None

    def _touch(self, x_code: int) -> None:
        undo = self._undo_pairs
        if undo is None or x_code in undo:
            return
        ys = self.pair_counts.get(x_code)
        undo[x_code] = (
            None if ys is None else dict(ys),
            x_code in self.conflicting,
        )

    def rollback(self) -> None:
        """Restore every touched group and the bucket row counts.

        The shared dictionaries stay grown (append-only: codes interned
        during a doomed batch are simply never referenced again).  A
        no-op when no batch is open.
        """
        undo = self._undo_pairs
        self._undo_pairs = None
        if undo is not None:
            for x_code, (ys, was) in undo.items():
                if ys is None:
                    self.pair_counts.pop(x_code, None)
                else:
                    self.pair_counts[x_code] = ys
                if was:
                    self.conflicting.add(x_code)
                else:
                    self.conflicting.discard(x_code)
        if self._undo_buckets is not None:
            self.bucket_rows = self._undo_buckets
            self._undo_buckets = None

    def _violation(self, x_code: int) -> Violation:
        return Violation(
            cfd=self.variable.source,
            lhs_attributes=self.variable.lhs,
            lhs_values=self.shared.x_values[x_code],
        )

    def add_rows(self, x_code: int, y_code: int, count: int) -> None:
        """Patch one combination's row count (build and update path both)."""
        self._touch(x_code)
        ys = self.pair_counts.setdefault(x_code, {})
        new = ys.get(y_code, 0) + count
        if new > 0:
            ys[y_code] = new
        elif new == 0:
            del ys[y_code]
            if not ys:
                del self.pair_counts[x_code]
        else:
            raise ValueError(
                "coordinator state underflow: a site deleted rows it never "
                "reported"
            )

    def settle(self, x_code: int, violations: TransitionCounter) -> None:
        """Re-derive one group's conflict status after patching it."""
        self._touch(x_code)
        ys = self.pair_counts.get(x_code)
        now = ys is not None and len(ys) >= 2
        was = x_code in self.conflicting
        if now and not was:
            self.conflicting.add(x_code)
            violations.add(self._violation(x_code), 1)
        elif was and not now:
            self.conflicting.discard(x_code)
            violations.add(self._violation(x_code), -1)


@dataclass
class IncrementalUpdate:
    """The result of absorbing one update batch.

    ``delta`` is what changed; ``report`` the full post-update report;
    ``shipments`` only this batch's traffic (the detector's cumulative
    log keeps growing separately); ``stage`` the batch's simulated
    scan/transfer/check times.
    """

    delta: ViolationDelta
    report: ViolationReport
    shipments: ShipmentLog
    stage: StageTimes

    @property
    def response_time(self) -> float:
        return self.stage.total


class IncrementalHorizontalDetector:
    """A resident detection session over one horizontal cluster and CFD.

    ``algorithm`` selects the wrapped coordinator strategy (``"ctr"``,
    ``"pat-s"``, ``"pat-rt"``) or pass any
    :data:`~repro.detect.pat.Strategy` callable.  :meth:`detect` runs the
    one-shot algorithm once (through the ordinary scan path) and
    keeps its merged state; :meth:`update` / :meth:`apply_updates` absorb
    batches in O(|ΔD|).  :attr:`fragments` tracks the current version of
    every site's fragment (the cluster object itself stays immutable).

    Sessions are *single-writer*: fragment versions, coordinator group
    tables, counters and the cost log assume one mutation at a time, so
    every public entry point serializes on a per-session reentrant lock
    (``apply_updates`` reads :attr:`report` while holding it).
    Concurrent callers — the resident service's request threads — are
    safe; they just take turns.
    """

    def __init__(
        self,
        cluster: Cluster,
        cfd: CFD,
        algorithm: str | Callable = "pat-s",
    ) -> None:
        self.cluster = cluster
        self.cfd = cfd
        self.normalized = normalize(cfd)
        if callable(algorithm):
            self.algorithm = getattr(algorithm, "__name__", "custom") + "+Δ"
            self._strategy = algorithm
        else:
            try:
                name, factory = _ALGORITHMS[algorithm]
            except KeyError:
                raise ValueError(
                    f"unknown incremental algorithm {algorithm!r}; use one "
                    f"of {sorted(_ALGORITHMS)} or pass a strategy callable"
                ) from None
            self.algorithm = name
            self._strategy = factory(cluster)
        self.fragments: list[Relation] = [
            site.fragment for site in cluster.sites
        ]
        # the constant folds carry single-attribute keys raw; the report
        # boundary wraps them back into the 1-tuple contract
        self._wrap_keys = len(cluster.schema.key_positions()) == 1
        self._violations = TransitionCounter()
        self._keys = TransitionCounter()
        self._constants: list[ConstantFolds] = [
            ConstantFolds(
                [
                    constant
                    for constant in self.normalized.constants
                    if site.predicate is None
                    or compatible_with_bindings(
                        site.predicate, constant.condition()
                    )
                ]
            )
            for site in cluster.sites
        ]
        self._variables: list[_VariableState] = []
        self._log = ShipmentLog()
        self._cost = CostBreakdown()
        self._detected = False
        #: serializes every public entry point (single-writer contract)
        self._session_lock = threading.RLock()

    # -- initial run ------------------------------------------------------

    def detect(self) -> DetectionOutcome:
        """The full one-shot run; builds the resident coordinator state.

        One run per session: the scan reads the *original* cluster
        fragments, so re-running after updates would fold stale rows on
        top of live counters — start a new session instead.
        """
        with self._session_lock:
            return self._detect_locked()

    def _detect_locked(self) -> DetectionOutcome:
        if self._detected:
            raise ValueError(
                "detect() already ran for this session; updates are "
                "absorbed via update()/apply_updates() — build a new "
                "IncrementalHorizontalDetector to re-detect from scratch"
            )
        cluster = self.cluster
        model = cluster.cost_model
        chosen: dict[str, list[int]] = {}

        for site, folds in zip(cluster.sites, self._constants):
            batch = site.fragment
            folds.fold(batch, 1, self._violations, self._keys)

        for variable in self.normalized.variables:
            partitions, _index = base.partition_cluster(cluster, variable)
            scan = base.scan_stage_time(cluster, partitions)
            base.exchange_statistics(cluster, self._log)

            lstat = [part.lstat for part in partitions]
            coordinators = self._strategy(cluster, lstat)
            chosen[variable.source] = list(coordinators)

            schema = base.ship_projection_schema(cluster.schema, variable)
            stage_log = ShipmentLog()
            base.ship_buckets(
                cluster, partitions, coordinators, stage_log,
                variable.source, width=len(schema),
            )
            transfer = model.transfer_time(stage_log.outgoing_by_source())
            self._log.merge(stage_log)

            state = _VariableState(
                variable, partitions[0].shared, coordinators, len(schema)
            )
            for part in partitions:
                if not part.participated:
                    continue
                fragment = part.site.fragment
                occupancy = base.group_occupancy(fragment, variable.attributes)
                pairs = part.pairs
                for ordinal, bucket in enumerate(part.buckets):
                    for local_code in bucket.codes:
                        x_code, y_code = pairs[local_code]
                        state.add_rows(x_code, y_code, occupancy[local_code])
                    state.bucket_rows[ordinal] += bucket.count
            for x_code in list(state.pair_counts):
                state.settle(x_code, self._violations)
            self._variables.append(state)

            ops_per_site: dict[int, float] = {}
            for ordinal, rows in enumerate(state.bucket_rows):
                if rows:
                    site = coordinators[ordinal]
                    ops_per_site[site] = ops_per_site.get(
                        site, 0.0
                    ) + model.check_ops(rows)
            check = max(
                (model.check_time(ops) for ops in ops_per_site.values()),
                default=0.0,
            )
            self._cost.stages.append(StageTimes(scan, transfer, check))

        if not self.normalized.variables:
            scan = max(
                (
                    model.scan_time(len(site.fragment))
                    for site in cluster.sites
                ),
                default=0.0,
            )
            self._cost.stages.append(StageTimes(scan, 0.0, 0.0))

        self._detected = True
        return DetectionOutcome(
            algorithm=self.algorithm,
            report=self.report,
            shipments=self._log,
            cost=self._cost,
            details={"coordinators": chosen, "incremental": True},
        )

    # -- updates ----------------------------------------------------------

    def update(
        self, site: int, inserted=(), deleted=()
    ) -> IncrementalUpdate:
        """Absorb one site's batch (see :meth:`apply_updates`)."""
        return self.apply_updates({site: (inserted, deleted)})

    def apply_updates(
        self, updates: Mapping[int, tuple]
    ) -> IncrementalUpdate:
        """Absorb insert/delete batches at several sites in one round.

        ``updates`` maps site index to ``(inserted_rows, deleted)``, with
        ``deleted`` an iterable of keys or a predicate (the
        :meth:`Relation.delete` contract).  Only the deltas are scanned,
        shipped (as signed coded triples) and folded; the returned
        :class:`IncrementalUpdate` carries what changed and this batch's
        traffic/cost.

        All-or-nothing: if any part of the round fails — a schema error,
        an invalid delete — the session (fragment versions, coordinator
        group tables, counters, cost log) rolls back to the state before
        this call and the exception propagates.
        """
        with self._session_lock:
            return self._apply_updates_locked(updates)

    def _apply_updates_locked(
        self, updates: Mapping[int, tuple]
    ) -> IncrementalUpdate:
        if not self._detected:
            raise ValueError("run detect() before applying updates")
        cluster = self.cluster
        model = cluster.cost_model
        self._violations.begin()
        self._keys.begin()
        for state in self._variables:
            state.begin()
        update_log = ShipmentLog()
        prior_fragments = list(self.fragments)

        try:
            batches = apply_fragment_updates(self.fragments, updates)

            if not batches:
                return IncrementalUpdate(
                    self._commit(), self.report, update_log,
                    StageTimes(0, 0, 0),
                )

            # constants: fold each site's delta locally (Proposition 5)
            for index, inserted, removed in batches:
                folds = self._constants[index]
                for sign, rows in ((-1, removed), (1, inserted)):
                    if rows:
                        batch = Relation(cluster.schema, rows, copy=False)
                        folds.fold(batch, sign, self._violations, self._keys)

            # variables: σ-scan each updated site's delta
            variables = [state.variable for state in self._variables]
            received_events: dict[int, int] = {}
            if variables:
                site_fragments = [site.fragment for site in cluster.sites]
                tasks = [
                    (index, (variables, inserted, removed))
                    for index, inserted, removed in batches
                ]
                results = base.scan_sites(
                    site_fragments, scan_delta_summary, tasks
                )
                for (index, _args), per_variable in zip(tasks, results):
                    for state, (pair_deltas, row_events, net_rows) in zip(
                        self._variables, per_variable
                    ):
                        shared = state.shared
                        touched: set[int] = set()
                        for ordinal, deltas in enumerate(pair_deltas):
                            if not deltas:
                                continue
                            coordinator = state.coordinators[ordinal]
                            if coordinator != index:
                                update_log.ship(
                                    coordinator,
                                    index,
                                    row_events[ordinal],
                                    row_events[ordinal] * state.width,
                                    tag=f"{state.variable.source}#p{ordinal}Δ",
                                    n_codes=3 * len(deltas),
                                )
                            # the coordinator re-checks its patched
                            # buckets whether the delta crossed the wire
                            # or was local — mirroring detect(), which
                            # charges coordinators for their own rows too
                            received_events[coordinator] = (
                                received_events.get(coordinator, 0)
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
        except BaseException:
            self.fragments[:] = prior_fragments
            for state in self._variables:
                state.rollback()
            self._violations.rollback()
            self._keys.rollback()
            raise
        stage = StageTimes(scan, transfer, check)
        self._cost.stages.append(stage)
        self._log.merge(update_log)
        return IncrementalUpdate(self._commit(), self.report, update_log, stage)

    # -- results ----------------------------------------------------------

    def _commit(self) -> ViolationDelta:
        for state in self._variables:
            state.commit()
        return commit_counters(self._violations, self._keys, self._wrap_keys)

    @property
    def report(self) -> ViolationReport:
        """The full current report (fresh copy)."""
        with self._session_lock:
            return counters_report(
                self._violations, self._keys, self._wrap_keys
            )

    def report_size(self) -> tuple[int, int]:
        """``(len(report.violations), len(report.tuple_keys))`` in O(1)."""
        with self._session_lock:
            return counters_size(self._violations, self._keys)

    def verify(self, sample: int | None = None, seed: int = 8) -> bool:
        """Invariant check against the ``reference`` engine.

        With ``sample=None`` (the default), recomputes the full
        violation set over the union of the *current* fragment versions
        with :func:`~repro.core.detection.detect_violations_reference`
        and demands exact equality.  With an integer ``sample``, draws
        that many resident rows with ``random.Random(seed)`` and checks
        subset soundness (violations are monotone increasing in the
        rows): every violation the reference engine finds on the sample
        must already be in the maintained report — a cheap,
        false-alarm-free corruption check for long-lived sessions.

        Only violations are compared: the distributed protocol ships
        coded summaries, so (like the one-shot horizontal algorithms)
        the session does not track per-row tuple keys of variable forms.
        """
        import random

        from ..core.detection import detect_violations_reference

        with self._session_lock:
            rows = []
            for fragment in self.fragments:
                rows.extend(fragment.rows)
            maintained = set(self.report.violations)
        if sample is not None and sample < len(rows):
            rows = random.Random(seed).sample(rows, sample)
            expected = detect_violations_reference(
                Relation(self.cluster.schema, rows, copy=False),
                self.cfd,
                collect_tuples=False,
            )
            return set(expected.violations) <= maintained
        expected = detect_violations_reference(
            Relation(self.cluster.schema, rows, copy=False),
            self.cfd,
            collect_tuples=False,
        )
        return set(expected.violations) == maintained

    @property
    def shipments(self) -> ShipmentLog:
        """Cumulative traffic: the initial run plus every absorbed batch."""
        return self._log

    def outcome(self) -> DetectionOutcome:
        """The session as a :class:`DetectionOutcome` (cumulative cost/log)."""
        with self._session_lock:
            return DetectionOutcome(
                algorithm=self.algorithm,
                report=self.report,
                shipments=self._log,
                cost=self._cost,
                details={"incremental": True},
            )

    def __repr__(self) -> str:
        total = sum(len(fragment) for fragment in self.fragments)
        return (
            f"IncrementalHorizontalDetector({self.algorithm}, "
            f"{len(self.fragments)} sites, {total} tuples)"
        )


def incremental_ctr(cluster: Cluster, cfd: CFD) -> IncrementalHorizontalDetector:
    """An attached incremental CTRDETECT session (initial run included)."""
    detector = IncrementalHorizontalDetector(cluster, cfd, "ctr")
    detector.detect()
    return detector


def incremental_pat_s(cluster: Cluster, cfd: CFD) -> IncrementalHorizontalDetector:
    """An attached incremental PATDETECTS session (initial run included)."""
    detector = IncrementalHorizontalDetector(cluster, cfd, "pat-s")
    detector.detect()
    return detector


def incremental_pat_rt(cluster: Cluster, cfd: CFD) -> IncrementalHorizontalDetector:
    """An attached incremental PATDETECTRT session (initial run included)."""
    detector = IncrementalHorizontalDetector(cluster, cfd, "pat-rt")
    detector.detect()
    return detector
