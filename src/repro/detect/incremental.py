"""Resident distributed sessions: maintain coordinator state over ΔD.

The one-shot horizontal algorithms re-scan every fragment and re-ship
every σ bucket per run.  A *session* keeps a detection alive instead:
after one full run each coordinator's merged GROUP BY — per ``x``, the
multiset of ``y`` it takes, with counts — stays resident, and a batch of
inserts/deletes at some places is absorbed in O(|ΔD|).

That full run *is* the family's one-shot step: a session's seed calls
the step function its one-shot detector runs (:func:`~repro.detect.ctr.ctr_step`,
:func:`~repro.detect.pat.pat_step`, :func:`~repro.detect.clust.clust_step`,
:func:`~repro.detect.hybrid.hybrid_step`) — so shipments, stage times and
``details`` are the one-shot's — then fills its kernel from what the
step's coordinators received.

The paper's horizontal algorithms are one skeleton that differs in *who
coordinates* and *what is shipped* (:mod:`repro.detect.base`), and so
are their sessions.  :class:`_ResidentSession` is that skeleton — the
per-place constant folds (Proposition 5: purely local), the all-or-
nothing update round with its modelled stage times, reports and
``verify`` — and :class:`_VariableState` the one coordinator kernel.  A
family supplies how the initial run seeds coordinator state and where a
round's signed deltas come from:

* :class:`IncrementalHorizontalDetector` (here; CTRDETECT / PATDETECTS /
  PATDETECTRT) — each updated site σ-partitions *its delta rows only*
  into per-pattern ``(x, y) → ±count`` summaries (inserts and deletes of
  one combination cancel site-side and never cross the wire), new
  values intern into the cluster's append-only
  :class:`~repro.relational.shareddict.SharedPairDictionary` (so every
  code from the initial run stays valid — the invariant that makes
  in-place patching sound), and each pattern's coordinator receives
  signed ``(x_code, y_code, count)`` triples, logged with
  ``n_codes = 3·|changed pairs|``;
* :class:`~repro.detect.clust.IncrementalClustDetector` — signed
  ``(combo_code, count)`` pairs per CFD cluster, one kernel per member;
* :class:`~repro.detect.hybrid.IncrementalHybridDetector` — keyed delta
  columns into a region's gather site, then the horizontal triples.

Coordinators are chosen once, by the family's strategy, during the
initial run and then kept — re-electing them after every batch would
force re-shipping state that already sits at the old coordinator.  A
round's simulated response time follows the same three-stage model as a
full run, with every stage driven by |ΔD| instead of |D|.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from ..core import CFD, Violation, ViolationReport
from ..core.incremental import (
    ConstantFolds,
    TransitionCounter,
    ViolationDelta,
    _restore_counts,
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
from ..relational import Relation, compatible_with_bindings
from ..relational.delta import prune_delta_history
from . import base
from .ctr import ctr_step
from .pat import make_select_min_response, pat_step, select_max_stat


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


#: algorithm name -> (display name, step factory taking the cluster)
_ALGORITHMS: dict[str, tuple[str, Callable[[Cluster], base.Step]]] = {
    "ctr": ("CTRDETECT+Δ", lambda cluster: ctr_step),
    "pat-s": (
        "PATDETECTS+Δ",
        lambda cluster: partial(pat_step, pick=select_max_stat),
    ),
    "pat-rt": (
        "PATDETECTRT+Δ",
        lambda cluster: partial(pat_step, pick=make_select_min_response(cluster)),
    ),
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


def _forward(
    update_log: ShipmentLog,
    received_events: dict[int, int],
    coordinator: int,
    source: int,
    events: int,
    width: int,
    tag: str,
    n_codes: int,
) -> None:
    """One bucket's delta reaches its coordinator.

    Shipped unless the coordinator is the updated site itself; charged to
    the coordinator either way — it re-checks its patched buckets whether
    the delta crossed the wire or was local, mirroring the initial run,
    which charges coordinators for their own rows too.
    """
    if coordinator != source:
        update_log.ship(
            coordinator, source, events, events * width,
            tag=tag, n_codes=n_codes,
        )
    received_events[coordinator] = received_events.get(coordinator, 0) + events


class _VariableState:
    """One variable CFD's resident coordinator state: the GROUP BY kernel.

    ``x → {y: count}`` merged across all sites, the ``x`` currently
    conflicting, and the row count of every σ bucket.  Keys are anything
    hashable: global ``(x_code, y_code)`` pairs of ``shared`` for the
    horizontal and hybrid sessions, the ``X`` / RHS value tuples
    themselves (``shared=None``) for a member CFD of a CLUSTDETECT
    cluster — whose buckets belong to the cluster, so it has none here.
    """

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

    def __init__(self, variable, shared=None, coordinators=()) -> None:
        self.variable = variable
        self.shared = shared
        #: per σ bucket: the (global) id of the site coordinating it
        self.coordinators = list(coordinators)
        #: x -> {y: row count}, merged across all sites
        self.pair_counts: dict = {}
        self.conflicting: set = set()
        self.bucket_rows = [0] * len(self.coordinators)
        #: attributes per shipped row
        self.width = len(variable.attributes)
        # transactional batches: x -> {y: prior count}, each entry
        # recorded on first touch (the journal shape of
        # repro.core.incremental); see begin()
        self._undo_pairs: dict | None = None
        self._undo_buckets: list | None = None

    @classmethod
    def seeded(
        cls, step: base.VariableStep, violations: TransitionCounter
    ) -> "_VariableState":
        """The kernel a one-shot step leaves resident: what each
        coordinator received, with row counts, and its conflicts."""
        state = cls(step.variable, step.shared, step.coordinators)
        for ordinal, bucket in enumerate(step.merged):
            for (x_code, y_code), rows in zip(bucket.pairs, bucket.counts):
                state.add_rows(x_code, y_code, rows)
            state.bucket_rows[ordinal] = bucket.rows
        for x_code in list(state.pair_counts):
            state.settle(x_code, violations)
        return state

    def begin(self) -> None:
        """Open a transactional batch (first-touch prior-count journal)."""
        self._undo_pairs = {}
        self._undo_buckets = list(self.bucket_rows)

    def commit(self) -> None:
        """Close the batch, discarding its undo log."""
        self._undo_pairs = None
        self._undo_buckets = None

    def rollback(self) -> None:
        """Restore every touched count and the bucket row counts.

        Every group was settled when the batch opened, so a restored
        group's conflict status is re-derived from its restored counts.
        The shared dictionaries stay grown (append-only: codes interned
        during a doomed batch are simply never referenced again).  A
        no-op when no batch is open.
        """
        undo = self._undo_pairs
        self._undo_pairs = None
        if undo is not None:
            for x, journal in undo.items():
                ys = self.pair_counts.setdefault(x, {})
                _restore_counts(ys, journal)
                if not ys:
                    del self.pair_counts[x]
                if len(ys) >= 2:
                    self.conflicting.add(x)
                else:
                    self.conflicting.discard(x)
        if self._undo_buckets is not None:
            self.bucket_rows = self._undo_buckets
            self._undo_buckets = None

    def _violation(self, x) -> Violation:
        return Violation(
            cfd=self.variable.source,
            lhs_attributes=self.variable.lhs,
            lhs_values=x if self.shared is None else self.shared.x_values[x],
        )

    def add_rows(self, x, y, count: int) -> None:
        """Patch one combination's row count (build and update path both)."""
        ys = self.pair_counts.get(x)
        if ys is None:
            ys = self.pair_counts[x] = {}
        prior = ys.get(y, 0)
        undo = self._undo_pairs
        if undo is not None:
            journal = undo.get(x)
            if journal is None:
                journal = undo[x] = {}
            journal.setdefault(y, prior)
        new = prior + count
        if new > 0:
            ys[y] = new
        elif new == 0:
            del ys[y]
            if not ys:
                del self.pair_counts[x]
        else:
            raise ValueError(
                "coordinator state underflow: a site deleted rows it never "
                "reported"
            )

    def settle(self, x, violations: TransitionCounter) -> None:
        """Re-derive one group's conflict status after patching it."""
        ys = self.pair_counts.get(x)
        now = ys is not None and len(ys) >= 2
        was = x in self.conflicting
        if now and not was:
            self.conflicting.add(x)
            violations.add(self._violation(x), 1)
        elif was and not now:
            self.conflicting.discard(x)
            violations.add(self._violation(x), -1)

    def absorb(
        self,
        source: int,
        summary,
        update_log: ShipmentLog,
        received_events: dict[int, int],
        violations: TransitionCounter,
    ) -> None:
        """Fold one site's :func:`scan_delta_summary` entry for this CFD.

        Each changed bucket reaches its coordinator as signed
        ``(x_code, y_code, count)`` triples — ``n_codes = 3·|changed
        pairs|`` — and patches the counters in place; new values intern
        append-only into ``shared``.
        """
        pair_deltas, row_events, net_rows = summary
        shared = self.shared
        touched: set[int] = set()
        for ordinal, deltas in enumerate(pair_deltas):
            if not deltas:
                continue
            _forward(
                update_log, received_events,
                self.coordinators[ordinal], source,
                row_events[ordinal], self.width,
                f"{self.variable.source}#p{ordinal}Δ", 3 * len(deltas),
            )
            for (x, y), count in deltas.items():
                x_code = shared.intern_x(x)
                self.add_rows(x_code, shared.intern_y(y), count)
                touched.add(x_code)
            self.bucket_rows[ordinal] += net_rows[ordinal]
        for x_code in touched:
            self.settle(x_code, violations)


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


class _ResidentSession:
    """The skeleton every resident distributed session shares.

    A family (horizontal, CLUSTDETECT, hybrid) is the two things the
    paper says it is: :meth:`_seed` — how the initial run chooses
    coordinators and fills their state — and :meth:`_absorb` — where one
    round's signed deltas come from and what crosses the wire.  The rest
    is here, once: the per-place constant folds (Proposition 5), the
    :meth:`detect` once-guard, the all-or-nothing round, the modelled
    stage times of a round, reports, :meth:`verify` and the cost log.

    ``places`` are the cluster's horizontal units (sites, or the regions
    of a hybrid cluster), each with a ``predicate``; ``fragments`` holds
    the current full-schema relation version of each.  ``_states`` is the
    family's resident coordinator state — anything with ``begin`` /
    ``commit`` / ``rollback``.

    Sessions are *single-writer*: fragment versions, coordinator tables,
    counters and the cost log assume one mutation at a time, so every
    public entry point serializes on a per-session reentrant lock (a
    round reads :attr:`report` while holding it).  Concurrent callers —
    the resident service's request threads — are safe; they take turns.
    """

    #: display name of the session's algorithm
    algorithm = ""
    #: whether the constant forms' tuple keys are collected
    _collect_tuples = True

    def __init__(self, cluster, cfds: CFD | Iterable[CFD], places, fragments) -> None:
        self.cluster = cluster
        self.cfds = [cfds] if isinstance(cfds, CFD) else list(cfds)
        self.fragments: list[Relation] = fragments
        # the constant folds carry single-attribute keys raw; the report
        # boundary wraps them back into the 1-tuple contract
        self._wrap_keys = len(cluster.schema.key_positions()) == 1
        self._violations = TransitionCounter()
        self._keys = TransitionCounter()
        constants = []
        self._variable_cfds: list[VariableCFD] = []
        for cfd in self.cfds:
            normalized = normalize(cfd)
            constants.extend(normalized.constants)
            self._variable_cfds.extend(normalized.variables)
        self._constants: list[ConstantFolds] = [
            ConstantFolds(
                [
                    constant
                    for constant in constants
                    if place.predicate is None
                    or compatible_with_bindings(
                        place.predicate, constant.condition()
                    )
                ],
                collect_tuples=self._collect_tuples,
            )
            for place in places
        ]
        self._states: list = []
        self._log = ShipmentLog()
        self._cost = CostBreakdown()
        self._detected = False
        #: serializes every public entry point (single-writer contract)
        self._session_lock = threading.RLock()

    # -- the two things a family is ---------------------------------------

    def _seed(self) -> dict:
        """The initial run's variable half: the family's one-shot step
        (scans, coordinator choice, shipments, ``StageTimes`` appended),
        then ``_states`` filled from what its coordinators received.
        Returns the outcome's ``details``."""
        raise NotImplementedError

    def _absorb(self, batches, update_log: ShipmentLog) -> dict[int, int]:
        """One round's variable half: delta scan per updated place, the
        family's shipments on ``update_log``, ``_states`` patched.
        Returns ``coordinator site → row events it must re-check``."""
        raise NotImplementedError

    def _check_round(self, updates: Mapping[int, tuple]) -> Mapping[int, tuple]:
        """Family validation of a round's input, before any state moves."""
        return updates

    # -- initial run ------------------------------------------------------

    def detect(self) -> DetectionOutcome:
        """The full one-shot run; builds the resident coordinator state.

        One run per session: the scan reads the *original* cluster
        fragments, so re-running after updates would fold stale rows on
        top of live counters — start a new session instead.
        """
        with self._session_lock:
            if self._detected:
                raise ValueError(
                    "detect() already ran for this session; updates are "
                    "absorbed via update() — build a new "
                    f"{type(self).__name__} to re-detect from scratch"
                )
            for fragment, folds in zip(self.fragments, self._constants):
                folds.fold(fragment, 1, self._violations, self._keys)
            details = self._seed()
            self._detected = True
            return DetectionOutcome(
                algorithm=self.algorithm,
                report=self.report,
                shipments=self._log,
                cost=self._cost,
                details={**details, "incremental": True},
            )

    # -- updates ----------------------------------------------------------

    def update(self, site: int, inserted=(), deleted=()) -> IncrementalUpdate:
        """Absorb one site's batch: a one-site round (see :meth:`_round`)."""
        return self._round({site: (inserted, deleted)})

    def _round(self, updates: Mapping[int, tuple]) -> IncrementalUpdate:
        """Absorb insert/delete batches at several sites in one round.

        ``updates`` maps site index to ``(inserted_rows, deleted)``, with
        ``deleted`` an iterable of keys or a predicate (the
        :meth:`Relation.delete` contract).  Only the deltas are scanned,
        shipped (coded) and folded; the returned
        :class:`IncrementalUpdate` carries what changed and this batch's
        traffic/cost — every modelled stage driven by |ΔD|, not |D|.

        All-or-nothing: if any part of the round fails — a schema error,
        an invalid delete, an unhashable cell — the session (fragment
        versions, coordinator tables, counters, cost log) rolls back to
        the state before this call and the exception propagates.
        """
        with self._session_lock:
            if not self._detected:
                raise ValueError("run detect() before applying updates")
            updates = self._check_round(updates)
            schema = self.cluster.schema
            model = self.cluster.cost_model
            self._violations.begin()
            self._keys.begin()
            for state in self._states:
                state.begin()
            update_log = ShipmentLog()
            stage = StageTimes(0, 0, 0)
            prior_fragments = list(self.fragments)
            try:
                batches = apply_fragment_updates(self.fragments, updates)
                if batches:
                    # constants: fold each delta locally (Proposition 5)
                    for index, inserted, removed in batches:
                        folds = self._constants[index]
                        for sign, rows in ((-1, removed), (1, inserted)):
                            if rows:
                                folds.fold(
                                    Relation(schema, rows, copy=False),
                                    sign, self._violations, self._keys,
                                )
                    received_events = self._absorb(batches, update_log)
                    stage = StageTimes(
                        max(
                            model.scan_time(len(inserted) + len(removed))
                            for _index, inserted, removed in batches
                        ),
                        model.transfer_time(update_log.outgoing_by_source()),
                        max(
                            (
                                model.check_time(model.check_ops(events))
                                for events in received_events.values()
                            ),
                            default=0.0,
                        ),
                    )
            except BaseException:
                self.fragments[:] = prior_fragments
                for state in self._states:
                    state.rollback()
                self._violations.rollback()
                self._keys.rollback()
                raise
            if batches:
                self._cost.stages.append(stage)
                self._log.merge(update_log)
            for state in self._states:
                state.commit()
            delta = commit_counters(
                self._violations, self._keys, self._wrap_keys
            )
            return IncrementalUpdate(delta, self.report, update_log, stage)

    # -- results ----------------------------------------------------------

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
        coded summaries, so (like the one-shot algorithms) the session
        does not track per-row tuple keys of variable forms.
        """
        import random

        from ..core.detection import detect_violations_reference

        with self._session_lock:
            rows = [row for fragment in self.fragments for row in fragment.rows]
            maintained = set(self.report.violations)
        sampled = sample is not None and sample < len(rows)
        if sampled:
            rows = random.Random(seed).sample(rows, sample)
        expected = set(
            detect_violations_reference(
                Relation(self.cluster.schema, rows, copy=False),
                self.cfds,
                collect_tuples=False,
            ).violations
        )
        return expected <= maintained if sampled else expected == maintained

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
            f"{type(self).__name__}({self.algorithm}, {len(self.cfds)} CFDs, "
            f"{len(self.fragments)} fragments, {total} tuples)"
        )


class IncrementalHorizontalDetector(_ResidentSession):
    """A resident CTRDETECT / PATDETECTS / PATDETECTRT session for one CFD.

    ``algorithm`` selects the wrapped step (``"ctr"``, ``"pat-s"``,
    ``"pat-rt"``) or pass any :data:`~repro.detect.pat.Strategy` callable
    for PATDETECT's step under it.  :meth:`detect` runs the one-shot
    step once and keeps what its coordinators received;
    :meth:`update` / :meth:`apply_updates` absorb batches in O(|ΔD|).
    :attr:`fragments` tracks the current version of every site's
    fragment (the cluster object itself stays immutable).
    """

    def __init__(
        self,
        cluster: Cluster,
        cfd: CFD,
        algorithm: str | Callable = "pat-s",
    ) -> None:
        if callable(algorithm):
            self.algorithm = getattr(algorithm, "__name__", "custom") + "+Δ"
            self._step = partial(pat_step, pick=algorithm)
        else:
            try:
                name, factory = _ALGORITHMS[algorithm]
            except KeyError:
                raise ValueError(
                    f"unknown incremental algorithm {algorithm!r}; use one "
                    f"of {sorted(_ALGORITHMS)} or pass a strategy callable"
                ) from None
            self.algorithm = name
            self._step = factory(cluster)
        self.cfd = cfd
        super().__init__(
            cluster, cfd, cluster.sites,
            [site.fragment for site in cluster.sites],
        )

    #: a round may span several sites
    apply_updates = _ResidentSession._round

    def _seed(self) -> dict:
        steps, stages, details = base.run_steps(
            self.cluster, self._variable_cfds, self._step, self._log
        )
        self._cost.stages.extend(stages)
        self._states.extend(
            _VariableState.seeded(step, self._violations) for step in steps
        )
        return details

    def _absorb(self, batches, update_log: ShipmentLog) -> dict[int, int]:
        received_events: dict[int, int] = {}
        for index, inserted, removed in batches:
            per_variable = scan_delta_summary(
                self.fragments[index], self._variable_cfds, inserted, removed
            )
            for state, summary in zip(self._states, per_variable):
                state.absorb(
                    index, summary, update_log, received_events,
                    self._violations,
                )
        return received_events


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
