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
are their sessions.  Every session is a
:class:`~repro.core.incremental.ResidentSession` (lock, counters,
round close, reports, ``verify``); :class:`_DistributedSession` adds what
every cluster session has (the once-only initial run, the cumulative
shipment log and cost, ``outcome``), and :class:`_ResidentSession` is
the horizontal skeleton — the per-place constant folds (Proposition 5:
purely local) and the all-or-nothing update round with its modelled
stage times — with :class:`_VariableState` the one coordinator kernel, a
:class:`~repro.core.incremental.GroupCounts` table like the centralized
fold's.  A family supplies how the initial run seeds coordinator state
and where a round's signed deltas come from:

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

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from ..core import CFD, Violation
from ..core.incremental import (
    ConstantFolds,
    GroupCounts,
    ResidentSession,
    TransitionCounter,
    ViolationDelta,
    apply_batch,
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
from ..relational.rowstore import KeyedRows
from . import base
from .ctr import ctr_step
from .pat import make_select_min_response, pat_step, select_max_stat


def _removed(streams: list) -> list:
    """The removed rows among :func:`~repro.core.incremental.apply_batch`'s
    signed streams (it lists them first)."""
    rows, sign = streams[0]
    return rows if sign < 0 else []


def apply_fragment_updates(
    fragments: list[Relation], updates: Mapping[int, tuple]
) -> list[tuple[int, list, list]]:
    """Replace fragments by their next versions after one round of batches.

    ``updates`` maps site index to ``(inserted_rows, deleted)`` with
    ``deleted`` an iterable of keys or a predicate (the
    :meth:`Relation.delete` contract).  Each updated entry of the list
    ``fragments`` whose rows change is replaced by a new
    :class:`Relation`; the relations themselves are immutable values, so
    nothing but that list changes.  Returns ``(site, inserted_rows,
    removed_rows)`` for every such site.  All-or-nothing: when any site's
    batch raises (a wrong-width row, an invalid delete), no entry of
    ``fragments`` has been replaced.

    Each site's batch runs through a fresh
    :class:`~repro.relational.rowstore.KeyedRows` built from its fragment,
    so this copies every updated fragment; a caller may run it on
    ``list(session.fragments)`` without touching the session.
    """
    staged: list[tuple[int, KeyedRows, list, list]] = []
    for index in sorted(updates):
        rows = KeyedRows(fragments[index])
        inserted, doomed = rows.check(*updates[index])
        streams = apply_batch(rows, inserted, doomed)
        if streams:
            staged.append((index, rows, inserted, _removed(streams)))
    # every site's batch applied cleanly: only now install the versions
    batches = []
    for index, rows, inserted, removed in staged:
        fragments[index] = rows.relation
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

    For each variable CFD returns ``(pair_deltas, row_events)`` per
    pattern: the signed ``(x, y) → count`` summary (cancelled
    combinations dropped) and how many row events (inserts + deletes)
    hit the bucket.  ``fragment`` supplies only the schema — the scan
    never touches the resident rows, which is what makes the update cost
    independent of |D_i|.
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
        out.append((pair_deltas, row_events))
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


#: a coordinator's count fell below zero
_UNDERFLOW = (
    "coordinator state underflow: a site deleted rows it never reported"
)


class _VariableState(GroupCounts):
    """One variable CFD's resident coordinator state: the
    :class:`~repro.core.incremental.GroupCounts` kernel merged across all
    sites, plus who coordinates each σ bucket.  Keys are anything
    hashable: global ``(x_code, y_code)`` pairs of ``shared`` for the
    horizontal and hybrid sessions, the ``X`` / RHS value tuples
    themselves (``shared=None``) for a member CFD of a CLUSTDETECT
    cluster — whose buckets belong to the cluster, so it has none here.
    The shared dictionaries stay grown across a rollback (append-only:
    codes interned during a doomed batch are simply never referenced
    again).
    """

    __slots__ = ("variable", "shared", "coordinators", "width")

    def __init__(self, variable, shared=None, coordinators=()) -> None:
        super().__init__()
        self.variable = variable
        self.shared = shared
        #: per σ bucket: the (global) id of the site coordinating it
        self.coordinators = list(coordinators)
        #: attributes per shipped row
        self.width = len(variable.attributes)

    @classmethod
    def seeded(
        cls, step: base.VariableStep, violations: TransitionCounter
    ) -> "_VariableState":
        """The kernel a one-shot step leaves resident: what each
        coordinator received, with row counts, and its conflicts."""
        state = cls(step.variable, step.shared, step.coordinators)
        for bucket in step.merged:
            for (x_code, y_code), rows in zip(bucket.pairs, bucket.counts):
                state.add_rows(x_code, y_code, rows)
        for x_code in list(state.counts):
            if state.settle(x_code):
                violations.add(state._violation(x_code), 1)
        return state

    def _violation(self, x) -> Violation:
        return Violation(
            cfd=self.variable.source,
            lhs_attributes=self.variable.lhs,
            lhs_values=x if self.shared is None else self.shared.x_values[x],
        )

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
        pair_deltas, row_events = summary
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
                try:
                    self.add_rows(x_code, shared.intern_y(y), count)
                except ValueError:
                    raise ValueError(_UNDERFLOW) from None
                touched.add(x_code)
        for x_code in touched:
            flip = self.settle(x_code)
            if flip:
                violations.add(self._violation(x_code), flip)


@dataclass
class IncrementalUpdate:
    """The result of absorbing one update batch.

    ``delta`` is what changed; ``report_size`` the post-update
    ``(len(report.violations), len(report.tuple_keys))``, taken in O(1)
    at commit (a caller who wants the full report reads the session's
    ``report``); ``shipments`` only this batch's traffic (the detector's
    cumulative log keeps growing separately); ``stage`` the batch's
    simulated scan/transfer/check times.
    """

    delta: ViolationDelta
    report_size: tuple[int, int]
    shipments: ShipmentLog
    stage: StageTimes

    @property
    def response_time(self) -> float:
        return self.stage.total


class _DistributedSession(ResidentSession):
    """A :class:`~repro.core.incremental.ResidentSession` over a cluster:
    what the horizontal, CLUSTDETECT, hybrid and vertical sessions share.

    The one-shot run happens once (:meth:`detect`); its shipments and
    modelled stage times start a cumulative log and cost that every round
    extends (:meth:`_settle_round`), and :meth:`outcome` reports them.  A
    layout supplies :meth:`_initial_run` — the one-shot run that fills
    its resident state — and its own round.
    """

    #: display name of the session's algorithm
    algorithm = ""

    def __init__(self, cluster, cfds: CFD | Iterable[CFD], schema) -> None:
        super().__init__(cfds, schema)
        self.cluster = cluster
        self._log = ShipmentLog()
        self._cost = CostBreakdown()
        self._detected = False

    def _initial_run(self) -> dict:
        """The layout's one-shot run: its scans and shipments on
        ``_log``, its ``StageTimes`` on ``_cost``, its resident state
        filled.  Returns the outcome's ``details``."""
        raise NotImplementedError

    def detect(self) -> DetectionOutcome:
        """The full one-shot run; builds the resident state.

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
            details = self._initial_run()
            self._detected = True
            return self._outcome({**details, "incremental": True})

    def _require_detected(self) -> None:
        if not self._detected:
            raise ValueError("run detect() before applying updates")

    def _settle_round(
        self, update_log: ShipmentLog, stage: StageTimes, record: bool
    ) -> IncrementalUpdate:
        """Close a round into its :class:`IncrementalUpdate`; with
        ``record``, its stage and traffic join the cumulative cost and
        log."""
        if record:
            self._cost.stages.append(stage)
            self._log.merge(update_log)
        return IncrementalUpdate(
            self._close_round(), self.report_size(), update_log, stage
        )

    @property
    def shipments(self) -> ShipmentLog:
        """Cumulative traffic: the initial run plus every absorbed batch."""
        return self._log

    def outcome(self) -> DetectionOutcome:
        """The session as a :class:`DetectionOutcome` (cumulative cost/log)."""
        with self._session_lock:
            return self._outcome({"incremental": True})

    def _outcome(self, details: dict) -> DetectionOutcome:
        return DetectionOutcome(
            algorithm=self.algorithm,
            report=self.report,
            shipments=self._log,
            cost=self._cost,
            details=details,
        )


class _ResidentSession(_DistributedSession):
    """The skeleton every resident horizontal session shares.

    A family (horizontal, CLUSTDETECT, hybrid) is the two things the
    paper says it is: :meth:`_seed` — how the initial run chooses
    coordinators and fills their state — and :meth:`_absorb` — where one
    round's signed deltas come from and what crosses the wire.  The rest
    is here, once: the per-place constant folds (Proposition 5), the
    all-or-nothing round and its modelled stage times.

    ``places`` are the cluster's horizontal units (sites, or the regions
    of a hybrid cluster), each with a ``predicate``.  Each place keeps its
    full-schema rows in one :class:`~repro.relational.rowstore.KeyedRows`
    store — built from the place's initial fragment when a round first
    touches it — which a round changes in O(|ΔD|) under the same journal
    and rollback as the kernels; :attr:`fragments` shows them as
    relations, and the delta scans read only the initial fragment's
    schema.
    ``_states`` is the family's resident coordinator state — anything
    with ``begin`` / ``commit`` / ``rollback``.
    """

    #: whether the constant forms' tuple keys are collected
    _collect_tuples = True
    # the protocol ships coded summaries, so (like the one-shot
    # algorithms) the session tracks no per-row tuple keys of variable
    # forms: ``verify`` compares violations only
    _verify_keys = False

    def __init__(self, cluster, cfds: CFD | Iterable[CFD], places, fragments) -> None:
        super().__init__(cluster, cfds, cluster.schema)
        #: per place: the fragment the session starts from, and its keyed
        #: row store, built when a round first touches the place
        self._initial_fragments: list[Relation] = list(fragments)
        self._rows: list[KeyedRows | None] = [None] * len(fragments)
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

    @property
    def fragments(self) -> list[Relation]:
        """Each place's current rows as a :class:`Relation`: materialized
        lazily per place and cached until that place's next successful
        round (a failed round keeps the cached object)."""
        with self._session_lock:
            return [
                fragment if rows is None else rows.relation
                for fragment, rows in zip(self._initial_fragments, self._rows)
            ]

    def _current(self) -> Relation:
        rows = [row for fragment in self.fragments for row in fragment.rows]
        return Relation(self.cluster.schema, rows, copy=False)

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

    def _initial_run(self) -> dict:
        for fragment, folds in zip(self.fragments, self._constants):
            folds.fold(fragment, 1, self._violations, self._keys)
        return self._seed()

    # -- updates ----------------------------------------------------------

    def update(self, site: int, inserted=(), deleted=()) -> IncrementalUpdate:
        """Absorb one site's batch: a one-site round (see :meth:`_round`)."""
        return self._round({site: (inserted, deleted)})

    def _round(self, updates: Mapping[int, tuple]) -> IncrementalUpdate:
        """Absorb insert/delete batches at several sites in one round.

        ``updates`` maps site index to ``(inserted_rows, deleted)``, with
        ``deleted`` an iterable of keys or a predicate (the
        :meth:`Relation.delete` contract).  Each updated place's row store
        takes the batch in O(|ΔD|) (a predicate scans that place once);
        only the deltas are scanned, shipped (coded) and folded; the
        returned :class:`IncrementalUpdate` carries what changed and this
        batch's traffic/cost — every modelled stage driven by |ΔD|, not
        |D|.

        All-or-nothing: a wrong-width row or key at any place raises
        before any state moves, and if a later part of the round fails —
        an unhashable cell, a failing fold — the session (row stores,
        coordinator tables, counters, cost log) rolls back to the state
        before this call and the exception propagates.
        """
        with self._session_lock:
            self._require_detected()
            updates = self._check_round(updates)
            # every place's batch is checked before any state moves
            checked = []
            for index in sorted(updates):
                rows = self._rows[index]
                if rows is None:
                    rows = self._rows[index] = KeyedRows(
                        self._initial_fragments[index]
                    )
                checked.append((index, rows, *rows.check(*updates[index])))
            schema = self.cluster.schema
            model = self.cluster.cost_model
            update_log = ShipmentLog()
            stage = StageTimes(0, 0, 0)
            transaction = self._transaction
            transaction.participants = [
                rows for _index, rows, _inserted, _doomed in checked
            ] + self._states
            with transaction:
                batches = []
                for index, rows, inserted, doomed in checked:
                    streams = apply_batch(rows, inserted, doomed)
                    if streams:
                        # constants: fold each delta locally (Proposition 5)
                        self._fold(schema, streams, self._constants[index], ())
                        batches.append((index, inserted, _removed(streams)))
                if batches:
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
            return self._settle_round(update_log, stage, bool(batches))


class IncrementalHorizontalDetector(_ResidentSession):
    """A resident CTRDETECT / PATDETECTS / PATDETECTRT session for one CFD.

    ``algorithm`` selects the wrapped step (``"ctr"``, ``"pat-s"``,
    ``"pat-rt"``) or pass any :data:`~repro.detect.pat.Strategy` callable
    for PATDETECT's step under it.  :meth:`detect` runs the one-shot
    step once and keeps what its coordinators received;
    :meth:`update` / :meth:`apply_updates` absorb batches in O(|ΔD|).
    :attr:`fragments` shows every site's current rows (the cluster
    object itself stays immutable).
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
                self._initial_fragments[index], self._variable_cfds,
                inserted, removed,
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
