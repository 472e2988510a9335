"""Every ``REPRO_*`` knob in one table: name, parser, default, flag, doc.

The paper's detectors need no configuration; the knobs pick the
detection engine, inject faults, scale the experiment datasets and
size the resident service.  Each knob is read through :func:`resolve`:
an explicit override wins, then a non-empty environment value, then the
row's default.  The row's parser checks override and environment values
alike, and every bad value is a :class:`ValueError` naming the knob —
the CLI validates the whole table before any data is loaded (exit code
2) and builds ``repro serve``'s flags from the rows that have one.  The
README's "Environment variables" table documents the same rows.

A stdlib-only leaf: nothing here imports the rest of the package at
import time, so every layer may read a knob.
"""

from __future__ import annotations

import math
import os
from typing import Callable, NamedTuple

#: the one-shot detection engines (``auto`` means ``fused``)
ENGINES = ("reference", "fused", "sql")

#: WAL fsync policies, strongest first
FSYNC_POLICIES = ("always", "batch", "off")


class Knob(NamedTuple):
    """One row: ``parse(name, value)`` returns the typed value or raises
    a :class:`ValueError` naming the knob."""

    name: str
    parse: Callable[[str, object], object]
    default: object
    doc: str
    #: ``repro serve`` flag, the service keyword it feeds and its metavar
    flag: str | None = None
    keyword: str | None = None
    metavar: str | None = None
    #: whether an empty environment value means "unset" (else it is a
    #: value like any other, and the parser rejects it)
    blank_is_default: bool = True


def _count(minimum: int):
    """An integer ``>= minimum``; ``minimum=0`` lets 0 switch a cap off."""

    def parse(name: str, value) -> int:
        try:
            number = int(value)
        except (TypeError, ValueError):
            number = None
        if number is None or number < minimum:
            raise ValueError(
                f"{name} must be an integer >= {minimum}, got {value!r}"
            )
        return number

    return parse


def _number(positive: bool):
    """A finite float, ``> 0`` or ``>= 0`` (0 switches the knob off)."""
    bound = "> 0" if positive else ">= 0"

    def parse(name: str, value) -> float:
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number) or number < 0 or (positive and not number):
            raise ValueError(
                f"{name} must be a finite number {bound}, got {value!r}"
            )
        return number

    return parse


def _choice(choices: tuple, what: str, fold: bool = False):
    """One of ``choices``; ``fold`` strips and lower-cases first."""

    def parse(name: str, value) -> str:
        if fold:
            value = str(value).strip().lower()
        if value not in choices:
            raise ValueError(
                f"unknown {name} {value!r} (unknown {what}; use one of "
                f"{', '.join(choices)})"
            )
        return value

    return parse


def _fault_plan(name: str, spec):
    # the grammar and the stateful plan live with the faults themselves
    from .core.faults import env_plan

    return env_plan(spec)


_KNOBS = (
    Knob("REPRO_ENGINE", _choice(ENGINES + ("auto",), "detection engine"),
         "auto", "one-shot detection engine", blank_is_default=False),
    Knob("REPRO_FAULTS", _fault_plan, None,
         "deterministic fault injection, kind@order entries"),
    Knob("REPRO_SCALE", _number(positive=True), 0.1,
         "experiment dataset scale relative to the paper",
         blank_is_default=False),
    Knob("REPRO_SERVE_MAX_SESSIONS", _count(1), 64,
         "resident sessions before LRU eviction",
         "--max-sessions", "max_sessions", "N"),
    Knob("REPRO_SERVE_QUEUE", _count(1), 64,
         "per-session pending-update bound before 429 backpressure",
         "--queue", "queue_depth", "N"),
    Knob("REPRO_SERVE_COALESCE", _count(1), 16,
         "max update requests folded as one combined batch",
         "--coalesce", "coalesce", "N"),
    Knob("REPRO_SERVE_FSYNC", _choice(FSYNC_POLICIES, "fsync policy", True),
         "batch", "WAL fsync policy: always | batch | off; needs --data-dir",
         "--fsync", "fsync", "POLICY"),
    Knob("REPRO_SERVE_CHECKPOINT", _count(1), 256,
         "WAL records between snapshot checkpoints; needs --data-dir",
         "--checkpoint", "checkpoint", "N"),
    Knob("REPRO_SERVE_TIMEOUT", _number(positive=True), 30.0,
         "per-connection socket timeout so stalled clients cannot pin "
         "handler threads", "--timeout", "timeout", "SECONDS"),
    Knob("REPRO_SERVE_TENANT_SESSIONS", _count(0), 0,
         "resident sessions per tenant before 429 QuotaExceeded; "
         "0 = unlimited", "--tenant-sessions", "tenant_sessions", "N"),
    Knob("REPRO_SERVE_RATE", _number(positive=False), 0.0,
         "token-bucket admission rate per tenant; 0 = unlimited",
         "--rate", "rate", "REQ_PER_SEC"),
    Knob("REPRO_SERVE_MAX_ROWS", _count(1), 100_000,
         "rows (inserted + deleted) per update request",
         "--max-rows", "max_rows", "N"),
    Knob("REPRO_SERVE_DEADLINE", _number(positive=False), 0.0,
         "queue-residence deadline: updates still queued past it are "
         "shed with 503 before folding; 0 = never",
         "--deadline", "deadline", "SECONDS"),
    Knob("REPRO_SERVE_BREAKER", _count(1), 5,
         "consecutive fold/WAL failures before a session's circuit "
         "breaker opens", "--breaker", "breaker", "K"),
    Knob("REPRO_SERVE_COOLDOWN", _number(positive=True), 1.0,
         "open-breaker cool-down before the half-open probe",
         "--cooldown", "cooldown", "SECONDS"),
    Knob("REPRO_SERVE_MAX_BODY", _count(1), 8 * 1024 * 1024,
         "request body cap in bytes before 413",
         "--max-body", "max_body", "BYTES"),
    Knob("REPRO_SERVE_SCRUB", _number(positive=False), 0.0,
         "background integrity-scrub interval; drifted sessions are "
         "quarantined; 0 = off", "--scrub", "scrub", "SECONDS"),
    Knob("REPRO_SERVE_SCRUB_SAMPLE", _count(1), 64,
         "sampled keys per scrub verify",
         "--scrub-sample", "scrub_sample", "N"),
)

#: every knob by name, in the README's order
KNOBS = {knob.name: knob for knob in _KNOBS}


def resolve(name: str, override=None):
    """The value of knob ``name``: ``override`` if given, else its
    non-empty environment value, else its default — parsed and checked
    by the knob's row either way."""
    knob = KNOBS[name]
    if override is None:
        override = os.environ.get(name)
        if override is None or (override == "" and knob.blank_is_default):
            return knob.default
    return knob.parse(name, override)
