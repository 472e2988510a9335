"""One statement of "a resident session's seed is its family's one-shot run".

Every distributed session (CTRDETECT, PATDETECTS, PATDETECTRT,
CLUSTDETECT, hybrid, vertical) seeds itself by calling the same step
function its one-shot detector runs, so its :meth:`detect` outcome must
equal the one-shot outcome on everything a run reports — not just the
violations.
"""


def _events(log):
    return [
        (e.dest, e.src, e.n_tuples, e.n_cells, e.tag, e.n_codes)
        for e in log.events
    ]


def _stages(outcome):
    return [(s.scan, s.transfer, s.check) for s in outcome.cost.stages]


def assert_seed_equals_one_shot(initial, one_shot):
    """``initial`` — a session's :meth:`detect` outcome, taken before any
    update (its log and cost are the session's live ones) — equals the
    one-shot ``one_shot`` on violations, tuple keys, every stage's
    ``(scan, transfer, check)``, control messages, every shipment event
    in order, and ``details`` (less the session's ``"incremental"``)."""
    assert initial.report.violations == one_shot.report.violations
    assert initial.report.tuple_keys == one_shot.report.tuple_keys
    assert _stages(initial) == _stages(one_shot)
    assert (
        initial.shipments.control_messages
        == one_shot.shipments.control_messages
    )
    assert _events(initial.shipments) == _events(one_shot.shipments)
    details = dict(initial.details)
    assert details.pop("incremental") is True
    assert details == one_shot.details
