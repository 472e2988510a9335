"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``check``
    Centralized detection over a CSV file: load the data, evaluate the
    CFDs, print the violation summary.  Exit code 1 when violations exist
    (so the command slots into data-quality CI gates).

``detect``
    Distributed detection: partition the CSV across simulated sites and
    run one of the Section IV algorithms, reporting violations, tuples
    shipped and the simulated response time.  ``--updates FRAC`` keeps
    the session alive afterwards: a synthetic batch of ``FRAC·|D|``
    updated rows hits the largest site and is absorbed incrementally —
    only the coded delta of the affected (X, A) combinations ships
    (:mod:`repro.detect.incremental`; ``clust`` runs a resident
    CLUSTDETECT session over the whole Σ).  ``--update-kind`` picks the
    batch composition (``insert`` / ``delete`` / ``mixed``) so the
    delete path is exercisable, not just appends.

``sql``
    Print the SQL detection queries of [2] for a CFD: the statements the
    ``sql`` engine runs, one per normal form, with the pattern values
    inlined as literals (runnable as printed on sqlite3; see
    ``repro.core.sql``).

``datagen``
    Generate an evaluation workload with known ground truth.  ``repro
    datagen tpch`` writes the 8-table TPC-H instance at ``--sf`` with
    per-table CFD families, seeded violation injection at ``--ratio``,
    and a ``manifest.json`` recording the exact expected violation
    counts per family (:mod:`repro.datagen.tpch`).

``figures``
    Regenerate the paper's Figure 3 experiments (all or a subset).

Environment knobs honoured by every command: ``REPRO_ENGINE`` (detection
backend; unknown values abort with exit code 2; ``check``/``detect``
accept a scoped ``--engine`` override), ``REPRO_FAULTS``
(deterministic disk/serve fault injection),
``REPRO_SCALE`` (dataset scale) — see the README's table.  Every knob
is a row of :mod:`repro.knobs`; malformed values abort with exit code 2
before any data is loaded, and ``repro serve`` takes the ``REPRO_SERVE_*``
rows as flags too.

CFDs are given in the paper notation accepted by
:func:`repro.core.parse_cfd`, e.g. ``"([CC=44, zip] -> [street])"``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from .core import CFD, ENGINES, detect_violations, parse_cfd
from .core.sql import violation_sql
from .detect import (
    clust_detect,
    ctr_detect,
    naive_detect,
    pat_detect_rt,
    pat_detect_s,
    seq_detect,
)
from .knobs import KNOBS, resolve
from .relational import infer_column_types, load_csv

#: the knobs ``repro serve`` also takes as flags
SERVE_KNOBS = [knob for knob in KNOBS.values() if knob.flag]


@contextmanager
def _env_override(name: str, value: object | None) -> Iterator[None]:
    """Set ``name`` for the duration of one command, then restore it.

    Scoped to the command: embedders calling :func:`main` must not find
    the environment silently changed afterwards.  ``None`` means "leave
    the environment alone".
    """
    if value is None:
        yield
        return
    previous = os.environ.get(name)
    os.environ[name] = str(value)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def _load_cfds(texts: Sequence[str]) -> list[CFD]:
    return [
        parse_cfd(text, name=f"cfd{i + 1}") for i, text in enumerate(texts)
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CFD violation detection in distributed data "
            "(Fan, Geerts, Ma, Müller; ICDE 2010)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="centralized detection on a CSV")
    check.add_argument("--data", required=True, help="CSV file with a header row")
    check.add_argument(
        "--cfd", action="append", required=True,
        help="a CFD in paper notation; repeatable",
    )
    check.add_argument(
        "--key", default=None, help="key column (default: first column)"
    )
    check.add_argument(
        "--engine", choices=ENGINES + ("auto",), default=None,
        help="detection engine for this run (overrides REPRO_ENGINE)",
    )

    detect = commands.add_parser(
        "detect",
        help="distributed detection on a CSV (simulated sites, Section IV)",
    )
    detect.add_argument("--data", required=True, help="CSV file with a header row")
    detect.add_argument(
        "--cfd", action="append", required=True,
        help="a CFD in paper notation; repeatable",
    )
    detect.add_argument(
        "--key", default=None, help="key column (default: first column)"
    )
    detect.add_argument(
        "--sites", type=int, default=4, help="number of simulated sites"
    )
    detect.add_argument(
        "--partition-by", default=None, metavar="ATTR",
        help="fragment by attribute value instead of uniformly",
    )
    detect.add_argument(
        "--algorithm",
        choices=["ctr", "pat-s", "pat-rt", "seq", "clust", "naive"],
        default="pat-rt",
        help="Section IV algorithm (default pat-rt: per-pattern "
        "coordinators minimizing response time)",
    )
    detect.add_argument(
        "--engine", choices=ENGINES + ("auto",), default=None,
        help="per-fragment detection engine for this run (overrides "
        "REPRO_ENGINE; 'sql' runs each scan on sqlite3)",
    )
    detect.add_argument(
        "--updates", type=float, default=None, metavar="FRAC",
        help="after the initial run, apply a synthetic update batch of "
        "|ΔD| = FRAC·|D| rows to the largest site and absorb it "
        "incrementally — only the coded delta ships (algorithms ctr, "
        "pat-s, pat-rt, clust)",
    )
    detect.add_argument(
        "--update-kind",
        choices=["insert", "delete", "mixed"],
        default="mixed",
        help="composition of the --updates batch: pure inserts, pure "
        "deletes (exercising the delete path), or half deletes / half "
        "mutated re-inserts (default)",
    )

    sql = commands.add_parser("sql", help="print the detection SQL for a CFD")
    sql.add_argument("--cfd", action="append", required=True)
    sql.add_argument("--table", default="D")

    datagen = commands.add_parser(
        "datagen",
        help="generate an evaluation workload with a ground-truth "
        "violation manifest",
    )
    datagen.add_argument(
        "workload", choices=["tpch"],
        help="workload family (tpch: 8 tables, per-table CFD families, "
        "seeded injection)",
    )
    datagen.add_argument(
        "--sf", type=float, default=0.01, metavar="SCALE",
        help="TPC-H scale factor (default 0.01; 1.0 is the full 6M-row "
        "lineitem)",
    )
    datagen.add_argument(
        "--seed", type=int, default=7, help="generation seed (default 7)"
    )
    datagen.add_argument(
        "--ratio", type=float, default=0.02,
        help="violation injection ratio per CFD family (default 0.02)",
    )
    datagen.add_argument(
        "--out", default="tpch-data",
        help="output directory for the CSVs and manifest.json "
        "(default tpch-data)",
    )

    figures = commands.add_parser(
        "figures", help="regenerate the paper's Figure 3 experiments"
    )
    figures.add_argument(
        "--only", action="append", default=None,
        help="figure ids (fig3a..fig3i); repeatable; default all",
    )
    figures.add_argument("--out", default="results")

    serve = commands.add_parser(
        "serve",
        help="run the resident multi-tenant detection service (threaded "
        "HTTP front end over Incremental* sessions)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8571,
        help="bind port (default 8571; 0 picks a free one)",
    )
    serve.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="durable session store: per-session write-ahead log + "
        "atomic snapshots under DIR, with WAL replay recovery on "
        "startup (default: memory only)",
    )
    for knob in SERVE_KNOBS:
        serve.add_argument(
            knob.flag, dest=knob.keyword, type=type(knob.default),
            default=None, metavar=knob.metavar,
            help=f"{knob.doc} (default {knob.name} or {knob.default})",
        )
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    relation = infer_column_types(
        load_csv(args.data, key=[args.key] if args.key else None)
    )
    cfds = _load_cfds(args.cfd)
    with _env_override("REPRO_ENGINE", args.engine):
        report = detect_violations(relation, cfds)
    print(f"{len(relation)} tuples, {len(cfds)} CFD(s)")
    print(report.summary())
    if report.tuple_keys:
        shown = sorted(report.tuple_keys)[:20]
        print(f"violating tuple keys ({len(report.tuple_keys)}): {shown}")
    return 1 if report else 0


def _cmd_detect(args: argparse.Namespace) -> int:
    with _env_override("REPRO_ENGINE", args.engine):
        return _run_detect(args)


def _run_detect(args: argparse.Namespace) -> int:
    from .partition import partition_by_attribute, partition_uniform

    relation = infer_column_types(
        load_csv(args.data, key=[args.key] if args.key else None)
    )
    cfds = _load_cfds(args.cfd)
    if args.partition_by:
        cluster = partition_by_attribute(relation, args.partition_by)
    else:
        cluster = partition_uniform(relation, args.sites)
    print(f"{cluster!r}")

    if args.updates is not None:
        return _run_incremental_detect(args, cluster, cfds)

    if args.algorithm in {"ctr", "pat-s", "pat-rt"}:
        single = {"ctr": ctr_detect, "pat-s": pat_detect_s, "pat-rt": pat_detect_rt}[
            args.algorithm
        ]
        outcome = None
        for cfd in cfds:
            part = single(cluster, cfd)
            outcome = part if outcome is None else _merge(outcome, part)
    elif args.algorithm == "seq":
        outcome = seq_detect(cluster, cfds)
    elif args.algorithm == "clust":
        outcome = clust_detect(cluster, cfds)
    else:
        outcome = naive_detect(cluster, cfds)

    print(outcome.report.summary())
    print(
        f"tuples shipped: {outcome.tuples_shipped} "
        f"({outcome.shipments.codes_shipped} dictionary codes on the wire); "
        f"simulated response time: {outcome.response_time:.3f}s"
    )
    return 1 if outcome.report else 0


def _merge(a, b):
    a.report.merge(b.report)
    a.shipments.merge(b.shipments)
    a.cost.stages.extend(b.cost.stages)
    return a


def _synthetic_update_batch(cluster, cfds, fraction: float, kind: str):
    """The seeded synthetic batch ``detect --updates`` absorbs.

    ``kind`` picks the composition: ``mixed`` (half seeded-random
    deletions, half re-inserted with one mutated attribute), ``insert``
    (all-new mutated rows under fresh keys) or ``delete`` (pure
    deletions — the delete path).  Returns ``(site, inserted,
    deleted_keys)``.
    """
    import random

    schema = cluster.schema
    key_pos = schema.key_positions()
    # corrupt an attribute the CFDs actually watch (the first CFD's RHS)
    # so the synthetic batch genuinely moves violations both ways
    mutate_attr = next(
        (a for a in cfds[0].rhs if a in schema),
        schema.attributes[-1],
    )
    mutate_pos = schema.position(mutate_attr)
    if mutate_pos in key_pos:
        non_key = [p for p in range(len(schema)) if p not in key_pos]
        # an all-key schema has nothing else to corrupt; the fresh key
        # values below already make such inserts distinct rows
        mutate_pos = non_key[0] if non_key else mutate_pos
    # largest site, ties to the highest index — the max-stat strategies
    # break ties low, so the updated site is usually not its own
    # coordinator and the coded delta actually crosses the wire
    site = max(
        range(cluster.n_sites),
        key=lambda i: (len(cluster.sites[i].fragment), i),
    )
    fragment = cluster.sites[site].fragment
    batch = max(2, int(cluster.total_tuples() * fraction))
    rng = random.Random(8)
    n_victims = batch if kind in ("insert", "delete") else batch // 2
    victims = rng.sample(fragment.rows, min(len(fragment.rows), n_victims))
    doomed = [tuple(row[p] for p in key_pos) for row in victims]
    inserted = []
    for i, row in enumerate(victims):
        row = list(row)
        for offset, p in enumerate(key_pos):
            row[p] = f"u{i}.{offset}"
        row[mutate_pos] = f"{row[mutate_pos]}~"
        inserted.append(tuple(row))
    if kind == "insert":
        return site, inserted, []
    if kind == "delete":
        return site, [], doomed
    return site, inserted, doomed


def _run_incremental_detect(args: argparse.Namespace, cluster, cfds) -> int:
    """``detect --updates``: absorb a synthetic batch through a delta session.

    For the single-CFD algorithms one
    :class:`~repro.detect.incremental.IncrementalHorizontalDetector` per
    CFD runs the initial one-shot detection; ``clust`` runs one
    :class:`~repro.detect.clust.IncrementalClustDetector` session over
    the whole set Σ.  Then the largest site takes a batch of
    ``|ΔD| = FRAC·|D|`` rows (composition via ``--update-kind``) and the
    session absorbs it by shipping only the coded delta.
    """
    from .detect import IncrementalClustDetector, IncrementalHorizontalDetector

    if args.algorithm not in ("ctr", "pat-s", "pat-rt", "clust"):
        print(
            f"error: --updates supports algorithms ctr, pat-s, pat-rt and "
            f"clust, not {args.algorithm!r}",
            file=sys.stderr,
        )
        return 2
    if not 0 < args.updates <= 1:
        print(
            "error: --updates expects a batch fraction in (0, 1]",
            file=sys.stderr,
        )
        return 2

    site, inserted, doomed = _synthetic_update_batch(
        cluster, cfds, args.updates, args.update_kind
    )
    delta_rows = len(inserted) + len(doomed)

    if args.algorithm == "clust":
        sessions = [(None, IncrementalClustDetector(cluster, cfds))]
    else:
        sessions = [
            (cfd, IncrementalHorizontalDetector(cluster, cfd, args.algorithm))
            for cfd in cfds
        ]

    exit_code = 0
    for cfd, detector in sessions:
        label = cfd.name if cfd is not None else "Σ (clustered)"
        initial = detector.detect()
        print(
            f"{label}: initial "
            f"{initial.report.summary().splitlines()[0] if initial.report else 'no violations'}"
        )
        print(
            f"  initial run: {initial.tuples_shipped} tuples shipped "
            f"({initial.shipments.codes_shipped} codes), "
            f"response {initial.response_time:.3f}s"
        )
        update = detector.update(site, inserted=inserted, deleted=doomed)
        print(
            f"  update |ΔD|={delta_rows} rows ({args.update_kind}) at site "
            f"{cluster.sites[site].name}: +{len(update.delta.added)} / "
            f"-{len(update.delta.removed)} violations, "
            f"{update.shipments.codes_shipped} delta codes shipped, "
            f"response {update.response_time:.3f}s"
        )
        violations, _keys = detector.report_size()
        if violations:
            exit_code = 1
    return exit_code


def _cmd_sql(args: argparse.Namespace) -> int:
    for text in args.cfd:
        cfd = parse_cfd(text)
        print(f"-- {text}")
        for query in violation_sql(cfd, args.table):
            print(query + ";")
    return 0


def _cmd_datagen(args: argparse.Namespace) -> int:
    from .datagen import write_tpch

    manifest = write_tpch(
        args.out, scale_factor=args.sf, seed=args.seed, ratio=args.ratio
    )
    total_rows = sum(
        entry["rows"] for entry in manifest["tables"].values()
    )
    total_violations = sum(
        stats["expected_violations"]
        for entry in manifest["tables"].values()
        for stats in entry["families"].values()
    )
    print(
        f"tpch sf={manifest['scale_factor']} seed={manifest['seed']} "
        f"ratio={manifest['ratio']}: {len(manifest['tables'])} tables, "
        f"{total_rows} rows, {total_violations} expected violations "
        f"-> {args.out}/"
    )
    for table, entry in manifest["tables"].items():
        families = ", ".join(
            f"{name}={stats['expected_violations']}"
            for name, stats in entry["families"].items()
        )
        print(f"  {table}: {entry['rows']} rows ({families})")
    print(f"[manifest written to {args.out}/manifest.json]")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments import ALL_FIGURES

    wanted = args.only or list(ALL_FIGURES)
    unknown = [name for name in wanted if name not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {unknown}", file=sys.stderr)
        return 2
    for name in wanted:
        result = ALL_FIGURES[name]()
        result.save(args.out)
        print(result.table())
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import DetectionService, serve_http

    overrides = {
        knob.keyword: getattr(args, knob.keyword) for knob in SERVE_KNOBS
    }
    http_overrides = {
        keyword: overrides.pop(keyword) for keyword in ("timeout", "max_body")
    }
    try:
        # env knobs were validated before dispatch; flag overrides resolve
        # here and get the same fail-loudly exit 2, not a traceback
        service = DetectionService(data_dir=args.data_dir, **overrides)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        server = serve_http(
            service, host=args.host, port=args.port, **http_overrides
        )
    except ValueError as error:
        service.close()
        print(f"error: {error}", file=sys.stderr)
        return 2
    host, port = server.server_address
    registry = service.registry
    governor = service.governor
    governed = ""
    if governor.rate or governor.tenant_sessions or governor.deadline:
        governed = (
            f", rate={governor.rate:g}/s, "
            f"tenant_sessions={governor.tenant_sessions}, "
            f"deadline={governor.deadline:g}s"
        )
    if service.scrubber.interval:
        governed += f", scrub={service.scrubber.interval:g}s"
    durable = ""
    if registry.store is not None:
        durable = (
            f", data_dir={registry.store.root}, "
            f"fsync={registry.store.fsync}, "
            f"checkpoint={registry.store.checkpoint_every}, "
            f"recovered={service.recovered}"
        )
    print(
        f"repro serve listening on http://{host}:{port} "
        f"(max_sessions={registry.max_sessions}, "
        f"queue={registry.queue_depth}, coalesce={registry.coalesce}"
        f"{governed}{durable})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        server.server_close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        # every knob fails loudly before any data is loaded, not as a
        # mid-detection traceback (or a server that boots misconfigured)
        for name in KNOBS:
            resolve(name)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    args = _build_parser().parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "detect": _cmd_detect,
        "sql": _cmd_sql,
        "datagen": _cmd_datagen,
        "figures": _cmd_figures,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
