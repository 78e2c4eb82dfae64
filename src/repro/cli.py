"""Command-line interface: a compliance archive in a single journal file.

Usage (also available as ``python -m repro``)::

    repro-search init    --archive records.worm [--num-lists N]
                         [--branching B] [--retention PERIOD] [--shards K]
                         [--tail-max-docs N] [--seal-strategy uniform|popular|epoch]
                         [--seal-popular K] [--merge-at N]
    repro-search index   --archive records.worm --text "..." [--text "..."]
    repro-search index   --archive records.worm file1.txt ... [--batch-size N]
    repro-search search  --archive records.worm "stewart waksal" [--top-k K]
                         [--verify] [--executor thread|process] [--trace]
                         [--read-cache] [--cache-policy lru|2q|slru]
                         [--cache-mb MB] [--repeat N]
                         [--metrics-json out.json]
    repro-search audit   --archive records.worm
    repro-search stats   --archive records.worm
    repro-search metrics --archive records.worm [--json out.json]
    repro-search profile --archive records.worm "+a +b +c" --query-file log.txt
    repro-search dispose --archive records.worm --now TIME
                         [--fsync] [--group-commit N]
    repro-search verify-journal --archive records.worm
    repro-search segments --archive records.worm [--seal] [--merge]
    repro-search serve   --archive records.worm [--host H] [--port P]
                         [--rate R] [--burst B] [--max-inflight N]
                         [--max-queue Q] [--fsync] [--group-commit N]
                         [--seal-interval S]
    repro-search loadtest [--clients N] [--duration S] [--mix F]
                          [--arrival-rate R] [--seed S] [--shards K]
                          [--tail-max-docs N]
                          [--endpoint http://HOST:PORT]
                          [--out BENCH_LOADTEST.json] [--compare BASELINE]
    repro-search capacity --snapshot BENCH_LOADTEST.json
                          --target-qps QPS --target-p99-ms MS

The archive is one append-only journal file holding the entire WORM
device: documents, posting lists, jump pointers, commit-time log,
incident and disposition logs.  The engine configuration is committed
into the archive at ``init`` time (it shapes committed state, so it must
not drift between sessions).

With ``init --shards K`` (K > 1) the archive is partitioned: the main
journal becomes the coordinator (configuration, global document map,
global incident log) and each shard lives in a sibling journal
``records.worm.shard00`` … ``records.worm.shard{K-1}``.  Every other
subcommand detects the sharded layout from the committed configuration;
queries fan out across the shards in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional

from repro.errors import ReproError, TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding.engine import ShardedSearchEngine
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore

_CONFIG_FILE = "archive/config"


def _shard_path(path: str, shard_id: int) -> str:
    return f"{path}.shard{shard_id:02d}"


def _write_config(
    store: CachedWormStore, config: EngineConfig, shards: int
) -> None:
    payload = json.dumps(
        {
            "num_lists": config.num_lists,
            "block_size": config.block_size,
            "branching": config.branching,
            "ranking": config.ranking,
            "retention_period": config.retention_period,
            "shards": shards,
            "tail_max_docs": config.tail_max_docs,
            "seal_strategy": config.seal_strategy,
            "seal_popular_terms": config.seal_popular_terms,
            "merge_at_segments": config.merge_at_segments,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    store.create_file(_CONFIG_FILE).append_record(payload)


def _read_config(store: CachedWormStore):
    worm_file = store.open_file(_CONFIG_FILE)
    payload = b"".join(
        store.peek_block(_CONFIG_FILE, b) for b in range(worm_file.num_blocks)
    )
    data = json.loads(payload.decode("utf-8"))
    config = EngineConfig(
        num_lists=data["num_lists"],
        block_size=data["block_size"],
        branching=data["branching"],
        ranking=data["ranking"],
        retention_period=data["retention_period"],
        # Tail-mode fields postdate some archives; absent keys mean the
        # archive was built legacy-synchronous (tail disabled).
        tail_max_docs=data.get("tail_max_docs"),
        seal_strategy=data.get("seal_strategy", "uniform"),
        seal_popular_terms=data.get("seal_popular_terms", 8),
        merge_at_segments=data.get("merge_at_segments", 8),
    )
    return config, data.get("shards", 1)


class _ArchiveHandle:
    """Closer for a sharded archive: engine pool plus every journal."""

    def __init__(self, devices, engine):
        self._devices = devices
        self._engine = engine

    def close(self) -> None:
        self._engine.close()
        for device in self._devices:
            device.close()


def open_archive(
    path: str,
    *,
    create: Optional[EngineConfig] = None,
    shards: int = 1,
    batch_size: int = 64,
    fsync: bool = False,
    group_commit: int = 1,
    read_cache: bool = False,
    cache_policy: str = "lru",
    cache_mb: float = 8.0,
    executor: str = "thread",
):
    """Open (or with ``create``, initialize) an archive at ``path``.

    Returns ``(engine, handle)``; call ``handle.close()`` when done.
    ``shards`` only applies at ``create`` time — reopening reads the
    shard count from the committed configuration.  ``fsync`` /
    ``group_commit`` are per-session durability knobs applied to every
    journal the archive opens (coordinator and shards alike);
    ``read_cache`` / ``cache_policy`` / ``cache_mb`` likewise enable the
    session-scoped read-path cache (per shard on a sharded archive) —
    none of these is persisted, because none shapes committed state.
    ``executor`` selects the query fan-out of a sharded archive:
    ``"thread"`` (default) or ``"process"`` (per-shard worker processes
    reopening the shard journals; also a session knob).
    """
    device = JournaledWormDevice(path, fsync=fsync, group_commit=group_commit)
    store = CachedWormStore(None, device=device)
    if create is not None:
        if device.exists(_CONFIG_FILE):
            raise ReproError(f"archive '{path}' is already initialized")
        _write_config(store, create, shards)
        config = create
    else:
        if not device.exists(_CONFIG_FILE):
            raise ReproError(
                f"'{path}' is not an initialized archive (run 'init' first)"
            )
        config, shards = _read_config(store)
    if read_cache:
        config = replace(
            config,
            read_cache=True,
            cache_policy=cache_policy,
            read_cache_mb=cache_mb,
        )
    if shards <= 1:
        if executor == "process":
            raise ReproError(
                "executor='process' needs a sharded archive "
                "(init with --shards >= 2)"
            )
        engine = TrustworthySearchEngine(config, store=store)
        return engine, device
    devices = [device]

    def shard_store(shard_id: int) -> CachedWormStore:
        shard_device = JournaledWormDevice(
            _shard_path(path, shard_id),
            fsync=fsync,
            group_commit=group_commit,
        )
        devices.append(shard_device)
        return CachedWormStore(None, device=shard_device)

    engine = ShardedSearchEngine(
        config,
        num_shards=shards,
        store_factory=shard_store,
        coordinator_store=store,
        batch_size=batch_size,
        executor=executor,
        shard_paths=[_shard_path(path, i) for i in range(shards)],
    )
    return engine, _ArchiveHandle(devices, engine)


def _write_metrics_json(engine, path: str, traces=()) -> None:
    """Write one stable ``repro-metrics/v1`` JSON snapshot to ``path``."""
    from repro.observability import metrics_document

    doc = metrics_document(engine, traces=traces)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_init(args) -> int:
    if args.shards < 1:
        print(f"--shards must be >= 1 (got {args.shards})", file=sys.stderr)
        return 2
    config = EngineConfig(
        num_lists=args.num_lists,
        block_size=args.block_size,
        branching=args.branching,
        retention_period=args.retention,
        tail_max_docs=args.tail_max_docs or None,
        seal_strategy=args.seal_strategy,
        seal_popular_terms=args.seal_popular,
        merge_at_segments=args.merge_at or None,
    )
    engine, handle = open_archive(
        args.archive, create=config, shards=args.shards
    )
    handle.close()
    jump = f"B={config.branching}" if config.branching else "disabled"
    layout = (
        f", {args.shards} shards" if args.shards > 1 else ""
    )
    tail = (
        f", tail seals at {config.tail_max_docs} docs "
        f"({config.seal_strategy})"
        if config.tail_max_docs is not None
        else ""
    )
    print(
        f"initialized archive '{args.archive}': {config.num_lists} merged "
        f"lists, {config.block_size} B blocks, jump index {jump}, "
        f"retention {config.retention_period or 'forever'}{layout}{tail}"
    )
    return 0


def _cmd_index(args) -> int:
    engine, archive = open_archive(
        args.archive,
        batch_size=args.batch_size,
        fsync=args.fsync,
        group_commit=args.group_commit,
    )
    try:
        texts: List[str] = list(args.text or [])
        for file_name in args.files:
            try:
                with open(file_name, "r", encoding="utf-8") as handle:
                    texts.append(handle.read())
            except OSError as exc:
                print(f"cannot read '{file_name}': {exc}", file=sys.stderr)
                return 2
        if not texts:
            print("nothing to index: pass --text or file paths", file=sys.stderr)
            return 2
        if args.commit_time is not None and len(texts) > 1:
            print(
                "--commit-time requires a single document", file=sys.stderr
            )
            return 2
        for start in range(0, len(texts), args.batch_size):
            batch = texts[start:start + args.batch_size]
            commit_times = (
                None if args.commit_time is None else [args.commit_time]
            )
            doc_ids = engine.index_batch(batch, commit_times=commit_times)
            for doc_id, text in zip(doc_ids, batch):
                preview = " ".join(text.split())[:60]
                print(f"committed doc {doc_id}: {preview}")
        if args.metrics_json:
            _write_metrics_json(engine, args.metrics_json)
            print(f"wrote metrics snapshot to {args.metrics_json}")
        return 0
    finally:
        archive.close()


def _cmd_search(args) -> int:
    if args.cache_mb <= 0:
        print(f"--cache-mb must be positive (got {args.cache_mb})", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print(f"--repeat must be >= 1 (got {args.repeat})", file=sys.stderr)
        return 2
    engine, archive = open_archive(
        args.archive,
        read_cache=args.read_cache,
        cache_policy=args.cache_policy,
        cache_mb=args.cache_mb,
        executor=args.executor,
    )
    want_trace = args.trace or args.metrics_json
    trace = None
    try:
        try:
            # --repeat re-runs the query in one session; with
            # --read-cache the later runs hit the result cache, which is
            # what the printed (last-run) trace demonstrates.
            for _ in range(args.repeat):
                if want_trace:
                    from repro.observability import QueryTrace

                    trace = QueryTrace(args.query)
                if args.verify:
                    results, report = engine.search_with_incident_handling(
                        args.query, top_k=args.top_k, trace=trace
                    )
                    if not report.ok:
                        print(
                            f"WARNING: tampering detected and handled "
                            f"({len(report.violations)} violations logged)",
                            file=sys.stderr,
                        )
                else:
                    results = engine.search(
                        args.query, top_k=args.top_k, trace=trace
                    )
        except TamperDetectedError as exc:
            print(f"TAMPERING DETECTED: {exc}", file=sys.stderr)
            return 3
        if results:
            for hit in results:
                doc = engine.documents.get(hit.doc_id)
                preview = " ".join(doc.text.split())[:70]
                print(f"doc {hit.doc_id}  score {hit.score:6.2f}  t={doc.commit_time}  {preview}")
        else:
            print("no results")
        if args.trace and trace is not None:
            print(trace.pretty())
        if args.metrics_json:
            _write_metrics_json(
                engine, args.metrics_json, traces=[trace] if trace else []
            )
            print(f"wrote metrics snapshot to {args.metrics_json}")
        return 0
    finally:
        archive.close()


def _cmd_metrics(args) -> int:
    """Render the archive's metrics (Prometheus text, optionally JSON)."""
    from repro.observability import engine_metrics

    engine, archive = open_archive(args.archive)
    try:
        registry = engine_metrics(engine)
        if args.json:
            _write_metrics_json(engine, args.json)
            print(f"wrote metrics snapshot to {args.json}", file=sys.stderr)
        sys.stdout.write(registry.render_prometheus())
        return 0
    finally:
        archive.close()


def _cmd_audit(args) -> int:
    from repro.adversary.detection import full_engine_audit, full_sharded_audit

    engine, archive = open_archive(args.archive)
    try:
        if isinstance(engine, ShardedSearchEngine):
            reports = full_sharded_audit(engine)
        else:
            reports = full_engine_audit(engine)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(
                    [r.to_dict() for r in reports], handle, indent=2
                )
            print(f"wrote {len(reports)} audit reports to {args.json}")
        bad = [r for r in reports if not r.ok]
        checked = sum(r.entries_checked for r in reports)
        print(
            f"audited {len(reports)} subjects ({checked} entries): "
            f"{len(bad)} with violations"
        )
        for report in bad:
            print(f"  {report.subject}:")
            for violation in report.violations:
                print(f"    - {violation}")
        incident_count = len(engine.incidents)
        if incident_count:
            print(f"incident log: {incident_count} recorded incidents")
            for incident in engine.incidents.incidents():
                print(
                    f"  #{incident.seq} [{incident.kind}] {incident.location} "
                    f"quarantined={list(incident.quarantined_doc_ids)}"
                )
        return 1 if bad else 0
    finally:
        archive.close()


def _cmd_stats(args) -> int:
    engine, archive = open_archive(args.archive)
    try:
        stats = engine.archive_stats()
        width = max(len(k) for k in stats)
        for key, value in stats.items():
            print(f"{key.rjust(width)}  {value}")
        return 0
    finally:
        archive.close()


def _cmd_profile(args) -> int:
    from repro.search.profiling import (
        profile_query,
        profile_sharded_query,
        recommend_configuration,
    )

    engine, archive = open_archive(args.archive)
    try:
        queries: List[str] = list(args.query or [])
        if args.query_file:
            try:
                with open(args.query_file, "r", encoding="utf-8") as handle:
                    queries.extend(
                        line.strip() for line in handle if line.strip()
                    )
            except OSError as exc:
                print(
                    f"cannot read '{args.query_file}': {exc}", file=sys.stderr
                )
                return 2
        if not queries:
            print("nothing to profile: pass queries or --query-file", file=sys.stderr)
            return 2
        sharded = isinstance(engine, ShardedSearchEngine)
        profiles = []
        for raw in queries:
            if sharded:
                profile = profile_sharded_query(engine, raw)
            else:
                profile = profile_query(engine, raw)
            profiles.append(profile)
            print(profile.summary())
        print()
        print(recommend_configuration(profiles))
        return 0
    finally:
        archive.close()


def _cmd_verify_journal(args) -> int:
    """fsck for the archive: scan every journal without applying state.

    Works even on archives too corrupt to open — scanning checks
    framing, CRCs, sequence numbers, and opcodes record by record.
    """
    from repro.worm.persistent import scan_journal

    if not os.path.exists(args.archive):
        print(f"no archive at '{args.archive}'", file=sys.stderr)
        return 2
    paths = [args.archive]
    shard_id = 0
    while os.path.exists(_shard_path(args.archive, shard_id)):
        paths.append(_shard_path(args.archive, shard_id))
        shard_id += 1
    tampered = 0
    for path in paths:
        report = scan_journal(path)
        print(report.summary())
        if not report.ok:
            tampered += 1
    scanned = "journal" if len(paths) == 1 else f"{len(paths)} journals"
    if tampered:
        print(
            f"verified {scanned}: {tampered} TAMPERED", file=sys.stderr
        )
        return 1
    print(f"verified {scanned}: clean")
    return 0


def _cmd_loadtest(args) -> int:
    """Run the whole-system load harness against an ephemeral archive."""
    from repro.loadtest import (
        LoadTestConfig,
        compare_snapshots,
        read_snapshot,
        run_load_test,
    )
    from repro.loadtest.snapshot import snapshot_document, write_snapshot
    from repro.observability import export_loadtest

    if args.clients < 1:
        print(f"--clients must be >= 1 (got {args.clients})", file=sys.stderr)
        return 2
    if args.duration <= 0:
        print(f"--duration must be positive (got {args.duration})", file=sys.stderr)
        return 2
    if not 0.0 <= args.mix <= 1.0:
        print(f"--mix must be in [0, 1] (got {args.mix})", file=sys.stderr)
        return 2
    if args.arrival_rate is not None and args.arrival_rate <= 0:
        print(
            f"--arrival-rate must be positive (got {args.arrival_rate})",
            file=sys.stderr,
        )
        return 2
    if args.shards < 1:
        print(f"--shards must be >= 1 (got {args.shards})", file=sys.stderr)
        return 2
    if args.docs < 1:
        print(f"--docs must be >= 1 (got {args.docs})", file=sys.stderr)
        return 2
    config = LoadTestConfig(
        clients=args.clients,
        duration=args.duration,
        mix=args.mix,
        arrival_rate=args.arrival_rate,
        seed=args.seed,
        preload_docs=args.docs,
        drift_stride=args.drift,
    )
    if args.endpoint:
        # Drive a running archive service over HTTP: same deterministic
        # plan, but latency now includes the wire, admission control,
        # and the service's own reader-writer serialisation.
        from repro.loadtest.transport import HTTPTransport

        transport = HTTPTransport(args.endpoint)
        try:
            result = run_load_test(transport, config)
        finally:
            transport.close()
    elif args.executor == "process":
        # Process workers reopen the shard journals in their own
        # interpreters, so the ephemeral archive must be file-backed:
        # build it in a temp directory that dies with the run.
        import tempfile

        if args.shards < 2:
            print(
                "--executor process needs --shards >= 2",
                file=sys.stderr,
            )
            return 2
        engine_config = EngineConfig(
            num_lists=256,
            block_size=4096,
            branching=None,
            tail_max_docs=args.tail_max_docs or None,
        )
        with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tmp:
            engine, archive = open_archive(
                os.path.join(tmp, "archive.worm"),
                create=engine_config,
                shards=args.shards,
                executor="process",
            )
            try:
                result = run_load_test(engine, config)
                export_loadtest(engine.metrics, result)
            finally:
                archive.close()
    else:
        # An ephemeral in-memory archive: the harness measures the
        # engine, not a disk layout, and every run starts from the same
        # state.
        engine_config = EngineConfig(
            num_lists=256,
            block_size=4096,
            branching=None,
            tail_max_docs=args.tail_max_docs or None,
        )
        engine = ShardedSearchEngine(
            engine_config,
            num_shards=args.shards,
        )
        try:
            result = run_load_test(engine, config)
            export_loadtest(engine.metrics, result)
        finally:
            engine.close()
    print(result.summary())
    for message in result.error_messages:
        print(f"  error: {message}", file=sys.stderr)
    if args.out:
        write_snapshot(result, args.out)
        print(f"wrote load-test snapshot to {args.out}")
    if args.compare:
        baseline = read_snapshot(args.compare)
        violations, report = compare_snapshots(
            baseline, snapshot_document(result)
        )
        for line in report:
            print(line)
        if violations:
            print(f"{len(violations)} regression(s) beyond tolerance:")
            for violation in violations:
                print(f"  - {violation}", file=sys.stderr)
            return 1
        print("all banded metrics within tolerance of the baseline")
    return 0


def _cmd_capacity(args) -> int:
    """Predict shards x workers from committed load-test snapshots."""
    from repro.core.cost_model import predict_capacity
    from repro.loadtest import read_snapshot

    if args.target_qps <= 0:
        print(
            f"--target-qps must be positive (got {args.target_qps})",
            file=sys.stderr,
        )
        return 2
    if args.target_p99_ms <= 0:
        print(
            f"--target-p99-ms must be positive (got {args.target_p99_ms})",
            file=sys.stderr,
        )
        return 2
    snapshots = [read_snapshot(path) for path in args.snapshot]
    plan = predict_capacity(snapshots, args.target_qps, args.target_p99_ms)
    print(plan.summary())
    return 0


def _cmd_dispose(args) -> int:
    # Disposition-log appends and WORM deletes are exactly the writes
    # that must not be lost; honour the same durability knobs as index.
    engine, archive = open_archive(
        args.archive,
        fsync=args.fsync,
        group_commit=args.group_commit,
    )
    try:
        disposed = engine.dispose_expired(now=args.now)
        if disposed:
            print(f"disposed {len(disposed)} expired documents: {disposed}")
        else:
            print("nothing past its retention horizon")
        return 0
    finally:
        archive.close()


def _print_segment_table(info, indent: str = "") -> None:
    print(
        f"{indent}tail: {info['tail_docs']} docs, "
        f"{info['tail_postings']} postings, "
        f"generation {info['tail_generation']}"
    )
    if not info["segments"]:
        print(f"{indent}no sealed segments")
        return
    print(
        f"{indent}{'seg':>5} {'docs':>12} {'count':>7} "
        f"{'strategy':<8} {'popular':>7} merged-from"
    )
    for seg in info["segments"]:
        merged = (
            ",".join(str(s) for s in seg["merged_from"])
            if seg["merged_from"]
            else "-"
        )
        print(
            f"{indent}{seg['seg_no']:>5} "
            f"{seg['first_doc']:>5}..{seg['last_doc']:<5} "
            f"{seg['doc_count']:>7} {seg['strategy']:<8} "
            f"{seg['popular_terms']:>7} {merged}"
        )


def _cmd_segments(args) -> int:
    """Show — and optionally advance — the tail/segment layout."""
    # Seals and merges append segment lists and manifest records; honour
    # the same durability knobs as index.
    engine, archive = open_archive(
        args.archive, fsync=args.fsync, group_commit=args.group_commit
    )
    try:
        if not getattr(engine, "tail_enabled", False):
            print(
                "archive is not in tail mode (init with --tail-max-docs)",
                file=sys.stderr,
            )
            return 2
        if args.seal:
            sealed = engine.seal_tail()
            print(f"sealed tail into segment(s): {sealed}")
        if args.merge:
            merged = engine.merge_segments()
            print(f"merged live segments into: {merged}")
        info = engine.segments_info()
        if "shards" in info:
            for shard_id, shard_info in enumerate(info["shards"]):
                print(f"shard {shard_id}:")
                _print_segment_table(shard_info, indent="  ")
        else:
            _print_segment_table(info)
        return 0
    finally:
        archive.close()


def _cmd_serve(args) -> int:
    """Run the long-lived archive service until a signal drains it."""
    import signal
    import threading

    from repro.service import AdmissionConfig, ServiceConfig, serve_archive

    if not 0 <= args.port <= 65535:
        print(f"--port must be in [0, 65535] (got {args.port})", file=sys.stderr)
        return 2
    if args.rate < 0:
        print(f"--rate must be >= 0 (got {args.rate})", file=sys.stderr)
        return 2
    if args.seal_interval < 0:
        print(
            f"--seal-interval must be >= 0 (got {args.seal_interval})",
            file=sys.stderr,
        )
        return 2
    config = ServiceConfig(
        admission=AdmissionConfig(
            rate=None if args.rate == 0 else args.rate,
            burst=args.burst,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            queue_timeout=args.queue_timeout,
        ),
        request_timeout=args.request_timeout,
        log_requests=args.log_requests,
        seal_interval=args.seal_interval,
    )
    try:
        server = serve_archive(
            args.archive,
            host=args.host,
            port=args.port,
            config=config,
            fsync=args.fsync,
            group_commit=args.group_commit,
            read_cache=args.read_cache,
            cache_policy=args.cache_policy,
            cache_mb=args.cache_mb,
            executor=args.executor,
        )
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    stop = threading.Event()

    def _trigger_drain(_signum, _frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _trigger_drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    server.start()
    rate = "off" if config.admission.rate is None else (
        f"{config.admission.rate:g}/s (burst {config.admission.burst:g})"
    )
    print(
        f"serving archive '{args.archive}' at {server.endpoint} — "
        f"rate limit {rate}, inflight {config.admission.max_inflight}, "
        f"queue {config.admission.max_queue}; SIGTERM drains"
    )
    sys.stdout.flush()
    try:
        while not stop.wait(timeout=0.2):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("draining: rejecting new work, finishing in-flight requests ...")
    sys.stdout.flush()
    server.drain()
    print("drained: journals synced, archive closed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Trustworthy keyword search over a WORM archive",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="initialize a new archive")
    init.add_argument("--archive", required=True, help="journal file path")
    init.add_argument("--num-lists", type=int, default=1024)
    init.add_argument("--block-size", type=int, default=8192)
    init.add_argument(
        "--branching", type=int, default=32,
        help="jump-index branching factor; 0 disables jump indexes",
    )
    init.add_argument(
        "--retention", type=int, default=None,
        help="retention period in commit-time units (default: forever)",
    )
    init.add_argument(
        "--shards", type=int, default=1,
        help="partition the archive across K parallel shards (default: 1)",
    )
    init.add_argument(
        "--tail-max-docs", type=int, default=0,
        help="enable the write–read decoupled tail: buffer up to N docs "
        "in the in-memory tail before sealing a WORM segment "
        "(default: 0 = legacy synchronous posting-list appends)",
    )
    init.add_argument(
        "--seal-strategy", choices=["uniform", "popular", "epoch"],
        default="uniform",
        help="merging strategy applied when sealing a segment: uniform "
        "hash, keep-popular-unmerged (by tail term counts), or epoch "
        "(popularity from the previous seal) (default: uniform)",
    )
    init.add_argument(
        "--seal-popular", type=int, default=8, metavar="K",
        help="with popular/epoch sealing, terms kept unmerged (default: 8)",
    )
    init.add_argument(
        "--merge-at", type=int, default=8, metavar="N",
        help="auto-merge live segments once N accumulate; 0 disables "
        "background merging (default: 8)",
    )
    init.set_defaults(func=_cmd_init)

    index = sub.add_parser("index", help="commit and index documents")
    index.add_argument("--archive", required=True)
    index.add_argument("--text", action="append", help="inline document text")
    index.add_argument("files", nargs="*", help="text files to commit")
    index.add_argument(
        "--commit-time", type=int, default=None,
        help="explicit commit timestamp (default: engine clock)",
    )
    index.add_argument(
        "--batch-size", type=int, default=64,
        help="documents committed per batched index pass (default: 64)",
    )
    index.add_argument(
        "--fsync", action="store_true",
        help="fsync the journal(s) while indexing (durable but slower)",
    )
    index.add_argument(
        "--group-commit", type=int, default=64,
        help="with --fsync, records per fsync batch (default: 64; "
        "1 = fsync every record)",
    )
    index.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write a metrics snapshot (repro-metrics/v1 JSON) after indexing",
    )
    index.set_defaults(func=_cmd_index)

    search = sub.add_parser(
        "search", aliases=["query"], help="query the archive"
    )
    search.add_argument("--archive", required=True)
    search.add_argument("query", help="keywords; '+a +b' = conjunctive; '@t1..t2' = time range")
    search.add_argument("--top-k", type=int, default=10)
    search.add_argument(
        "--verify", action="store_true",
        help="verify results against WORM documents; quarantine stuffing",
    )
    search.add_argument(
        "--executor", choices=["thread", "process"], default="thread",
        help="sharded query fan-out: 'thread' shares the interpreter, "
        "'process' spawns one worker process per shard (default: thread)",
    )
    search.add_argument(
        "--trace", action="store_true",
        help="print the per-stage query trace (spans with micro-costs)",
    )
    search.add_argument(
        "--read-cache", action="store_true",
        help="enable the session-scoped read-path cache (decoded blocks, "
        "query results, jump-pointer memo)",
    )
    search.add_argument(
        "--cache-policy", choices=["lru", "2q", "slru"], default="lru",
        help="read-cache eviction policy (default: lru)",
    )
    search.add_argument(
        "--cache-mb", type=float, default=8.0,
        help="read-cache decoded-block budget in MB (default: 8)",
    )
    search.add_argument(
        "--repeat", type=int, default=1,
        help="run the query N times in one session (with --read-cache the "
        "later runs are served from the result cache)",
    )
    search.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write a metrics snapshot (with the query trace) after searching",
    )
    search.set_defaults(func=_cmd_search)

    audit = sub.add_parser("audit", help="full tamper audit of the archive")
    audit.add_argument("--archive", required=True)
    audit.add_argument(
        "--json", help="also write the reports to a JSON case file"
    )
    audit.set_defaults(func=_cmd_audit)

    stats = sub.add_parser("stats", help="operational archive summary")
    stats.add_argument("--archive", required=True)
    stats.set_defaults(func=_cmd_stats)

    metrics = sub.add_parser(
        "metrics",
        help="render archive metrics (Prometheus text; --json for a snapshot)",
    )
    metrics.add_argument("--archive", required=True)
    metrics.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the repro-metrics/v1 JSON snapshot to PATH",
    )
    metrics.set_defaults(func=_cmd_metrics)

    profile = sub.add_parser(
        "profile", help="measure query costs and recommend a configuration"
    )
    profile.add_argument("--archive", required=True)
    profile.add_argument("query", nargs="*", help="queries to profile")
    profile.add_argument(
        "--query-file", help="file with one query per line (e.g. a query log)"
    )
    profile.set_defaults(func=_cmd_profile)

    verify_journal = sub.add_parser(
        "verify-journal",
        help="fsck-style integrity scan of the archive journal(s)",
    )
    verify_journal.add_argument("--archive", required=True)
    verify_journal.set_defaults(func=_cmd_verify_journal)

    dispose = sub.add_parser(
        "dispose", help="dispose of documents past their retention horizon"
    )
    dispose.add_argument("--archive", required=True)
    dispose.add_argument("--now", type=int, required=True, help="current time")
    dispose.add_argument(
        "--fsync", action="store_true",
        help="fsync the journal(s) while disposing (disposition records "
        "and WORM deletes are writes that must not be lost)",
    )
    dispose.add_argument(
        "--group-commit", type=int, default=1,
        help="with --fsync, records per fsync batch (default: 1 = fsync "
        "every record; dispositions are few and precious)",
    )
    dispose.set_defaults(func=_cmd_dispose)

    segments = sub.add_parser(
        "segments",
        help="show the tail/segment layout of a tail-mode archive "
        "(optionally seal the tail or merge live segments)",
    )
    segments.add_argument("--archive", required=True)
    segments.add_argument(
        "--seal", action="store_true",
        help="seal the current tail into a WORM segment first",
    )
    segments.add_argument(
        "--merge", action="store_true",
        help="merge all live segments into one (after --seal, if both)",
    )
    segments.add_argument(
        "--fsync", action="store_true",
        help="fsync the journal(s) while sealing/merging",
    )
    segments.add_argument(
        "--group-commit", type=int, default=64,
        help="with --fsync, records per fsync batch (default: 64)",
    )
    segments.set_defaults(func=_cmd_segments)

    serve = sub.add_parser(
        "serve",
        help="serve the archive over HTTP (search/ingest/audit/metrics) "
        "until drained by SIGTERM",
    )
    serve.add_argument("--archive", required=True)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free one (default: 8080)",
    )
    serve.add_argument(
        "--executor", choices=["thread", "process"], default="thread",
        help="sharded query fan-out: 'thread' shares the interpreter, "
        "'process' spawns one worker process per shard (default: thread)",
    )
    serve.add_argument(
        "--rate", type=float, default=200.0,
        help="per-tenant sustained requests/second; 0 disables rate "
        "limiting (default: 200)",
    )
    serve.add_argument(
        "--burst", type=float, default=400.0,
        help="per-tenant burst allowance (default: 400)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8,
        help="concurrent requests executing (default: 8)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="requests allowed to wait for a slot before 503 (default: 64)",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=5.0,
        help="longest a queued request waits before being shed (default: 5s)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=5.0,
        help="socket read / keep-alive idle timeout (default: 5s)",
    )
    serve.add_argument(
        "--fsync", action="store_true",
        help="fsync the journal(s) on ingest (durable but slower)",
    )
    serve.add_argument(
        "--group-commit", type=int, default=64,
        help="with --fsync, records per fsync batch (default: 64)",
    )
    serve.add_argument(
        "--read-cache", action="store_true",
        help="enable the read-path cache for the service session",
    )
    serve.add_argument(
        "--cache-policy", choices=["lru", "2q", "slru"], default="lru",
        help="read-cache eviction policy (default: lru)",
    )
    serve.add_argument(
        "--cache-mb", type=float, default=8.0,
        help="read-cache decoded-block budget in MB (default: 8)",
    )
    serve.add_argument(
        "--log-requests", action="store_true",
        help="echo one access-log line per request to stderr",
    )
    serve.add_argument(
        "--seal-interval", type=float, default=0.0, metavar="S",
        help="on a tail-mode archive, background-seal the tail every S "
        "seconds so quiet periods still bound tail residency "
        "(default: 0 = size-triggered sealing only)",
    )
    serve.set_defaults(func=_cmd_serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="drive concurrent mixed search/ingest traffic and measure "
        "QPS, latency percentiles, and ingest throughput",
    )
    loadtest.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client threads (default: 4)",
    )
    loadtest.add_argument(
        "--duration", type=float, default=5.0,
        help="run length in seconds (default: 5)",
    )
    loadtest.add_argument(
        "--mix", type=float, default=0.9,
        help="fraction of operations that are searches; the rest are "
        "ingests (default: 0.9)",
    )
    loadtest.add_argument(
        "--arrival-rate", type=float, default=None,
        help="total ops/second for open-loop mode (latency then includes "
        "queueing delay); default: closed loop",
    )
    loadtest.add_argument(
        "--seed", type=int, default=42,
        help="workload determinism seed (default: 42)",
    )
    loadtest.add_argument(
        "--shards", type=int, default=2,
        help="shards of the ephemeral archive (default: 2)",
    )
    loadtest.add_argument(
        "--executor", choices=["thread", "process"], default="thread",
        help="query fan-out of the ephemeral archive: 'process' builds it "
        "file-backed in a temp directory and spawns one worker process "
        "per shard (default: thread)",
    )
    loadtest.add_argument(
        "--docs", type=int, default=300,
        help="documents preloaded before the clock starts (default: 300)",
    )
    loadtest.add_argument(
        "--drift", type=int, default=0, metavar="STRIDE",
        help="rotate query popularity between epochs by STRIDE hot-pool "
        "ranks (default: 0 = stable popularity)",
    )
    loadtest.add_argument(
        "--tail-max-docs", type=int, default=0, metavar="N",
        help="run the ephemeral archive in tail mode: buffer N docs per "
        "shard before sealing a segment (default: 0 = legacy "
        "synchronous indexing); ignored with --endpoint",
    )
    loadtest.add_argument(
        "--endpoint", default=None, metavar="URL",
        help="drive a running 'repro-search serve' instance over HTTP "
        "(e.g. http://127.0.0.1:8080) instead of an ephemeral "
        "in-process engine; --shards is then ignored",
    )
    loadtest.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the BENCH_LOADTEST.json snapshot to PATH",
    )
    loadtest.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="diff this run against a baseline snapshot under the default "
        "tolerance bands; exit 1 on regression",
    )
    loadtest.set_defaults(func=_cmd_loadtest)

    capacity = sub.add_parser(
        "capacity",
        help="predict shards x workers for a QPS/p99 target from "
        "load-test snapshots",
    )
    capacity.add_argument(
        "--snapshot", action="append", required=True, metavar="PATH",
        help="BENCH_LOADTEST.json snapshot(s) to calibrate from "
        "(repeatable)",
    )
    capacity.add_argument(
        "--target-qps", type=float, required=True,
        help="throughput target in queries/second",
    )
    capacity.add_argument(
        "--target-p99-ms", type=float, required=True,
        help="latency target: search p99 in milliseconds",
    )
    capacity.set_defaults(func=_cmd_capacity)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "branching", None) == 0:
        args.branching = None
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
