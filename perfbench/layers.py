"""Per-layer metrics from a traced run's spans and the program's counters.

Times are mean self time per operation, in ms: a span's duration minus
the part its children cover, summed per operation over every span of
that name (so shard-level spans add up across shards, and can add up
to more than the wall time they cover: the shards run on two threads).
Work counts are deltas of the counters the program exports, per search
or per acknowledged document.  ``unattributed_ms`` is the time inside
each operation's entry span (``ArchiveService.dispatch`` when served,
the engine call in process) that no layer span covers, plus, in
process, the client time outside that span.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping, Sequence

from spans import POOL_WAIT, Span, self_times

#: Per-layer metric -> (span name, operation kind it is averaged over).
SELF_TIME_LAYERS = {
    "service.admission_ms": ("service.admission", "all"),
    "service.read_lock_wait_ms": ("service.read_lock_wait", "search"),
    "service.write_lock_wait_ms": ("service.write_lock_wait", "ingest"),
    "sharding.stats_ms": ("sharding.stats", "search"),
    "sharding.pool_wait_ms": (POOL_WAIT, "search"),
    "sharding.fanout_self_ms": ("sharding.fanout", "search"),
    "sharding.ingest_self_ms": ("sharding.ingest", "ingest"),
    "search.parse_ms": ("search.parse", "search"),
    "search.match_ms": ("search.match", "search"),
    "search.index_batch_self_ms": ("search.index_batch", "ingest"),
}

#: Per-search counters: metric -> exported counter families summed.
PER_QUERY_COUNTERS = {
    "core.entries_scanned_per_query": ("repro_scan_entries_total",),
    "core.blocks_decoded_per_query": ("repro_decode_blocks_total",),
    "core.postings_decoded_per_query": ("repro_decode_postings_total",),
    "core.join_seeks_per_query": ("repro_join_seeks_total",),
    "core.join_blocks_per_query": ("repro_join_blocks_read_total",),
    "core.jump_follows_per_query": ("repro_jump_pointer_follows_total",),
}

#: Per-acknowledged-document counters.
PER_DOC_COUNTERS = {
    "core.postings_appended_per_doc": ("repro_postings_appended_total",),
    "worm.journal_bytes_per_doc": ("repro_journal_bytes",),
    "worm.journal_records_per_doc": ("repro_journal_records_total",),
}

#: Unit of every per-layer metric, in report order.
UNITS = {
    "service.wire_ms": "ms",
    **{name: "ms" for name in SELF_TIME_LAYERS},
    "search.candidates_per_query": "count",
    "search.useful_ratio": "ratio",
    "core.seal_ms": "ms",
    "core.seals_per_1k_docs": "count",
    "core.merge_ms": "ms",
    "core.merges_per_1k_docs": "count",
    **{name: "count" for name in PER_QUERY_COUNTERS},
    "worm.block_reads_per_query": "count",
    "core.postings_appended_per_doc": "count",
    "worm.journal_bytes_per_doc": "B",
    "worm.journal_records_per_doc": "count",
    "unattributed_ms": "ms",
    "trace_overhead_pct": "%",
}


def counter_totals(snapshot: Mapping[str, dict]) -> Dict[str, float]:
    """Family name -> value summed over every label set (non-histograms)."""
    totals: Dict[str, float] = {}
    for name, family in snapshot.items():
        if family.get("type") == "histogram":
            continue
        totals[name] = sum(series.get("value", 0.0) for series in family.get("series", ()))
    return totals


def counter_delta(before: Mapping[str, float], after: Mapping[str, float],
                  families: Iterable[str]) -> float:
    return sum(after.get(name, 0.0) - before.get(name, 0.0) for name in families)


def requests_within(spans: Sequence[Span], windows: Sequence[tuple]) -> set:
    """Request IDs whose root span starts inside one of ``windows``."""
    return {
        span.request
        for span in spans
        if span.parent is None and any(begin <= span.start <= end for begin, end in windows)
    }


def layer_metrics(
    spans: Sequence[Span],
    roots: Mapping[str, str],
    *,
    calls: Mapping[tuple, int],
    client_ms: Mapping[str, float],
    docs: int,
    search_counters: tuple,
    doc_counters: tuple,
    traced_p50_ms: float,
    untraced_p50_ms: float,
    served: bool = False,
) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``spans`` holds only the window's requests.  ``roots`` maps a root
    span name (plus ``":" + note`` when the root's note tells the kind
    apart) to the operation kind, ``"search"`` or ``"ingest"``.
    ``calls`` holds the tracer's per-request call counts.
    ``client_ms`` is the summed client-observed time per kind.  When
    ``served``, ``service.wire_ms`` is the client time the root spans
    (``ArchiveService.dispatch``) do not cover.  ``search_counters`` and
    ``doc_counters`` are ``(before, after)`` counter totals around the
    search and ingest work.
    """
    own = self_times(spans)
    kind_of_request: Dict[int, str] = {}
    root_time = root_self = 0.0
    for span in spans:
        if span.parent is None:
            key = span.name if span.note is None else f"{span.name}:{span.note}"
            kind = roots.get(key)
            if kind is not None:
                kind_of_request[span.request] = kind
                root_time += span.duration
                root_self += own[span.span_id]
    ops = defaultdict(int)
    for kind in kind_of_request.values():
        ops[kind] += 1
    ops["all"] = ops["search"] + ops["ingest"]
    by_name = defaultdict(float)
    notes = defaultdict(float)
    counts = defaultdict(int)
    for span in spans:
        if span.request not in kind_of_request:
            continue
        by_name[span.name] += own[span.span_id]
        counts[span.name] += 1
        if isinstance(span.note, (int, float)):
            notes[span.name] += span.note

    def per(total: float, n: int, scale: float = 1.0) -> float:
        return total * scale / n if n else 0.0

    metrics: Dict[str, float] = {}
    client_total = client_ms.get("search", 0.0) + client_ms.get("ingest", 0.0)
    # Outside the entry spans: the wire when served, the call itself in
    # process.  The wire is a layer; the call is not.
    outside = client_total - root_time * 1e3
    metrics["service.wire_ms"] = per(outside, ops["all"]) if served else 0.0
    for metric, (name, kind) in SELF_TIME_LAYERS.items():
        metrics[metric] = per(by_name[name] * 1e3, ops[kind])
    metrics["search.candidates_per_query"] = per(notes["search.match"], ops["search"])
    candidates = notes["search.match"]
    metrics["search.useful_ratio"] = notes["sharding.fanout"] / candidates if candidates else 0.0
    for layer, name in (("seal", "core.seal"), ("merge", "core.merge")):
        metrics[f"core.{layer}_ms"] = per(by_name[name] * 1e3, counts[name])
        metrics[f"core.{layer}s_per_1k_docs"] = per(counts[name], docs, 1e3)
    before, after = search_counters
    for metric, families in PER_QUERY_COUNTERS.items():
        metrics[metric] = per(counter_delta(before, after, families), ops["search"])
    metrics["worm.block_reads_per_query"] = per(
        sum(n for (request, name), n in calls.items()
            if name == "worm.block_read" and kind_of_request.get(request) == "search"),
        ops["search"],
    )
    before, after = doc_counters
    for metric, families in PER_DOC_COUNTERS.items():
        metrics[metric] = per(counter_delta(before, after, families), docs)
    metrics["unattributed_ms"] = per(root_self * 1e3 + (0.0 if served else outside), ops["all"])
    metrics["trace_overhead_pct"] = (
        (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms * 100.0 if untraced_p50_ms else 0.0
    )
    return {name: metrics[name] for name in UNITS}
