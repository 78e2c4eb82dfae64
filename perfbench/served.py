"""The served workloads: ``serve_archive`` in a subprocess, HTTP clients here.

One set-up is: create a journaled 2-shard archive and preload it from
this process, start the server launcher (``server_main.py``) over it,
and warm it up with searches.  The timed window is a closed loop of one
keep-alive HTTP connection per client.  After the window the oracle
replays a sample of the window's searches over HTTP, the server is
drained with SIGTERM, and the drain check reopens the archive.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.cli import open_archive
from repro.search.engine import EngineConfig, SearchResult

import layers
import oracle
from loadgen import LoopResult, OperationFailed, closed_loop, percentile
from plans import TOP_K, Plan
from spans import read_trace

HERE = os.path.dirname(os.path.abspath(__file__))
START_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 120.0


class HttpClient:
    """One keep-alive connection to the service."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self._conn.connect()
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        raw = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if raw is not None else {}
        self._conn.request(method, path, body=raw, headers=headers)
        response = self._conn.getresponse()
        payload = response.read()
        if response.status != 200:
            message = payload[:200].decode("utf-8", "replace")
            raise OperationFailed(f"HTTP{response.status}", message)
        return json.loads(payload)

    def search(self, query: str, top_k: int = TOP_K) -> List[Tuple[int, float]]:
        body = self._request("POST", "/search", {"query": query, "top_k": top_k})
        return [(hit["doc_id"], hit["score"]) for hit in body["results"]]

    def ingest(self, text: str) -> List[int]:
        return self._request("POST", "/ingest", {"documents": [text]})["doc_ids"]

    def counters(self) -> Dict[str, float]:
        return layers.counter_totals(self._request("GET", "/metrics?format=json")["metrics"])

    def __call__(self, kind: str, payload: str):
        return self.search(payload) if kind == "search" else self.ingest(payload)

    def close(self) -> None:
        self._conn.close()


class ServedSetup:
    """One archive plus the server process serving it."""

    def __init__(self, plan: Plan, workdir: str, src: str, *, trace: bool):
        self.plan = plan
        self.workdir = workdir
        self.src = src
        self.archive = os.path.join(workdir, "archive.worm")
        self.report = os.path.join(workdir, "server-report.json")
        self.spans_path = os.path.join(workdir, "spans.jsonl") if trace else ""
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.preload_ids: List[int] = []
        self.setup_s = 0.0

    def start(self) -> None:
        """Init + preload + server start + warm-up, timed as ``setup_s``."""
        workload = self.plan.workload
        started = time.perf_counter()
        os.makedirs(self.workdir, exist_ok=True)
        config = EngineConfig(
            num_lists=workload.num_lists,
            block_size=workload.block_size,
            branching=workload.branching,
            tail_max_docs=workload.tail_max_docs,
            merge_at_segments=workload.merge_at_segments,
        )
        engine, handle = open_archive(self.archive, create=config, shards=workload.shards)
        try:
            for batch in self.plan.preload_batches():
                self.preload_ids.extend(engine.index_batch(batch))
        finally:
            handle.close()
        command = [
            sys.executable, os.path.join(HERE, "server_main.py"),
            "--src", self.src, "--archive", self.archive, "--report", self.report,
        ]
        if self.spans_path:
            command += ["--spans", self.spans_path]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        self.port = self._await_ready()
        client = HttpClient(self.port)
        try:
            for query in self.plan.warmup:
                client.search(query)
        finally:
            client.close()
        self.setup_s = time.perf_counter() - started

    def _await_ready(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start (got {line!r})")
        return int(line.split()[1])

    def stop(self) -> Dict[str, float]:
        """SIGTERM drain; returns the server's report."""
        process, self.process = self.process, None
        if process is None:
            return {}
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise RuntimeError("server did not drain within its timeout")
        if process.returncode != 0:
            raise RuntimeError(f"server exited with code {process.returncode}")
        with open(self.report, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        """Last-resort cleanup when a run aborts (no-op once stopped)."""
        if self.process is not None:
            self.process.kill()
            self.process.communicate()
            self.process = None

    def archive_bytes(self) -> int:
        prefix = os.path.basename(self.archive)
        return sum(
            os.path.getsize(os.path.join(self.workdir, name))
            for name in os.listdir(self.workdir)
            if name.startswith(prefix)
        )


#: Searches the oracle replays after each window.
ORACLE_SAMPLE = 300


def _window(setup: ServedSetup, plan: Plan, seconds: float, start=()) -> LoopResult:
    clients = [HttpClient(setup.port) for _ in range(plan.workload.clients)]
    try:
        return closed_loop(clients, plan.ops, seconds, start=start)
    finally:
        for client in clients:
            client.close()


def _counters(setup: ServedSetup) -> Dict[str, float]:
    client = HttpClient(setup.port)
    try:
        return client.counters()
    finally:
        client.close()


def _p50_ms(loop: LoopResult) -> float:
    return percentile(loop.latencies.get("search", []), 0.5) * 1e3


def _finish(setup: ServedSetup, plan: Plan, loop: LoopResult) -> dict:
    """Oracle, SIGTERM drain and drain check for one measured set-up."""
    acknowledged = dict(zip(setup.preload_ids, plan.preload))
    run_docs = 0
    for completed in loop.completed:
        for kind, text, reply in completed:
            if kind == "ingest":
                for doc_id in reply:
                    acknowledged[doc_id] = text
                    run_docs += 1
    searched = [text for done in loop.completed for kind, text, _ in done if kind == "search"]
    sample = oracle.sample_queries(searched, ORACLE_SAMPLE, plan.seed)
    ordered = sorted(acknowledged)
    reference = oracle.build_reference([acknowledged[doc_id] for doc_id in ordered])
    # A fresh connection: the server closes keep-alive connections idle
    # for longer than its request timeout.
    client = HttpClient(setup.port)
    try:
        mismatches, messages = oracle.run_oracle(
            client.search, _RemappedReference(reference, ordered), sample, TOP_K
        )
    finally:
        client.close()
    server_report = setup.stop()
    missing, drain_messages = oracle.drain_check(setup.archive, acknowledged)
    return {
        "oracle": (len(sample), mismatches, messages),
        "drain": (len(acknowledged), missing, drain_messages),
        "run_docs": run_docs,
        "stored_bytes": setup.archive_bytes(),
        "doc_bytes": sum(len(text.encode("utf-8")) for text in acknowledged.values()),
        "peak_rss_mb": server_report["peak_rss_kb"] / 1024.0,
    }


def run(plan: Plan, *, seconds: float, trace: bool, setups: int, workroot: str,
        src: str, spans_out: str) -> Dict[str, object]:
    """One served run; returns the measurements the entry point reports.

    Untraced, the archive is set up ``setups`` times and each set-up
    serves one window of ``seconds / setups``, the plan continuing where
    the previous window stopped; the windows are pooled.  Traced, an
    untraced twin serves one window of ``seconds`` first (for
    ``trace_overhead_pct``), then a traced set-up serves another.
    """
    started: List[ServedSetup] = []

    def fresh(index: int, traced: bool) -> ServedSetup:
        setup = ServedSetup(plan, os.path.join(workroot, f"setup{index}"), src, trace=traced)
        started.append(setup)
        setup.start()
        return setup

    try:
        if not trace:
            report = {"windows": [], "checks": [], "setup_times": []}
            start = ()
            for index in range(setups):
                setup = fresh(index, False)
                loop = _window(setup, plan, seconds / setups, start)
                start = loop.positions
                report["windows"].append(loop)
                report["checks"].append(_finish(setup, plan, loop))
                report["setup_times"].append(setup.setup_s)
            return report
        twin = fresh(0, False)
        untraced_p50 = _p50_ms(_window(twin, plan, seconds))
        twin.stop()
        setup = fresh(1, True)
        before = _counters(setup)
        loop = _window(setup, plan, seconds)
        after = _counters(setup)
        checks = _finish(setup, plan, loop)
    finally:
        for server in started:
            server.kill()
    spans, calls = read_trace(setup.spans_path)
    shutil.move(setup.spans_path, spans_out)
    requests = layers.requests_within(spans, [(loop.begin, loop.end)])
    return {"windows": [loop], "checks": [checks], "layers": layers.layer_metrics(
        [s for s in spans if s.request in requests],
        {"service.dispatch:/search": "search", "service.dispatch:/ingest": "ingest"},
        calls=calls,
        client_ms={kind: sum(v) * 1e3 for kind, v in loop.latencies.items()},
        docs=checks["run_docs"],
        search_counters=(before, after),
        doc_counters=(before, after),
        traced_p50_ms=_p50_ms(loop),
        untraced_p50_ms=untraced_p50,
        served=True,
    )}


class _RemappedReference:
    """The reference engine answering in the archive's doc IDs (it
    numbers documents 0..n-1 in acknowledged doc-ID order)."""

    def __init__(self, engine, doc_ids: List[int]):
        self._engine = engine
        self._doc_ids = doc_ids

    def search(self, query: str, top_k: int):
        return [
            SearchResult(doc_id=self._doc_ids[hit.doc_id], score=hit.score)
            for hit in self._engine.search(query, top_k=top_k)
        ]
