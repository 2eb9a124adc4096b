"""The traced run: per-layer attribution of a workload's inputs.

The end-to-end numbers come from untraced runs.  This run replays the
same inputs in the benchmark's own process, calling each layer's public
functions in the order the CLI calls them, each exactly once per
operation, with a span around every call:

    ir.load              load_apk(path)
    cachestore.fingerprint  app_content_fingerprint(apk)
    cachestore.load      CacheStore.load_into(store, fp, options)
    callgraph.build      store.get(CALLGRAPH)
    summaries.build      store.get(SUMMARIES)
    requests.build       store.get(REQUESTS)
    checks               ScanSession.scan() once those are built
    cachestore.store     CacheStore.store_from(store, fp, options)
    render               ScanResult.to_dict() and JSON encoding

It also times the interpreter floor and ``import repro.cli`` in fresh
processes, runs the real CLI once over the same inputs (so
``unattributed_share`` compares the spans with an untraced process), runs
the in-process replay once more without spans (``trace.overhead_share``),
and replays jobs against a real daemon, reading each job's worker spans
from ``/v1/scans/{id}/trace``.  ``service-mix`` replays its whole open-loop
schedule; the CLI workloads send a few of their apps one at a time.

Spans are kept in memory and written to ``.perfbench_work/`` when the
run ends.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import inputs, oracle, procs, service_load, workloads

#: Checks in the default scan, each with a ``pass.<name>.methods_visited``.
PASSES = (
    "config-apis",
    "connectivity",
    "failure-notification",
    "invalid-response",
    "retry-parameters",
)
#: App-scoped artifact kinds, each with ``artifact.<kind>.builds``/``.hits``.
ARTIFACT_KINDS = (
    "callgraph",
    "summaries",
    "requests",
    "retry-loops",
    "icc-model",
    "threadcontext",
)
#: In-process layer spans and the per-layer metric each one feeds.
LAYER_SPANS = {
    "ir.load": "ir.load_ms",
    "cachestore.fingerprint": "cachestore.fingerprint_ms",
    "cachestore.load": "cachestore.load_ms",
    "callgraph.build": "callgraph.build_ms",
    "summaries.build": "summaries.build_ms",
    "requests.build": "requests.build_ms",
    "checks": "checks.ms",
    "cachestore.store": "cachestore.store_ms",
    "render": "render.ms",
}
#: Daemon jobs a CLI workload's traced run sends, one at a time.
SERVICE_SAMPLE = 20
#: Apps of service-mix replayed in-process for the pipeline layers.
SERVICE_REPLAY_APPS = 100
#: Fresh-process timings of the interpreter floor and the CLI import.
FLOOR_REPEATS = 3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str


@dataclass
class Recorder:
    """Spans of one run, in memory.  Single-threaded: a span's parent is
    whatever span was open when it started."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, op: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float, op: str) -> None:
        """A span measured elsewhere (a subprocess, a daemon worker)."""
        self.spans.append(Span(name, start, end, None, op))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus the part of
        its interval that its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = _union_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(index, ())
            )
            own = (span.end - span.start) - covered
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([span.__dict__ for span in self.spans]))


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class _Untraced:
    """The recorder interface with no recording, for the overhead run."""

    @staticmethod
    def span(name: str, op: str):
        return nullcontext()


# -- the in-process replay -----------------------------------------------------


@dataclass
class Replay:
    """Counts gathered while replaying, beside the spans."""

    ops: int = 0
    lines: int = 0
    kinds_asked: int = 0
    kinds_loaded: int = 0
    bytes_written: int = 0
    edges: int = 0
    requests: int = 0


def _app_dir_bytes(backend, fp: str) -> int:
    directory = backend.app_dir(fp)
    if not directory.is_dir():
        return 0
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def replay_op(rec, replay: Replay, path: Path, cache_dir: Path, op: str) -> dict:
    """One CLI scan of one app, layer by layer; returns its JSON entry."""
    from repro.app.loader import load_apk
    from repro.core.checker import NChecker, NCheckerOptions
    from repro.pipeline.artifacts import ARTIFACTS, CALLGRAPH, REQUESTS, SUMMARIES
    from repro.pipeline.cachestore import CacheStore, app_content_fingerprint

    # The options the CLI builds (the cache in them addresses the entries)
    # and a cache-less twin for the session, so ScanSession.scan() neither
    # preloads nor persists: the replay does both itself, once.
    cli_options = NCheckerOptions(cache_dir=str(cache_dir))
    session_options = NCheckerOptions()
    cache = CacheStore.from_options(cli_options)
    with rec.span("ir.load", op):
        apk = load_apk(path)
    with rec.span("cachestore.fingerprint", op):
        fp = app_content_fingerprint(apk)
    session = NChecker(options=session_options).open_session(apk)
    store = session.store
    with rec.span("cachestore.load", op):
        loaded = cache.load_into(store, fp, cli_options)
    with rec.span("callgraph.build", op):
        graph = store.get(CALLGRAPH)
    with rec.span("summaries.build", op):
        store.get(SUMMARIES)
    with rec.span("requests.build", op):
        requests = store.get(REQUESTS)
    with rec.span("checks", op):
        result = session.scan()
    before = _app_dir_bytes(cache.backend, fp)
    with rec.span("cachestore.store", op):
        cache.store_from(store, fp, cli_options, exclude=loaded)
    after = _app_dir_bytes(cache.backend, fp)
    with rec.span("render", op):
        entry = result.to_dict()
        json.dumps([entry], indent=2)
    replay.ops += 1
    replay.lines += path.read_text().count("\n")
    replay.kinds_asked += sum(1 for key in ARTIFACTS.values() if key.scope == "app")
    replay.kinds_loaded += len(loaded)
    replay.bytes_written += after - before
    replay.edges += sum(len(edges) for edges in graph.out_edges.values())
    replay.requests += len(requests)
    return entry


@dataclass
class Plan:
    """A workload's operations for the replay: each is an app file to
    scan, with the text to write there first (``None`` keeps it), and the
    ledger record its findings must score against."""

    ops: list[tuple[Path, Optional[str], inputs.App]]
    #: Cache dir the real CLI and every replay start from (copied, so
    #: each starts in the same state); ``None`` starts cold.
    warm_cache: Optional[Path]
    #: The score each op must reproduce, when fixed (dev-loop).
    reference: Optional[dict] = None


def _replay(ctx, plan: Plan, rec, out: Optional[workloads.Outcome]) -> tuple[float, Replay, dict]:
    """Replay every op against a fresh copy of the plan's cache; returns
    wall seconds, counts and the metrics snapshot."""
    from repro.obs import use_metrics

    cache = ctx.fresh_dir("replay-cache")
    if plan.warm_cache is not None:
        shutil.rmtree(cache)
        shutil.copytree(plan.warm_cache, cache)
    replay = Replay()
    elapsed = 0.0
    with use_metrics() as registry:
        for index, (path, text, app) in enumerate(plan.ops):
            if text is not None:
                path.write_text(text)
            started = time.perf_counter()
            entry = replay_op(rec, replay, path, cache, f"{app.truth.package}#{index}")
            elapsed += time.perf_counter() - started
            if out is not None:
                _score_entry(out, plan, app, entry)
        snapshot = registry.snapshot()
    shutil.rmtree(cache)
    return elapsed, replay, snapshot


def _score_entry(out: workloads.Outcome, plan: Plan, app: inputs.App, entry: dict) -> None:
    out.attempted += 1
    try:
        table = oracle.score_app(app.truth, entry)
    except oracle.LedgerMismatch as exc:
        out.fail(1, str(exc))
        return
    if plan.reference is not None and table != plan.reference:
        out.fail(1, f"{app.truth.package}: replay scored differently from the first scan")
        return
    oracle.add_tables(out.table, table)


def _cli_wall(ctx, plan: Plan, out: workloads.Outcome) -> float:
    """Untraced CLI process wall over the plan's ops: one process over
    all apps when they start cold, one process per op otherwise."""
    cache = ctx.fresh_dir("cli-cache")
    if plan.warm_cache is not None:
        shutil.rmtree(cache)
        shutil.copytree(plan.warm_cache, cache)
        groups = [[op] for op in plan.ops]
    else:
        groups = [plan.ops]
    wall = 0.0
    for group in groups:
        for path, text, _app in group:
            if text is not None:
                path.write_text(text)
        scanned = workloads._scored_scan(
            ctx, out, [op[0] for op in group], [op[2].truth for op in group], cache
        )
        if scanned is not None:
            wall += scanned[0].wall
    shutil.rmtree(cache)
    return wall


def _floor(ctx) -> tuple[float, float]:
    """Median fresh-process seconds of ``pass`` and of ``import repro.cli``."""
    env = ctx.env(None)
    bare = [procs.run_python(["-c", "pass"], env).wall for _ in range(FLOOR_REPEATS)]
    imported = [
        procs.run_python(["-c", "import repro.cli"], env).wall
        for _ in range(FLOOR_REPEATS)
    ]
    return statistics.median(bare), statistics.median(imported)


# -- the daemon replay ---------------------------------------------------------


def _worker_spans(daemon: procs.Daemon, job_id: str) -> dict[str, tuple[float, float]]:
    """``{span name: (start, end)}`` in wall seconds from a job's trace."""
    status, body = daemon.request("GET", f"/v1/scans/{job_id}/trace")
    if status != 200:
        return {}
    opened: dict[str, float] = {}
    spans: dict[str, tuple[float, float]] = {}
    for event in json.loads(body).get("traceEvents", []):
        name, ts = event.get("name"), event.get("ts", 0) / 1e6
        if event.get("ph") == "B":
            opened.setdefault(name, ts)
        elif event.get("ph") == "E" and name in opened and name not in spans:
            spans[name] = (opened[name], ts)
    return spans


def _service_replay(ctx, rec: Recorder, out: workloads.Outcome, apps, arrivals, one_at_a_time: bool) -> dict:
    daemon = procs.Daemon(ctx.env(ctx.fresh_dir("daemon-cache")))
    try:
        daemon.wait_ready()
        bodies = [app.text.encode("utf-8") for app in apps]
        if one_at_a_time:
            records = [
                record
                for arrival in arrivals
                for record in service_load.run_open_loop(daemon.port, [arrival], bodies)
            ]
        else:
            records = service_load.run_open_loop(daemon.port, arrivals, bodies)
        for record in records:
            if not record.error:
                record.spans = _worker_spans(daemon, record.job_id)
    finally:
        daemon.stop()
    submit, queue, run, fetch, load, polls, walls = [], [], [], [], [], [], []
    for record in records:
        if not workloads.score_job(out, record, apps[record.arrival.app]):
            continue
        op = f"job#{record.job_id}"
        answered = record.sent + record.submit_s
        rec.add("service.submit", record.sent, answered, op)
        rec.add("service.fetch", record.done - record.fetch_s, record.done, op)
        submit.append(record.submit_s)
        fetch.append(record.fetch_s)
        polls.append(record.polls)
        walls.append(record.done - record.sent)
        scan = record.spans.get("scan")
        loading = record.spans.get("load")
        if scan and loading:
            # Worker spans carry wall-clock times; move them onto the
            # client's clock through the moment the submit was answered.
            shift = answered - record.submitted_wall
            rec.add("service.queue_wait", answered, loading[0] + shift, op)
            rec.add("service.load", loading[0] + shift, loading[1] + shift, op)
            rec.add("service.run", scan[0] + shift, scan[1] + shift, op)
            queue.append(max(0.0, loading[0] - record.submitted_wall))
            load.append(loading[1] - loading[0])
            run.append(scan[1] - scan[0])
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0  # noqa: E731
    attributed = sum(submit) + sum(fetch) + sum(queue) + sum(load) + sum(run)
    return {
        "service.submit_ms": (mean(submit) * 1000.0, "ms"),
        "service.queue_wait_ms": (mean(queue) * 1000.0, "ms"),
        "service.run_ms": (mean(run) * 1000.0, "ms"),
        "service.fetch_ms": (mean(fetch) * 1000.0, "ms"),
        "service.polls_per_job": (mean(polls), "count"),
        "service.refused": (
            float(sum(1 for r in records if r.status in (429, 503))), "count"
        ),
        "_unattributed": 1.0 - attributed / sum(walls) if walls else 1.0,
    }


# -- per-workload plans --------------------------------------------------------


def _plan(ctx, workload: str, out: workloads.Outcome):
    """Replay plan, daemon apps and daemon arrivals for ``workload``."""
    if workload in ("corpus-sweep", "large-app"):
        apps = (
            inputs.sweep_corpus(ctx.seed)
            if workload == "corpus-sweep"
            else inputs.large_apps(ctx.seed)
        )
        paths = workloads._write_apps(ctx.fresh_dir("apps"), apps)
        plan = Plan([(p, None, a) for p, a in zip(paths, apps)], None)
        jobs = range(min(SERVICE_SAMPLE, len(apps)))
        return plan, apps, [service_load.Arrival(0.0, i, "replay", False) for i in jobs]
    if workload == "dev-loop":
        app, path, cache, reference = workloads.dev_setup(ctx, out)
        # One cycle of the loop: rescans, then the invocation after an
        # edit.  The first op restores the unedited text for each replay.
        edited = inputs.nop_edit(app.text, random.Random(f"{ctx.seed}:edits"))
        ops = [(path, app.text, app)]
        ops += [(path, None, app)] * (workloads.DEV_EDIT_EVERY - 2)
        ops.append((path, edited, app))
        plan = Plan(ops, cache, reference)
        jobs = [service_load.Arrival(0.0, 0, "replay", i > 0) for i in range(len(ops))]
        return plan, [app], jobs
    arrivals = workloads.service_arrivals(ctx)
    apps = inputs.service_corpus(ctx.seed, 1 + max(a.app for a in arrivals))
    paths = workloads._write_apps(ctx.fresh_dir("apps"), apps[:SERVICE_REPLAY_APPS])
    plan = Plan([(p, None, a) for p, a in zip(paths, apps)], None)
    return plan, apps, arrivals


def run(ctx, workload: str) -> workloads.Outcome:
    """The traced run of ``workload``: per-layer metrics."""
    out = workloads.Outcome()
    plan, apps, arrivals = _plan(ctx, workload, out)
    interp_s, import_s = _floor(ctx)

    # Lazy imports and first-call costs land on an untimed warm-up pass.
    _replay(ctx, plan, _Untraced, None)
    untraced_s, _, _ = _replay(ctx, plan, _Untraced, None)
    rec = Recorder()
    traced_s, replay, snapshot = _replay(ctx, plan, rec, out)
    cli_s = _cli_wall(ctx, plan, out) if workload != "service-mix" else 0.0
    service = _service_replay(
        ctx, rec, out, apps, arrivals, one_at_a_time=workload != "service-mix"
    )
    rec.dump(ctx.root / ".perfbench_work" / f"trace-{workload}.json")

    ops = replay.ops
    self_s = rec.self_times()
    counters = snapshot.get("counters", {})
    metrics: dict[str, tuple[float, str]] = {
        "cli.interp_ms": (interp_s * 1000.0, "ms"),
        "cli.import_ms": ((import_s - interp_s) * 1000.0, "ms"),
    }
    for span_name, metric in LAYER_SPANS.items():
        metrics[metric] = (self_s.get(span_name, 0.0) * 1000.0 / ops, "ms")
    metrics["ir.lines_per_s"] = (replay.lines / self_s["ir.load"], "lines/s")
    metrics["cachestore.hit_ratio"] = (replay.kinds_loaded / replay.kinds_asked, "ratio")
    metrics["cachestore.bytes_written"] = (replay.bytes_written / ops, "bytes")
    metrics["callgraph.edges"] = (replay.edges / ops, "count")
    metrics["requests.count"] = (replay.requests / ops, "count")
    metrics["dataflow.bool_fact_sccs"] = (
        counters.get("dataflow.bool_fact_sccs", 0) / ops, "count"
    )
    for name in PASSES:
        key = f"pass.{name}.methods_visited"
        metrics[key] = (counters.get(key, 0) / ops, "count")
    for kind in ARTIFACT_KINDS:
        for event in ("builds", "hits"):
            key = f"artifact.{kind}.{event}"
            metrics[key] = (counters.get(key, 0) / ops, "count")
    if workload == "service-mix":
        unattributed = service["_unattributed"]
    else:
        layers = sum(self_s.get(name, 0.0) for name in LAYER_SPANS)
        invocations = len(plan.ops) if plan.warm_cache is not None else 1
        startup = invocations * import_s
        unattributed = 1.0 - (layers + startup) / cli_s if cli_s else 1.0
    metrics["unattributed_share"] = (unattributed, "ratio")
    metrics.update((k, v) for k, v in service.items() if not k.startswith("_"))
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    out.metrics = metrics
    out.report = [(name, value, unit) for name, (value, unit) in metrics.items()]
    return out
