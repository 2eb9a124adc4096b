"""The scan unit, and its fan-out across worker processes.

:func:`scan_one` is the one thing NChecker does per app: load it (from a
file path, or from submitted ``.apkt`` text), run the enabled analyses,
and render every output the :class:`ScanTask` asks for into a
:class:`ScanPayload` — report texts, stats rows, per-kind counts, the
``--json`` dict, SARIF result objects — together with the telemetry it
asks for (span events, a metrics snapshot carrying the profile tree).
``nchecker scan``, ``nchecker bench record|gate`` and the ``nchecker
serve`` workers all run it, so a daemon result is byte-identical to
``nchecker scan`` on the same app by construction.  The caller decides
how long a checker lives: it passes one in (the daemon keeps one warm
checker per worker process) or lets the unit make a fresh one per app
(the CLI, so its session cache never grows across a large batch).

Payloads are fully *rendered* rather than live analysis objects, so the
parent never re-derives anything and the bytes printed are the same
whether one process produced them or eight.  Determinism contract:
``ProcessPoolExecutor.map`` preserves input order, rendering is a pure
function of one app, and ``--jobs 1`` runs the *same* unit in-process —
so CLI output is byte-identical across job counts.

:func:`scan_corpus` applies the same fan-out to the synthetic evaluation
corpus (generation is deterministic per app index, so workers regenerate
their slice instead of shipping APKs over the pipe, and each slice runs
under one checker).
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..core.checker import NCheckerOptions
from ..obs import (
    MetricsRegistry,
    Tracer,
    merge_snapshots,
    profile_from_events,
    set_metrics,
    set_tracer,
    span,
)

if TYPE_CHECKING:
    from ..core.checker import NChecker, ScanResult
    from ..corpus.profiles import CorpusProfile


@dataclass(frozen=True)
class ScanTask:
    """Picklable work order for one app.

    ``source`` names the app: a file path, or — when ``text`` carries the
    submitted ``.apkt`` document — its client-side filename.  Either way
    it is the SARIF artifact URI and the prefix of a load error.
    """

    source: str
    options: NCheckerOptions = NCheckerOptions()
    text: Optional[str] = None
    #: Outputs to render.  JSON and SARIF are the machine modes: with
    #: either one, nothing else is rendered per app.
    want_json: bool = False
    want_sarif: bool = False
    want_stats: bool = False
    want_summary: bool = False
    #: Telemetry to capture (see :func:`capture_telemetry`).
    want_trace: bool = False
    want_metrics: bool = False
    want_profile: bool = False


@dataclass
class ScanPayload:
    """Rendered scan output for one app (or the error that prevented it).

    Everything the CLI prints and the daemon serves is pre-rendered here,
    in the worker, so the parent only concatenates strings.
    """

    path: str
    ok: bool
    #: ``"no such file: <path>"`` or ``"<source>: <reason>"``; the CLI
    #: prefixes ``error: ``, the daemon reports it bare.
    error: str = ""
    package: str = ""
    n_findings: int = 0
    n_requests: int = 0
    #: ``(label, value)`` rows from ``app_metrics`` (``--stats``).
    stats_rows: list = field(default_factory=list)
    #: Sorted ``(kind, count)`` pairs (``--summary``).
    summary_counts: list = field(default_factory=list)
    #: Rendered §4.6 warning reports (default output mode).
    report_texts: list = field(default_factory=list)
    #: ``ScanResult.to_dict()`` (``--json``).
    json_dict: Optional[dict] = None
    #: Finding kind values + SARIF result objects (``--sarif``).
    sarif_kind_values: list = field(default_factory=list)
    sarif_results: list = field(default_factory=list)
    #: Chrome trace events from this app's scan (``--trace``).
    trace_events: list = field(default_factory=list)
    #: Metrics snapshot of this app's scan (``--metrics``/``--stats``).
    metrics_snapshot: Optional[dict] = None


@dataclass
class Telemetry:
    """What :func:`capture_telemetry` collected: span events (when a
    trace was asked for) and a metrics snapshot (when metrics or a
    profile were; the profile tree rides in it under ``"profile"``)."""

    events: list = field(default_factory=list)
    snapshot: Optional[dict] = None


@contextmanager
def capture_telemetry(trace: bool = False, metrics: bool = False,
                      profile: bool = False):
    """Install a fresh tracer and metrics registry for the block; the
    yielded :class:`Telemetry` is filled in when the block exits.

    Asking for nothing installs nothing, so an uninstrumented scan runs
    exactly as it would without this wrapper, and the tracer stays
    disabled unless a trace or a profile (which folds the span stream)
    is asked for.  Every scan and corpus slice captures its own
    telemetry and ships it back; the caller merges snapshots, so the
    telemetry of a parallel run is the sum of its per-app snapshots
    whichever process scanned which app.
    """
    captured = Telemetry()
    if not (trace or metrics or profile):
        yield captured
        return
    tracer = Tracer(enabled=trace or profile)
    registry = MetricsRegistry()
    old_tracer, old_registry = set_tracer(tracer), set_metrics(registry)
    try:
        yield captured
    finally:
        set_tracer(old_tracer)
        set_metrics(old_registry)
    events = tracer.export()
    if trace:
        captured.events = events
    if metrics or profile:
        captured.snapshot = registry.snapshot()
        if profile:
            captured.snapshot["profile"] = profile_from_events(events)


def scan_one(task: ScanTask, checker: "Optional[NChecker]" = None) -> ScanPayload:
    """The scan unit: load, scan and render one app under the telemetry
    the task asks for.  ``checker`` defaults to a fresh ``NChecker`` for
    the task's options.  Module-level so a process pool can dispatch it."""
    with capture_telemetry(
        task.want_trace, task.want_metrics, task.want_profile
    ) as telemetry:
        payload = _render(task, checker)
    payload.trace_events = telemetry.events
    payload.metrics_snapshot = telemetry.snapshot
    return payload


def _render(task: ScanTask, checker: "Optional[NChecker]") -> ScanPayload:
    from ..app.loader import load_apk, loads_apk

    source = task.source
    try:
        with span("load", path=source):
            apk = load_apk(source) if task.text is None else loads_apk(task.text)
    except FileNotFoundError:
        return ScanPayload(source, ok=False, error=f"no such file: {source}")
    except ValueError as exc:  # ParseError, or an undecodable file
        return ScanPayload(source, ok=False, error=f"{source}: {exc}")

    if checker is None:
        from ..core.checker import NChecker

        # A one-shot checker never sees the app again: no session cache.
        result = NChecker(options=task.options).open_session(apk).scan()
    else:
        result = checker.scan(apk)
    payload = ScanPayload(
        source,
        ok=True,
        package=apk.package,
        n_findings=len(result.findings),
        n_requests=len(result.requests),
    )
    if task.want_json:
        payload.json_dict = result.to_dict()
    if task.want_sarif:
        from ..eval.sarif import finding_result

        uri = Path(source).as_posix()
        payload.sarif_kind_values = [f.kind.value for f in result.findings]
        payload.sarif_results = [finding_result(f, uri) for f in result.findings]
    if task.want_json or task.want_sarif:
        return payload  # machine output modes print nothing per app
    if task.want_stats:
        from ..ir.metrics import app_metrics

        payload.stats_rows = list(app_metrics(apk).as_rows())
    if task.want_summary:
        payload.summary_counts = sorted(result.summary().items())
    else:
        payload.report_texts = [report.render() for report in result.reports()]
    return payload


def _fan_out(fn, tasks: list, jobs: int, progress=None) -> list:
    """``[fn(task) for task in tasks]``, across up to ``jobs`` worker
    processes when there is more than one task; input order is kept, and
    ``progress(done, total, result)`` sees each result as it lands."""
    with ExitStack() as stack:
        results = map(fn, tasks)
        if jobs > 1 and len(tasks) > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
            )
            results = pool.map(fn, tasks)
        out = []
        for result in results:
            out.append(result)
            if progress is not None:
                progress(len(out), len(tasks), result)
        return out


@dataclass
class BatchScanner:
    """Run the scan unit over app files, in-process for ``jobs <= 1``,
    else across a process pool; output order follows input order."""

    options: NCheckerOptions = NCheckerOptions()
    jobs: int = 1

    def scan_paths(
        self,
        paths: Sequence[str],
        progress: Optional[Callable[[int, int, ScanPayload], None]] = None,
        **wants: bool,
    ) -> list[ScanPayload]:
        """Scan ``paths``; ``wants`` are :class:`ScanTask`'s ``want_*``
        flags.  ``progress(done, total, payload)`` is invoked as each
        app's payload lands (in input order — the heartbeat the CLI's
        ``--progress`` prints)."""
        tasks = [ScanTask(str(path), self.options, **wants) for path in paths]
        return _fan_out(scan_one, tasks, self.jobs, progress)


# ---------------------------------------------------------------------------
# Corpus fan-out (experiments / benchmarks)
# ---------------------------------------------------------------------------


def _scan_corpus_chunk(task) -> tuple:
    """Regenerate and scan one slice of corpus app indices under one
    checker; returns the ``(index, result)`` pairs plus the slice's
    metrics snapshot (``None`` when the caller asked for no telemetry)."""
    profile, indices, options, collect = task
    from ..core.checker import NChecker
    from ..corpus.generator import CorpusGenerator

    with capture_telemetry(metrics=collect) as telemetry:
        generator = CorpusGenerator(profile)
        checker = NChecker(options=options)
        out = []
        for index in indices:
            apk, _truth = generator.generate_app(index)
            out.append((index, checker.scan(apk)))
    return out, telemetry.snapshot


def scan_corpus(
    profile: "CorpusProfile",
    n_apps: int,
    jobs: int = 1,
    options: NCheckerOptions = NCheckerOptions(),
    telemetry: Optional[dict] = None,
) -> "list[ScanResult]":
    """Scan the synthetic corpus, optionally across worker processes.

    Returns results in app-index order regardless of ``jobs`` (generation
    is deterministic per index, so workers regenerate their own slice and
    the parent just reorders).

    Pass a dict as ``telemetry`` to receive the run's merged metrics
    snapshot in it (generation + scan counters and timings, summed over
    workers) — the public accounting the benchmarks and experiments
    assert on instead of reaching into store internals.
    """
    profile = profile.scaled(n_apps)
    workers = max(1, min(jobs, n_apps))
    # Round-robin slices balance the load; the final sort restores input
    # order.
    chunks = [
        (profile, tuple(range(start, n_apps, workers)), options,
         telemetry is not None)
        for start in range(workers)
    ]
    chunk_results = _fan_out(_scan_corpus_chunk, chunks, workers)
    indexed = [pair for pairs, _snap in chunk_results for pair in pairs]
    indexed.sort(key=lambda pair: pair[0])
    if telemetry is not None:
        telemetry.update(merge_snapshots([snap for _pairs, snap in chunk_results]))
    return [result for _index, result in indexed]
