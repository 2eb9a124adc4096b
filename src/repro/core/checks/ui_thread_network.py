"""UI-thread network-call analysis (extended taxonomy).

A *blocking* target API invoked from a method that may execute on the
main (UI) thread freezes the interface for the request's whole duration
and — on Android 3.0+ — crashes with ``NetworkOnMainThreadException``.
The thread-context analysis (:mod:`repro.dataflow.threadcontext`)
supplies the per-method may-run-on fact; this pass flags every blocking
request whose enclosing method may run on the main thread.

Asynchronous target APIs (``Call.enqueue``, Volley's ``queue.add``,
loopj's ``get``/``post``) are safe to *submit* from the main thread —
the library moves the transfer off-thread — and are never flagged.
"""

from __future__ import annotations

from ...obs import metrics
from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest


class UiThreadNetworkCheck:
    name = "ui-thread-network"

    def reads(self, options) -> tuple[str, ...]:
        return ("requests", "callgraph", "threadcontext")

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        registry = metrics()
        findings: list[Finding] = []
        contexts = ctx.threadcontext
        if contexts is None:
            return findings
        for request in requests:
            registry.inc("check.ui_thread_network.sites_checked")
            if request.target.is_async:
                continue
            if not contexts.may_run_on_main(request.key):
                continue
            findings.append(
                Finding(
                    DefectKind.UI_THREAD_NETWORK,
                    ctx.apk.package,
                    request.key,
                    request.stmt_index,
                    f"Blocking {request.target.qualified} may execute on "
                    f"the main (UI) thread",
                    request=request,
                    context=context_of(request),
                    details={"thread_context": contexts.describe(request.key)},
                )
            )
            registry.inc("check.ui_thread_network.findings")
        return findings
