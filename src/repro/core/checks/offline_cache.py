"""Offline-cache fallback analysis (extended taxonomy).

Apps that *do* check connectivity before a request frequently handle the
offline branch by doing nothing — the user gets an empty screen where a
stale copy of yesterday's data would have served.  This pass reuses the
summary engine's connectivity facts (or the legacy callers-of closure)
to find requests that are connectivity-guarded, then requires some frame
of the request's call chains to also touch a local response cache
(:data:`~repro.libmodels.android.CACHE_WRITE_APIS` /
:data:`~repro.libmodels.android.CACHE_READ_APIS` — ``LruCache``,
``SharedPreferences``): caching the successful response or reading the
cached copy back is the fallback the offline branch needs.  Guarded
requests with no cache in reach are reported.

Requests with no connectivity check at all are the connectivity check's
findings, not this pass's — flagging them here would double-report the
same root cause.
"""

from __future__ import annotations

from ...libmodels.android import is_cache_api, is_connectivity_check
from ...obs import metrics
from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest
from .base import methods_invoking, request_frames


class OfflineCacheCheck:
    name = "offline-cache"

    def reads(self, options) -> tuple[str, ...]:
        names = ["requests", "callgraph"]
        if options.summary_based:
            names.append("summaries")
        return tuple(names)

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        registry = metrics()
        if ctx.summaries is not None:
            connectivity_methods = ctx.summaries.connectivity_methods()
        else:
            connectivity_methods = methods_invoking(ctx, is_connectivity_check)
        cache_methods = methods_invoking(ctx, is_cache_api)
        findings: list[Finding] = []
        for request in requests:
            registry.inc("check.offline_cache.sites_checked")
            frame_methods = {
                key
                for frames in request_frames(request)
                for key, _site in frames
            }
            if not frame_methods & connectivity_methods:
                continue  # unguarded: the connectivity check's finding
            if frame_methods & cache_methods:
                continue  # a cache read/write is in reach — fallback exists
            findings.append(
                Finding(
                    DefectKind.MISSED_OFFLINE_CACHE,
                    ctx.apk.package,
                    request.key,
                    request.stmt_index,
                    f"Connectivity-guarded {request.target.qualified} has "
                    f"no cached-response fallback for the offline branch",
                    request=request,
                    context=context_of(request),
                    details={"guarded": True},
                )
            )
            registry.inc("check.offline_cache.findings")
        return findings
