"""Connectivity-check analysis (paper §4.4.1, control-flow part).

For each path from an entry point to a network request, NChecker checks
whether a connectivity-checking API (``getActiveNetworkInfo`` & co., or
an app helper wrapping one) is invoked on the path; requests not guarded
by any check are reported.

The default mode is **path-insensitive**, like the paper's: a check that
*precedes* the request on the path counts even if its result does not
actually guard the request.  That choice is what produced the paper's 5
known false negatives (Table 9); the ``guard_aware`` ablation flag makes
the analysis require the request to be control-dependent on a branch
derived from the check, eliminating that FN class at extra cost.

Conversely the paper's connectivity FPs come from checks performed in a
*different component* (before starting the Activity that issues the
request) — invisible without inter-component analysis.  Our corpus
injects that pattern, and this check exhibits the same FP behaviour.
"""

from __future__ import annotations

from ...callgraph.entrypoints import MethodKey
from ...dataflow.slicing import Slicer
from ...ir.values import InvokeExpr
from ...libmodels.android import is_connectivity_check
from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest
from .base import methods_invoking, request_frames

#: App connectivity helpers by (method name, arity) → declaring classes.
HelperIndex = dict[tuple[str, int], frozenset[str]]


class ConnectivityCheck:
    name = "connectivity"

    def reads(self, options) -> tuple[str, ...]:
        names = ["requests"]
        if self.interprocedural:
            names.append("callgraph")
            if options.summary_based:
                names.append("summaries")
        if options.inter_component:
            names.append("icc-model")
        return tuple(names)

    def __init__(
        self,
        guard_aware: bool = False,
        interprocedural: bool = True,
        icc_model=None,
    ) -> None:
        self.guard_aware = guard_aware
        self.interprocedural = interprocedural
        #: Optional :class:`repro.callgraph.icc.ICCModel`: when present,
        #: a connectivity check performed in a *launcher* component before
        #: starting the request's component also guards the request —
        #: closing the paper's inter-component FP class (§4.7).
        self.icc_model = icc_model

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        checker_methods: set[MethodKey] = set()
        if self.interprocedural:
            if ctx.summaries is not None:
                # Summary mode: the engine's memoized transitive fact —
                # computed once per app, shared across checks and repeat
                # scans — replaces the private callers-of fixpoint.
                checker_methods = ctx.summaries.connectivity_methods()
            else:
                checker_methods = methods_invoking(ctx, is_connectivity_check)
        # Built per run, never kept on the check: the daemon reuses check
        # objects across apps.
        helpers = _helper_index(checker_methods)
        findings: list[Finding] = []
        for request in requests:
            unguarded = self._unguarded_chains(ctx, request, helpers)
            if unguarded == 0:
                continue
            findings.append(
                Finding(
                    DefectKind.MISSED_CONNECTIVITY_CHECK,
                    ctx.apk.package,
                    request.key,
                    request.stmt_index,
                    f"Missing network connectivity check before "
                    f"{request.target.qualified}",
                    request=request,
                    context=context_of(request),
                    details={"unguarded_chains": unguarded},
                )
            )
        return findings

    # ------------------------------------------------------------------

    def _unguarded_chains(
        self,
        ctx: AnalysisContext,
        request: NetworkRequest,
        helpers: HelperIndex,
    ) -> int:
        """Number of entry→request chains with no connectivity check."""
        unguarded = 0
        for frames in request_frames(request):
            if not self._chain_checked(ctx, frames, helpers):
                unguarded += 1
        return unguarded

    def _chain_checked(
        self,
        ctx: AnalysisContext,
        frames: list[tuple[MethodKey, int]],
        helpers: HelperIndex,
    ) -> bool:
        if not self.interprocedural:
            frames = frames[-1:]
        for key, site in frames:
            method = ctx.callgraph.methods.get(key)
            if method is None:
                continue
            if self._checked_in_method(ctx, method, site, helpers):
                return True
        if self.icc_model is not None and frames:
            return self._checked_by_launcher(ctx, frames[0][0], helpers)
        return False

    def _checked_by_launcher(
        self, ctx: AnalysisContext, entry_key: MethodKey, helpers: HelperIndex
    ) -> bool:
        """ICC extension: a check preceding the ``startActivity`` that
        launches this component counts as guarding its requests."""
        component_class = entry_key[0]
        for site in self.icc_model.launchers_of(component_class):
            launcher = ctx.callgraph.methods.get(site.caller)
            if launcher is None:
                continue
            if self._checked_in_method(ctx, launcher, site.stmt_index, helpers):
                return True
        return False

    def _checked_in_method(
        self, ctx, method, before_site: int, helpers: HelperIndex
    ) -> bool:
        cfg = ctx.cache.cfg(method)
        check_sites = []
        for idx, invoke in method.invoke_sites():
            if idx == before_site:
                continue
            if _is_check_invoke(invoke, helpers):
                if cfg.reaches(idx, before_site):
                    check_sites.append(idx)
        if not check_sites:
            return False
        if not self.guard_aware:
            return True
        # Guard-aware: the call site must be control-dependent (transitively)
        # on a branch whose condition derives from a check's result.
        slicer = Slicer(cfg, ctx.cache.defuse(method))
        guard_slice = slicer.backward_slice(before_site, locals_of_interest=set())
        return any(site in guard_slice for site in check_sites)


def _helper_index(checker_methods: set[MethodKey]) -> HelperIndex:
    grouped: dict[tuple[str, int], set[str]] = {}
    for cls_name, name, arity in checker_methods:
        grouped.setdefault((name, arity), set()).add(cls_name)
    return {sig: frozenset(classes) for sig, classes in grouped.items()}


def _is_check_invoke(invoke: InvokeExpr, helpers: HelperIndex) -> bool:
    if is_connectivity_check(invoke):
        return True
    # A call into an app helper that performs the check; an unresolved
    # receiver matches a helper of any class.
    classes = helpers.get((invoke.sig.name, invoke.sig.arity))
    if classes is None:
        return False
    return invoke.sig.class_name == "?" or invoke.sig.class_name in classes
