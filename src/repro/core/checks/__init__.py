"""NChecker's analyses (paper §4.4 plus the extended taxonomy checks)
as pluggable checks."""

from __future__ import annotations

from .base import Check, methods_invoking, request_frames
from .callback_leak import CallbackLeakCheck
from .config_apis import ConfigAPICheck, RequestConfigInfo
from .connectivity import ConnectivityCheck
from .notification import NotificationCheck, NotificationInfo
from .offline_cache import OfflineCacheCheck
from .response import ResponseCheck
from .retry_params import RetryParameterCheck
from .ui_thread_network import UiThreadNetworkCheck


def check_catalog(options, icc_model=None) -> list[Check]:
    """One fresh instance of every registered check, in run order — the
    source of truth for ``nchecker checks`` and for the scan session,
    which runs the enabled checks in exactly this order (the
    retry-parameter check consumes the config check's per-request info,
    so it is listed after it).  ``options`` feeds the knobs a check's
    constructor or :meth:`~Check.reads` consults (summary mode, guard
    awareness); ``icc_model`` is the inter-component model the
    connectivity and notification checks consult when the session built
    one.  Whether a check actually *runs* is decided by
    ``options.enabled_checks``, which the caller compares names against.
    """
    config_check = ConfigAPICheck()
    return [
        config_check,
        ConnectivityCheck(
            guard_aware=options.guard_aware_connectivity,
            interprocedural=options.interprocedural_connectivity,
            icc_model=icc_model,
        ),
        RetryParameterCheck(config_check),
        NotificationCheck(options.notification_callee_depth, icc_model=icc_model),
        ResponseCheck(),
        # The extended (taxonomy-driven) checks: registered so
        # `enabled_checks` can switch them on, absent from the default
        # set so default-option output stays byte-identical.
        UiThreadNetworkCheck(),
        CallbackLeakCheck(),
        OfflineCacheCheck(),
    ]


__all__ = [
    "CallbackLeakCheck",
    "Check",
    "ConfigAPICheck",
    "ConnectivityCheck",
    "NotificationCheck",
    "NotificationInfo",
    "OfflineCacheCheck",
    "RequestConfigInfo",
    "ResponseCheck",
    "RetryParameterCheck",
    "UiThreadNetworkCheck",
    "check_catalog",
    "methods_invoking",
    "request_frames",
]
