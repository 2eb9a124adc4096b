"""Experimental network-switch analysis (paper Cause 4 — future work).

The paper's study found 30 % of NPDs were mishandled network switches
(Table 3), but NChecker could not check them: "there is no library APIs
related to them" (§4.2).  For connection-oriented protocols there *is* a
checkable contract, and this pass implements it for the aSmack model:

* **No reconnection on switch (Cause 4.1)** — an app holding a long-lived
  ``XMPPConnection`` must either enable the library's reconnection
  manager (``setReconnectionAllowed(true)``) or register a connectivity
  monitor (``registerReceiver`` / ``registerNetworkCallback``) so it can
  tear down the stale connection and rebuild it (the GTalkSMS bug the
  paper cites: "when the network status changes, the app still tries to
  receive data from the stale connections").

The check is off by default (``NCheckerOptions(check_network_switch=
True)`` enables it) and only examines apps that actually use a
connection-oriented library.
"""

from __future__ import annotations

from ...libmodels.asmack import (
    LONG_LIVED_CONNECTION_CLASSES,
    is_connectivity_monitor,
)
from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest


class NetworkSwitchCheck:
    name = "network-switch"

    def reads(self, options) -> tuple[str, ...]:
        return ("requests",)

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        connection_requests = [
            r
            for r in requests
            if r.invoke.sig.class_name in LONG_LIVED_CONNECTION_CLASSES
            or r.library.key == "asmack"
        ]
        if not connection_requests:
            return []
        if self._app_monitors_connectivity(ctx):
            return []
        if self._reconnection_enabled(ctx):
            return []
        # One finding per connect() site (the anchor of the stale-connection
        # hazard); login/send sites share the connection's fate.
        findings: list[Finding] = []
        for request in connection_requests:
            if request.invoke.sig.name != "connect":
                continue
            findings.append(
                Finding(
                    DefectKind.NO_RECONNECT_ON_SWITCH,
                    ctx.apk.package,
                    request.key,
                    request.stmt_index,
                    "Long-lived XMPP connection is never re-established on "
                    "network switches (no connectivity receiver, reconnection "
                    "manager disabled)",
                    request=request,
                    context=context_of(request),
                )
            )
        return findings

    @staticmethod
    def _app_monitors_connectivity(ctx: AnalysisContext) -> bool:
        for method in ctx.apk.methods():
            for _idx, invoke in method.invoke_sites():
                if is_connectivity_monitor(invoke):
                    return True
        return False

    @staticmethod
    def _reconnection_enabled(ctx: AnalysisContext) -> bool:
        for method in ctx.apk.methods():
            constants = None
            for idx, invoke in method.invoke_sites():
                if invoke.sig.name != "setReconnectionAllowed":
                    continue
                if not invoke.args:
                    continue
                if constants is None:
                    constants = ctx.cache.constants(method)
                value = constants.constant_argument(idx, invoke.args[0])
                if value is True or value is None:  # unknown: assume enabled
                    return True
        return False
