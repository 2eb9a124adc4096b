"""Inter-component communication (ICC) analysis — the paper's future work.

NChecker's §4.7 names its two FP sources: connectivity checks performed in
a *launcher* component before ``startActivity``, and failure notifications
delivered by broadcasting an error that *another* component displays.
The paper planned to integrate IccTA to close them; this module is a
lightweight equivalent:

* **Launch edges** — ``startActivity(intent)`` / ``startService(intent)``
  sites whose Intent's target component we can resolve (explicit Intents:
  the constructor's class-name argument).
* **Broadcast display** — ``sendBroadcast(intent)`` sites, plus the set of
  in-app components that receive broadcasts (an ``onReceive`` method) and
  surface a UI message.

The analyses consume this through
:class:`~repro.core.checker.NCheckerOptions` ``inter_component=True``;
the Table 9 ablation shows the 9 FPs vanish while the FN count is
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..app.apk import APK
from ..ir.method import IRMethod
from ..ir.statements import AssignStmt
from ..ir.values import Const, InvokeExpr, Local, NewExpr
from ..libmodels.android import is_ui_notification
from .entrypoints import MethodKey, method_key
from ..dataflow.taint import trace_origins

if TYPE_CHECKING:
    from ..pipeline.artifacts import ArtifactStore

#: Methods that transfer control to another component.
LAUNCH_METHODS = frozenset({"startActivity", "startActivityForResult", "startService"})
BROADCAST_METHODS = frozenset({"sendBroadcast", "sendOrderedBroadcast", "sendStickyBroadcast"})
INTENT_CLASS = "android.content.Intent"


@dataclass(frozen=True)
class LaunchSite:
    """One resolved component launch."""

    caller: MethodKey
    stmt_index: int
    #: Target component class, or None when the Intent is implicit.
    target: Optional[str]


@dataclass(frozen=True)
class BroadcastSite:
    caller: MethodKey
    stmt_index: int


@dataclass
class ICCModel:
    """The app's inter-component flows."""

    launches: list[LaunchSite] = field(default_factory=list)
    broadcasts: list[BroadcastSite] = field(default_factory=list)
    #: Components that receive broadcasts and show a UI message.
    ui_broadcast_receivers: set[str] = field(default_factory=set)

    def launchers_of(self, component: str) -> list[LaunchSite]:
        """Launch sites that (may) start ``component``.

        Sites with an unresolved (implicit) Intent target are treated as
        potentially starting any component — the conservative direction
        for suppressing false positives."""
        return [
            site
            for site in self.launches
            if site.target == component or site.target is None
        ]

    @property
    def broadcasts_displayed(self) -> bool:
        """True when the app routes broadcast errors to a UI surface."""
        return bool(self.broadcasts) and bool(self.ui_broadcast_receivers)


def build_icc_model(apk: APK, cache: "ArtifactStore") -> ICCModel:
    """Scan the app for ICC sites and broadcast-display components."""
    model = ICCModel()
    for cls in apk.classes():
        for method in cls.methods():
            _scan_method(method, cache, model)
            if method.name == "onReceive" and _shows_ui(method):
                model.ui_broadcast_receivers.add(cls.name)
    return model


def _scan_method(method: IRMethod, cache: "ArtifactStore", model: ICCModel) -> None:
    for idx, invoke in method.invoke_sites():
        name = invoke.sig.name
        if name in LAUNCH_METHODS:
            target = _resolve_intent_target(method, idx, invoke, cache)
            model.launches.append(LaunchSite(method_key(method), idx, target))
        elif name in BROADCAST_METHODS:
            model.broadcasts.append(BroadcastSite(method_key(method), idx))


def _resolve_intent_target(
    method: IRMethod, idx: int, invoke: InvokeExpr, cache: "ArtifactStore"
) -> Optional[str]:
    """Explicit-Intent resolution: find the Intent's allocation and read a
    class-name string from its constructor arguments."""
    intent_local = next((a for a in invoke.args if isinstance(a, Local)), None)
    if intent_local is None:
        return None
    cfg = cache.cfg(method)
    defuse = cache.defuse(method)
    for origin in trace_origins(cfg, idx, intent_local.name, defuse):
        if origin < 0:
            continue
        stmt = method.statements[origin]
        if not (isinstance(stmt, AssignStmt) and isinstance(stmt.value, NewExpr)):
            continue
        if stmt.value.class_name != INTENT_CLASS:
            continue
        for ctor_idx in range(origin + 1, len(method.statements)):
            ctor = method.statements[ctor_idx].invoke()
            if ctor is not None and ctor.is_constructor and ctor.base == stmt.target:
                for arg in ctor.args:
                    if isinstance(arg, Const) and isinstance(arg.value, str):
                        if "." in arg.value:  # looks like a class name
                            return arg.value
                break
    return None


def _shows_ui(method: IRMethod) -> bool:
    return any(is_ui_notification(invoke) for _i, invoke in method.invoke_sites())
