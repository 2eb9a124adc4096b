"""Call-graph substrate: CHA + Android async pseudo-edges + entry points."""

from .icc import (
    BroadcastSite,
    ICCModel,
    LaunchSite,
    build_icc_model,
)
from .cha import (
    CallEdge,
    CallGraph,
    EDGE_ASYNC_TASK,
    EDGE_DIRECT,
    EDGE_LIB_CALLBACK,
    EDGE_RUNNABLE,
)
from .entrypoints import (
    EntryPoint,
    MethodKey,
    discover_entry_points,
    entry_points_by_key,
    method_key,
)
from .reachability import (
    CallChain,
    chains_to_method,
    chains_to_methods,
    entries_reaching,
)
from .resolve import collect_field_types, origin_classes

__all__ = [
    "BroadcastSite",
    "CallChain",
    "CallEdge",
    "CallGraph",
    "EDGE_ASYNC_TASK",
    "EDGE_DIRECT",
    "EDGE_LIB_CALLBACK",
    "EDGE_RUNNABLE",
    "EntryPoint",
    "ICCModel",
    "LaunchSite",
    "build_icc_model",
    "MethodKey",
    "chains_to_method",
    "chains_to_methods",
    "collect_field_types",
    "discover_entry_points",
    "entries_reaching",
    "entry_points_by_key",
    "method_key",
    "origin_classes",
]
