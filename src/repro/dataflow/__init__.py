"""Dataflow framework: worklist solver plus the concrete analyses
NChecker needs (reaching definitions, def-use, liveness, constants,
taint, slicing)."""

from .constants import BOTTOM, ConstantPropagation, TOP
from .framework import DataflowAnalysis, SetAnalysis
from .liveness import Liveness
from .reaching import DefUseChains, ReachingDefinitions
from .slicing import Slicer
from .taint import ForwardTaint, TaintPolicy, trace_origins

# Imported last: the summary engine sits on top of the call graph, whose
# modules import the analyses above.
from .configvalues import ConfigCallValues, config_call_values
from .summaries import (
    CONFIG_TOP,
    ConfigEffect,
    MethodSummary,
    RECEIVER,
    SummaryEngine,
    SummaryStats,
    apk_fingerprint,
)

__all__ = [
    "BOTTOM",
    "CONFIG_TOP",
    "ConfigCallValues",
    "ConfigEffect",
    "ConstantPropagation",
    "DataflowAnalysis",
    "DefUseChains",
    "ForwardTaint",
    "Liveness",
    "MethodSummary",
    "RECEIVER",
    "ReachingDefinitions",
    "SetAnalysis",
    "Slicer",
    "SummaryEngine",
    "SummaryStats",
    "TOP",
    "TaintPolicy",
    "apk_fingerprint",
    "config_call_values",
    "trace_origins",
]
