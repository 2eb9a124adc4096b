"""Correctness oracle: score scan output against the generator's ledger.

The oracle never asks the checker what the right answer is.  It reads the
findings document a scan produced (``nchecker scan --json`` stdout or a
daemon's ``/v1/scans/{id}/findings`` body, which are the same format) and
scores it with :mod:`repro.corpus.groundtruth`, whose ledger records what
the corpus generator injected into each app.

A document *fails* the check when it cannot be scored: it is not a list of
app entries, an app the ledger expects is missing or duplicated, a finding
names an unknown defect kind or a malformed location, or the set of
request sites the scan reports differs from the set the generator
injected.  False positives and false negatives are not failures: the
paper's checker has both by design, and they show up in
``warning_precision`` and ``defect_recall`` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.defects import DefectKind
from repro.corpus.groundtruth import (
    TABLE9_ROWS,
    AppGroundTruth,
    Confusion,
    confusion_for_app,
)


class LedgerMismatch(ValueError):
    """A findings document that cannot be reconciled with the ledger."""


@dataclass(frozen=True)
class _Finding:
    """The fields of a JSON finding that ``confusion_for_app`` reads."""

    kind: DefectKind
    method_key: tuple[str, str, int]
    request: None = None


@dataclass(frozen=True)
class _Result:
    findings: list


def _split_location(location: object) -> tuple[str, str]:
    """``pkg.Class.method:12`` -> ``("pkg.Class", "method")``."""
    if not isinstance(location, str) or ":" not in location:
        raise LedgerMismatch(f"malformed location {location!r}")
    qualified = location.rsplit(":", 1)[0]
    cls, dot, name = qualified.rpartition(".")
    if not dot or not cls or not name:
        raise LedgerMismatch(f"malformed location {location!r}")
    return cls, name


def _entry_result(entry: dict) -> _Result:
    findings = []
    for finding in entry.get("findings", []):
        try:
            kind = DefectKind(finding["kind"])
        except (KeyError, TypeError, ValueError):
            raise LedgerMismatch(f"unknown finding kind in {finding!r}")
        cls, name = _split_location(finding.get("location"))
        findings.append(_Finding(kind, (cls, name, 0)))
    return _Result(findings)


def _check_requests(truth: AppGroundTruth, entry: dict) -> None:
    reported = sorted(
        _split_location(r.get("location")) for r in entry.get("requests", [])
    )
    injected = sorted((r.host_class, r.host_method) for r in truth.requests)
    if reported != injected:
        raise LedgerMismatch(
            f"{truth.package}: scan reports {len(reported)} request site(s), "
            f"the ledger injected {len(injected)}"
        )


def score_app(truth: AppGroundTruth, entry: dict) -> dict[str, Confusion]:
    """Table 9 confusions of one app's findings entry against its ledger
    record; raises :class:`LedgerMismatch` when the entry is unusable."""
    if not isinstance(entry, dict) or entry.get("package") != truth.package:
        raise LedgerMismatch(f"no findings entry for {truth.package}")
    _check_requests(truth, entry)
    result = _entry_result(entry)
    return {
        label: confusion_for_app(truth, result, kinds)
        for label, kinds in TABLE9_ROWS
    }


def parse_document(text: str) -> list[dict]:
    """The app entries of one findings document."""
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise LedgerMismatch(f"findings document is not JSON: {exc}")
    if not isinstance(document, list) or not all(
        isinstance(entry, dict) for entry in document
    ):
        raise LedgerMismatch("findings document is not a list of app entries")
    return document


def score_document(
    truths: list[AppGroundTruth], text: str
) -> dict[str, Confusion]:
    """Table 9 confusions of a findings document that must hold exactly
    the apps in ``truths``."""
    entries = parse_document(text)
    by_package: dict[str, dict] = {}
    for entry in entries:
        package = entry.get("package")
        if package in by_package:
            raise LedgerMismatch(f"duplicate findings entry for {package}")
        by_package[package] = entry
    expected = {truth.package for truth in truths}
    if set(by_package) != expected:
        extra = sorted(set(by_package) - expected)
        missing = sorted(expected - set(by_package))
        raise LedgerMismatch(f"apps missing {missing[:3]}, unexpected {extra[:3]}")
    table = empty_table()
    for truth in truths:
        add_tables(table, score_app(truth, by_package[truth.package]))
    return table


def empty_table() -> dict[str, Confusion]:
    return {label: Confusion() for label, _ in TABLE9_ROWS}


def add_tables(total: dict[str, Confusion], part: dict[str, Confusion]) -> None:
    for label, confusion in part.items():
        total[label] = total[label] + confusion


def precision_recall(table: dict[str, Confusion]) -> tuple[float, float]:
    """``(correct / reported, correct / (correct + false negatives))``."""
    correct = sum(c.correct for c in table.values())
    reported = sum(c.reported for c in table.values())
    missed = sum(c.false_negatives for c in table.values())
    precision = correct / reported if reported else 1.0
    recall = correct / (correct + missed) if correct + missed else 1.0
    return precision, recall
