"""Output determinism across execution strategies.

The pipeline promises that *how* a scan is executed never changes *what*
it emits: process parallelism (``--jobs``), eager vs demand-driven
summary evaluation (``NCheckerOptions.eager_summaries``, a library and
test hook with no CLI flag), and the persistent disk cache (cold or
warm) are all execution details.  Every test here runs the same corpus
under one varied knob and asserts identity against the serial, lazy,
cache-less reference — for the human report, ``--json``, and ``--sarif``
alike — plus the deterministic counters where the knob promises it.
CLI knobs are exercised through the real CLI and compared byte for byte;
option knobs are passed through the scan unit and compared payload for
payload (the CLI prints nothing but what the payloads carry).
"""

from __future__ import annotations

import json

import pytest

from repro.app import save_apk
from repro.cli import main
from repro.core import NCheckerOptions
from repro.corpus import CorpusGenerator, PAPER_PROFILE
from repro.obs import merge_snapshots
from repro.pipeline.batch import BatchScanner

EAGER = NCheckerOptions(eager_summaries=True)

#: Variants that must not change any scan output: CLI argument bundles
#: (lists) or ``(options, jobs)`` pairs run through the scan unit.
VARIANTS = {
    "eager-summaries": (EAGER, 1),
    "process-parallel": ["--jobs", "2"],
    "everything-at-once": (EAGER, 2),
}

#: The scan unit's output flags for each CLI output mode.
MODE_WANTS = {
    "report": {},
    "json": {"want_json": True},
    "sarif": {"want_sarif": True},
}


@pytest.fixture(scope="module")
def app_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism-corpus")
    paths = []
    for apk, _truth in CorpusGenerator(PAPER_PROFILE.scaled(6)).generate():
        path = root / f"{apk.package}.apkt"
        save_apk(apk, path)
        paths.append(str(path))
    return paths


def _scan(app_files, capsys, extra, mode_args):
    code = main(["scan", *extra, *mode_args, *app_files])
    return code, capsys.readouterr().out


def _unit(app_files, options, jobs, mode):
    return BatchScanner(options=options, jobs=jobs).scan_paths(
        app_files, **MODE_WANTS[mode]
    )


def _assert_identical(app_files, capsys, tmp_path, variant, mode):
    """The variant reproduces the reference output of one CLI mode."""
    knob = VARIANTS[variant]
    if isinstance(knob, tuple):
        reference = _unit(app_files, NCheckerOptions(), 1, mode)
        assert _unit(app_files, *knob, mode) == reference
        return
    if mode == "sarif":
        ref_file, got_file = tmp_path / "ref.sarif", tmp_path / "got.sarif"
        _scan(app_files, capsys, [], ["--sarif", str(ref_file)])
        _scan(app_files, capsys, knob, ["--sarif", str(got_file)])
        assert got_file.read_bytes() == ref_file.read_bytes()
        assert json.loads(ref_file.read_text())["runs"]
        return
    mode_args = ["--json"] if mode == "json" else []
    ref_code, ref_out = _scan(app_files, capsys, [], mode_args)
    got_code, got_out = _scan(app_files, capsys, knob, mode_args)
    assert got_code == ref_code
    assert got_out == ref_out
    if mode == "json":
        assert json.loads(ref_out)  # sanity: it really is the JSON mode


class TestByteIdentity:
    """stdout / --json / --sarif output is invariant under every knob."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_report_stdout(self, app_files, capsys, tmp_path, variant):
        _assert_identical(app_files, capsys, tmp_path, variant, "report")

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_json(self, app_files, capsys, tmp_path, variant):
        _assert_identical(app_files, capsys, tmp_path, variant, "json")

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_sarif(self, app_files, capsys, tmp_path, variant):
        _assert_identical(app_files, capsys, tmp_path, variant, "sarif")


def _counters(app_files, options):
    payloads = BatchScanner(options=options).scan_paths(
        app_files, want_metrics=True
    )
    return merge_snapshots([p.metrics_snapshot for p in payloads])["counters"]


class TestProfileAndCounters:
    def test_eager_does_strictly_more_scc_work(self, app_files):
        lazy = _counters(app_files, NCheckerOptions())
        eager = _counters(app_files, EAGER)
        # The demand-driven engine really ran.
        assert lazy["dataflow.bool_fact_sccs"] > 0
        assert eager["dataflow.bool_fact_sccs"] > lazy["dataflow.bool_fact_sccs"]
