"""Batch scanner determinism: --jobs N output is byte-identical to
--jobs 1, findings stay input-order stable, errors match serial scans."""

import json

import pytest

from repro.cli import main
from repro.core import NCheckerOptions
from repro.obs import metrics, tracer, use_metrics
from repro.pipeline.batch import (
    BatchScanner,
    ScanTask,
    capture_telemetry,
    scan_corpus,
    scan_one,
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("apps")
    assert main(["corpus", str(out), "--apps", "4", "--no-ledger"]) == 0
    paths = sorted(out.glob("*.apkt"))
    assert len(paths) == 4
    return paths


class TestPayloadParity:
    def test_parallel_payloads_equal_serial(self, corpus_dir):
        paths = [str(p) for p in corpus_dir]
        serial = BatchScanner(jobs=1).scan_paths(paths, want_json=True)
        parallel = BatchScanner(jobs=4).scan_paths(paths, want_json=True)
        assert serial == parallel

    def test_payload_order_follows_input_order(self, corpus_dir):
        paths = [str(p) for p in reversed(corpus_dir)]
        payloads = BatchScanner(jobs=4).scan_paths(paths)
        assert [p.path for p in payloads] == paths

    def test_error_payload_matches_serial_message(self, tmp_path):
        missing = str(tmp_path / "gone.apkt")
        (payload,) = BatchScanner(jobs=1).scan_paths([missing])
        assert not payload.ok
        # The unit stores the bare text; the CLI prefixes "error: ".
        assert payload.error == f"no such file: {missing}"

    def test_options_reach_the_workers(self, corpus_dir):
        conn_only = NCheckerOptions(enabled_checks=frozenset({"connectivity"}))
        payloads = BatchScanner(options=conn_only, jobs=2).scan_paths(
            [str(p) for p in corpus_dir], want_json=True
        )
        kinds = {
            f["kind"] for p in payloads for f in p.json_dict["findings"]
        }
        assert kinds <= {"missed-connectivity-check"}


class TestScanUnit:
    """One unit serves files and submitted text alike."""

    def test_submitted_text_renders_like_the_file(self, corpus_dir):
        path = str(corpus_dir[0])
        wants = dict(want_json=True, want_sarif=True)
        from_file = scan_one(ScanTask(path, **wants))
        from_text = scan_one(
            ScanTask(path, text=corpus_dir[0].read_text(), **wants)
        )
        assert from_text == from_file
        assert from_file.json_dict and from_file.sarif_results

    def test_parse_error_names_the_source(self):
        payload = scan_one(ScanTask("upload.apkt", text="not an app"))
        assert not payload.ok
        assert payload.error.startswith("upload.apkt: ")

    def test_a_passed_checker_is_reused(self, corpus_dir):
        from repro.core import NChecker

        checker = NChecker()
        task = ScanTask(str(corpus_dir[0]), want_json=True)
        with use_metrics() as registry:
            first = scan_one(task, checker)
            second = scan_one(task, checker)
        assert first == second
        assert registry.counter_value("artifact.callgraph.builds") == 1

    def test_each_warm_job_reports_its_own_artifact_counts(self, corpus_dir):
        """A daemon worker reuses one checker (and so one warm artifact
        store) across jobs, each captured under its own registry: every
        job's snapshot carries the artifact events of that job."""
        from repro.core import NChecker

        checker = NChecker()
        task = ScanTask(str(corpus_dir[0]), want_metrics=True)
        cold, warm, again = (
            scan_one(task, checker).metrics_snapshot["counters"]
            for _ in range(3)
        )
        assert cold.get("artifact.callgraph.builds") == 1
        for snapshot in (warm, again):
            assert snapshot.get("artifact.requests.hits", 0) >= 1
            assert snapshot.get("artifact.callgraph.builds", 0) == 0

    def test_capture_installs_nothing_when_nothing_is_asked(self):
        outer_tracer, outer_registry = tracer(), metrics()
        with capture_telemetry() as telemetry:
            assert tracer() is outer_tracer and metrics() is outer_registry
        assert telemetry.events == [] and telemetry.snapshot is None
        with capture_telemetry(metrics=True):
            assert not tracer().enabled and metrics() is not outer_registry
        assert tracer() is outer_tracer and metrics() is outer_registry


class TestCliByteIdentity:
    def run_cli(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out

    def test_json_output_identical_across_jobs(self, corpus_dir, capsys):
        paths = [str(p) for p in corpus_dir]
        code1, out1 = self.run_cli(["scan", "--json", *paths], capsys)
        code4, out4 = self.run_cli(["scan", "--json", "--jobs", "4", *paths], capsys)
        assert code1 == code4
        assert out1 == out4
        json.loads(out1)  # stdout stays pure JSON

    def test_report_output_identical_across_jobs(self, corpus_dir, capsys):
        paths = [str(p) for p in corpus_dir]
        _, out1 = self.run_cli(["scan", *paths], capsys)
        _, out3 = self.run_cli(["scan", "--jobs", "3", *paths], capsys)
        assert out1 == out3

    def test_sarif_file_identical_across_jobs(self, corpus_dir, tmp_path, capsys):
        paths = [str(p) for p in corpus_dir]
        s1, s4 = tmp_path / "a.sarif", tmp_path / "b.sarif"
        self.run_cli(["scan", "--sarif", str(s1), *paths], capsys)
        self.run_cli(["scan", "--sarif", str(s4), "--jobs", "4", *paths], capsys)
        assert s1.read_bytes() == s4.read_bytes()
        log = json.loads(s1.read_text())
        assert log["runs"][0]["results"]

    def test_missing_file_exits_2_in_parallel_mode(self, corpus_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--jobs", "2", str(corpus_dir[0]), "/no/such.apkt"])
        assert exc.value.code == 2
        assert "error: no such file" in capsys.readouterr().err


class TestCorpusFanout:
    def test_parallel_corpus_scan_matches_serial(self):
        from repro.corpus.profiles import PAPER_PROFILE

        serial = scan_corpus(PAPER_PROFILE, 6, jobs=1)
        parallel = scan_corpus(PAPER_PROFILE, 6, jobs=2)
        assert [r.package for r in serial] == [r.package for r in parallel]
        assert [
            [(f.kind, f.method_key, f.stmt_index) for f in r.findings]
            for r in serial
        ] == [
            [(f.kind, f.method_key, f.stmt_index) for f in r.findings]
            for r in parallel
        ]
