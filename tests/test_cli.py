"""CLI tests (`nchecker scan|experiments|corpus`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.app import save_apk
from repro.cli import main
from repro.corpus.snippets import Connectivity, Notification, RequestSpec

from tests.conftest import single_request_app


@pytest.fixture()
def buggy_app_file(tmp_path):
    apk, _ = single_request_app(RequestSpec())
    path = tmp_path / "buggy.apkt"
    save_apk(apk, path)
    return path


@pytest.fixture()
def clean_app_file(tmp_path):
    spec = RequestSpec(
        connectivity=Connectivity.GUARDED,
        with_timeout=True,
        with_retry=True,
        retry_value=2,
        with_notification=Notification.TOAST,
        with_response_check=True,
    )
    apk, _ = single_request_app(spec, package="com.test.clean")
    path = tmp_path / "clean.apkt"
    save_apk(apk, path)
    return path


class TestScan:
    def test_buggy_app_exits_nonzero(self, buggy_app_file, capsys):
        code = main(["scan", str(buggy_app_file)])
        assert code == 1
        out = capsys.readouterr().out
        assert "NPD Information" in out
        assert "Fix Suggestion" in out

    def test_clean_app_exits_zero(self, clean_app_file, capsys):
        code = main(["scan", str(clean_app_file)])
        assert code == 0
        assert "0 NPD(s)" in capsys.readouterr().out

    def test_summary_mode(self, buggy_app_file, capsys):
        main(["scan", "--summary", str(buggy_app_file)])
        out = capsys.readouterr().out
        assert "missed-timeout" in out

    def test_guard_aware_flag(self, tmp_path, capsys):
        apk, _ = single_request_app(
            RequestSpec(connectivity=Connectivity.UNGUARDED)
        )
        path = tmp_path / "fn.apkt"
        save_apk(apk, path)
        # Default misses the unguarded-check defect...
        main(["scan", "--summary", str(path)])
        default_out = capsys.readouterr().out
        assert "missed-connectivity-check" not in default_out
        # ...guard-aware mode reports it.
        main(["scan", "--summary", "--guard-aware", str(path)])
        aware_out = capsys.readouterr().out
        assert "missed-connectivity-check" in aware_out


class TestStartupImports:
    def test_scan_never_imports_the_http_client_stack(self, buggy_app_file):
        """A default ``scan --json`` loads no network client
        modules: they cost startup on every run and nothing in a scan
        needs them."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro.cli",
             "scan", "--json", str(buggy_app_file)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr  # the app is buggy
        imported = {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "repro.pipeline.cachestore" in imported
        assert "urllib.request" not in imported
        assert "http.client" not in imported


class TestNoDiskCache:
    """No command reads or writes a persistent cache, whatever the
    environment names: neither the old ``$NCHECKER_CACHE_DIR`` nor the
    conventional ``$XDG_CACHE_HOME`` / ``~/.cache`` locations."""

    @pytest.fixture()
    def cache_roots(self, tmp_path, monkeypatch):
        roots = {
            name: tmp_path / name
            for name in ("HOME", "XDG_CACHE_HOME", "NCHECKER_CACHE_DIR")
        }
        for name, root in roots.items():
            root.mkdir()
            monkeypatch.setenv(name, str(root))
        return roots

    def written(self, roots) -> list:
        return sorted(p for root in roots.values() for p in root.rglob("*"))

    def test_scan_and_patch_write_nothing(
        self, buggy_app_file, tmp_path, cache_roots
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        for argv in (
            ["scan", str(buggy_app_file)],
            ["scan", "--json", str(buggy_app_file)],
            ["patch", str(buggy_app_file), "-o", str(tmp_path / "fixed.apkt")],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode in (0, 1), proc.stderr
        assert (tmp_path / "fixed.apkt").exists()
        assert self.written(cache_roots) == []

    def test_serve_workers_get_no_cache_dir(self, cache_roots, monkeypatch):
        import repro.service
        from repro.service import ScanService

        configs = []

        async def record(config):
            configs.append(config)

        monkeypatch.setattr(repro.service, "serve", record)
        assert main(["serve", "--port", "0"]) == 0
        (config,) = configs
        assert ScanService(config).worker_options().cache_dir is None
        assert self.written(cache_roots) == []


class TestErrorHandling:
    def test_missing_file_is_friendly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "/no/such/file.apkt"])
        assert excinfo.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_file_is_friendly(self, tmp_path, capsys):
        bad = tmp_path / "bad.apkt"
        bad.write_text("definitely not an app\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", str(bad)])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_patch_on_missing_file_is_friendly(self, capsys):
        with pytest.raises(SystemExit):
            main(["patch", "/no/such/file.apkt"])


class TestExperiments:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiments", "table99"]) == 2

    def test_single_experiment(self, capsys):
        assert main(["experiments", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out


class TestPatch:
    def test_patch_writes_clean_app(self, buggy_app_file, tmp_path, capsys):
        out = tmp_path / "fixed.apkt"
        code = main(["patch", str(buggy_app_file), "-o", str(out)])
        assert code == 0
        assert "0 finding(s) remain" in capsys.readouterr().out
        assert main(["scan", "--summary", str(out)]) == 0

    def test_patch_default_output_name(self, buggy_app_file, capsys):
        code = main(["patch", str(buggy_app_file)])
        assert code == 0
        fixed = buggy_app_file.with_suffix(".fixed.apkt")
        assert fixed.exists()

    def test_clean_app_patches_trivially(self, clean_app_file, tmp_path, capsys):
        out = tmp_path / "noop.apkt"
        assert main(["patch", str(clean_app_file), "-o", str(out)]) == 0
        assert "applied 0 patch(es)" in capsys.readouterr().out


class TestRun:
    def test_run_reports_symptoms(self, buggy_app_file, capsys):
        code = main(["run", str(buggy_app_file), "--network", "poor-3g"])
        out = capsys.readouterr().out
        assert "onClick on poor-3g" in out
        assert code in (0, 1)

    def test_unknown_scenario_rejected(self, buggy_app_file, capsys):
        assert main(["run", str(buggy_app_file), "--network", "marsnet"]) == 2

    def test_explicit_entry(self, buggy_app_file, capsys):
        code = main(
            [
                "run",
                str(buggy_app_file),
                "--network",
                "wifi",
                "--entry",
                "com.test.app.MainActivity.onClick",
                "--invalid-response-rate",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert "on wifi" in out and "ok" in out
        assert code == 0

    def test_crash_sets_exit_code(self, buggy_app_file, capsys):
        code = main(
            ["run", str(buggy_app_file), "--network", "poor-3g", "--seed", "7"]
        )
        out = capsys.readouterr().out
        if "CRASH" in out:
            assert code == 1


class TestExperimentExport:
    def test_export_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["experiments", "table4", "--export", str(out_dir)]) == 0
        assert (out_dir / "table4.txt").exists()
        assert (out_dir / "table4.json").exists()


class TestCorpus:
    def test_emits_apkt_files(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", str(out_dir), "--apps", "3"]) == 0
        files = list(out_dir.glob("*.apkt"))
        assert len(files) == 3

    def test_emitted_files_scannable(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        main(["corpus", str(out_dir), "--apps", "2"])
        files = sorted(out_dir.glob("*.apkt"))
        code = main(["scan", "--summary", *map(str, files)])
        assert code in (0, 1)
