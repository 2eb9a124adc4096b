"""The committed BENCH export: schema, provenance, and no retired
counter names.

The cache-hit counters were renamed from ``cache.disk.*`` to
``cache.local.*``, and the ``memory`` and ``remote`` cache tiers (with
their ``cache.memory.*`` and ``cache.remote.*`` counters) were removed;
the committed measurements must not keep a retired name alive, and
nothing the pipeline emits today may reintroduce one.
"""

import json
from pathlib import Path

from repro.core.checker import NCheckerOptions
from repro.obs import BENCH_SCHEMA_VERSION, use_metrics

REPO = Path(__file__).resolve().parents[1]
BENCH_FILE = REPO / "BENCH_pipeline.json"
RETIRED_PREFIXES = ("cache.disk.", "cache.memory.", "cache.remote.")


class TestCommittedBenchFile:
    def test_carries_schema_version_and_provenance(self):
        payload = json.loads(BENCH_FILE.read_text())
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        prov = payload["provenance"]
        assert prov["options_fingerprint"]
        assert prov["source"] == "benchmarks/test_pipeline_scaling.py"

    def test_no_retired_counter_names_anywhere(self):
        text = BENCH_FILE.read_text()
        for prefix in RETIRED_PREFIXES:
            assert prefix not in text, (
                f"committed BENCH still mentions retired counter prefix "
                f"{prefix!r} — regenerate it with: PYTHONPATH=src python "
                f"-m pytest -q -s benchmarks/test_pipeline_scaling.py"
            )

    def test_baseline_carries_current_schema(self):
        baseline = json.loads(
            (REPO / "benchmarks" / "bench_baseline.json").read_text()
        )
        assert baseline["schema_version"] == BENCH_SCHEMA_VERSION
        assert baseline["provenance"]["run_id"]
        for prefix in RETIRED_PREFIXES:
            assert not any(
                name.startswith(prefix) for name in baseline["counters"]
            )


class TestFreshSnapshots:
    def test_cached_scan_emits_tier_names_not_retired_ones(self, tmp_path):
        from repro.app.loader import load_apk
        from repro.core import NChecker

        apps = sorted((REPO / "examples" / "apps").glob("*.apkt"))
        assert apps, "example apps missing"
        options = NCheckerOptions(cache_dir=str(tmp_path / "cache"))
        with use_metrics() as registry:
            checker = NChecker(options=options)
            for path in apps[:2]:
                checker.open_session(load_apk(str(path))).scan()
                checker.open_session(load_apk(str(path))).scan()  # warm
        counters = registry.snapshot()["counters"]
        retired = [
            name for name in counters
            if name.startswith(RETIRED_PREFIXES)
        ]
        assert not retired, f"pipeline emitted retired counters: {retired}"
        assert any(name.startswith("cache.local.") for name in counters)
