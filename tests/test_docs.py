"""Documentation consistency: the code blocks the docs promise must work."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.app import loads_apk
from repro.ir import ParseError
from repro.ir.parser import parse_classes

ROOT = Path(__file__).resolve().parent.parent


class TestFormatDoc:
    def test_minimal_example_parses_and_scans(self):
        text = (ROOT / "docs" / "FORMAT.md").read_text()
        blocks = re.findall(r"```\n(apk .*?)```", text, flags=re.DOTALL)
        assert blocks, "FORMAT.md must contain a runnable example"
        for block in blocks:
            if "..." in block:
                continue  # the layout skeleton, not a real app
            apk = loads_apk(block)
            apk.validate()
            from repro.core import NChecker

            result = NChecker().scan(apk)
            assert result.requests  # the example issues a request

    def test_statement_table_forms_parse(self):
        from repro.ir import parse_stmt

        for line in (
            "x = null",
            "invoke virtual c:com.C#get('u') -> com.R",
            "if a <= b goto L",
            "putstatic com.C.f = v",
            "x = newarray int n",
            "x = cast int v",
            "x = catch java.io.IOException",
        ):
            parse_stmt(line)


class TestReadmeClaims:
    def test_quickstart_snippet_runs(self):
        """The README's programmatic example, executed verbatim-ish."""
        from repro.core import NChecker
        from repro.corpus.appbuilder import AppBuilder
        from repro.corpus.snippets import RequestSpec, inject_request
        from repro.netsim import OFFLINE, Runtime

        app = AppBuilder("com.example.demo")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        inject_request(
            app, body, RequestSpec(library="basichttp"), user_initiated=True
        )
        body.ret()
        activity.add(body)
        apk = app.build()

        summary = NChecker().scan(apk).summary()
        assert summary
        report = Runtime(apk, OFFLINE).run_entry(
            "com.example.demo.MainActivity", "onClick"
        )
        assert report.statements_executed > 0

    def test_no_runtime_dependencies(self):
        """README: 'The library itself has no runtime dependencies' — a
        fresh interpreter importing repro must pull in no third-party
        modules (checked in a subprocess to avoid touching this one)."""
        import subprocess
        import sys

        probe = (
            "import repro, repro.core, repro.netsim, repro.corpus, sys; "
            "bad = {m.split('.')[0] for m in sys.modules} & "
            "{'numpy', 'scipy', 'networkx', 'pytest', 'hypothesis'}; "
            "assert not bad, bad"
        )
        subprocess.run([sys.executable, "-c", probe], check=True)


class TestCliDoc:
    """docs/CLI.md stays exhaustive and current: every subcommand and
    flag the argparse tree defines must appear there, and every flag it
    mentions must exist."""

    def cli_surface(self):
        """(path, flags) per parser in the subcommand tree."""
        import argparse

        from repro.cli import build_parser

        surface = []

        def walk(parser, path):
            flags = set()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        walk(sub, path + [name])
                elif action.option_strings:
                    flags.update(
                        s for s in action.option_strings if s.startswith("--")
                    )
            surface.append((path, flags))

        walk(build_parser(), [])
        return surface

    def test_every_flag_and_subcommand_is_documented(self):
        doc = (ROOT / "docs" / "CLI.md").read_text()
        missing = []
        for path, flags in self.cli_surface():
            if path and f"`nchecker {' '.join(path[:2])}`" not in doc:
                missing.append(" ".join(path))
            for flag in flags:
                if flag == "--help":
                    continue  # argparse boilerplate
                if f"`{flag}" not in doc and f"{flag} " not in doc:
                    missing.append(f"{'/'.join(path)}: {flag}")
        assert not missing, f"undocumented CLI surface: {missing}"

    def test_every_documented_flag_exists(self):
        """The reverse direction: a flag removed from the parser must
        leave the page too.  Flags count when backticked in prose or
        given on an ``nchecker`` command line in a code block (other
        tools' flags, like curl's, live only in code blocks)."""
        doc = (ROOT / "docs" / "CLI.md").read_text()
        flag = r"--[a-z][a-z0-9-]*"
        prose = re.sub(r"```.*?```", "", doc, flags=re.DOTALL)
        documented = set(re.findall(rf"`({flag})", prose))
        for block in re.findall(r"```.*?```", doc, flags=re.DOTALL):
            for line in block.splitlines():
                if line.startswith("nchecker "):
                    documented.update(re.findall(rf"(?<!\S)({flag})", line))
        assert "--jobs" in documented  # sanity: the extraction works
        existing = set().union(*(flags for _path, flags in self.cli_surface()))
        stale = sorted(documented - existing)
        assert not stale, f"docs/CLI.md mentions removed flags: {stale}"

    def test_readme_points_at_the_new_docs(self):
        readme = (ROOT / "README.md").read_text()
        for page in ("docs/CLI.md", "docs/CACHING.md", "docs/INDEX.md"):
            assert page in readme

    def test_index_links_every_doc_page(self):
        index = (ROOT / "docs" / "INDEX.md").read_text()
        for page in (ROOT / "docs").glob("*.md"):
            if page.name == "INDEX.md":
                continue
            assert f"({page.name})" in index, f"INDEX.md misses {page.name}"


class TestParserRobustness:
    """The parser may reject input only with ParseError — never crash."""

    @given(st.text(max_size=400))
    @settings(max_examples=150, deadline=None)
    def test_random_text_never_crashes(self, text):
        try:
            parse_classes(text)
        except ParseError:
            pass

    @given(
        st.text(
            alphabet=sorted(set("apk clsmethod{}()#:=.\n'x0")), max_size=300
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_format_shaped_noise_never_crashes(self, text):
        try:
            loads_apk(text)
        except (ParseError, ValueError):
            pass
