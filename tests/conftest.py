"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.app import APK, Manifest
from repro.corpus.appbuilder import AppBuilder
from repro.corpus.snippets import RequestSpec, inject_request
from repro.core import NChecker
from repro.ir import ClassBuilder, MethodBuilder


def make_method(build) -> "repro.ir.IRMethod":
    """Run ``build(b)`` against a fresh MethodBuilder and return the method."""
    b = MethodBuilder("com.test.C", "m")
    build(b)
    return b.build()


def single_request_app(spec: RequestSpec, package: str = "com.test.app",
                       in_service: bool = False):
    """An app with exactly one injected request; returns (apk, record)."""
    app = AppBuilder(package)
    if in_service:
        service = app.service("SyncService")
        body = service.method(
            "onStartCommand",
            params=[("android.content.Intent", "intent"), ("int", "flags")],
            return_type="int",
        )
        record = inject_request(app, body, spec, user_initiated=False, background=True)
        body.ret(0)
        service.add(body)
    else:
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        record = inject_request(app, body, spec, user_initiated=True)
        body.ret()
        activity.add(body)
    return app.build(), record


@pytest.fixture(scope="session")
def checker() -> NChecker:
    return NChecker()


@pytest.fixture(scope="session")
def small_corpus():
    """A 30-app corpus with ground truth (session-cached: scans are fast
    but generation still adds up across tests)."""
    from repro.corpus.generator import CorpusGenerator
    from repro.corpus.profiles import PAPER_PROFILE

    return CorpusGenerator(PAPER_PROFILE.scaled(30)).generate()


@pytest.fixture(scope="session")
def opensource_corpus():
    from repro.corpus.opensource import build_opensource_corpus

    return build_opensource_corpus()
