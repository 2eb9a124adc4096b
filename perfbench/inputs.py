"""Seeded input generation for every workload, through public APIs only.

The same seed always yields the same ``.apkt`` texts and ledger records.
The program under test only ever sees the files (or request bodies) made
here; the ledger stays in the benchmark for the oracle.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.app import APK, Manifest
from repro.app.loader import dumps_apk
from repro.corpus import (
    PAPER_PROFILE,
    AppBuilder,
    AppGroundTruth,
    Connectivity,
    CorpusGenerator,
    Notification,
    RequestSpec,
    inject_request,
)

#: Apps are assembled from whole generated paper-profile apps ("modules",
#: about 5 requests each), merged under one package.  One generated app
#: with N requests gets a single style draw (libraries, services, checks),
#: so its scan cost swings with the seed: 0.9 to 2.3 s at 600 requests.
#: Merged modules each draw their own style, and the cost of a merged app
#: varies by about 4 % across seeds while still growing super-linearly.
DEV_MODULES = 10
LARGE_MODULES = (30, 60, 120)

#: The deep helper-chain app: each request sits at the bottom of a chain
#: of this many helper calls below a UI callback.
CHAIN_REQUESTS = 8
CHAIN_DEPTH = 24

_CHAIN_LIBRARIES = ("httpurlconnection", "apache", "okhttp", "basichttp")


@dataclass(frozen=True)
class App:
    """One generated app: its file name, ``.apkt`` text and ledger."""

    name: str
    text: str
    truth: AppGroundTruth
    methods: int

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def _app(apk, truth: AppGroundTruth) -> App:
    return App(
        f"{apk.package}.apkt",
        dumps_apk(apk),
        truth,
        sum(1 for _ in apk.methods()),
    )


def sweep_corpus(seed: int) -> list[App]:
    """The paper's 285-app evaluation corpus profile, reseeded."""
    profile = dataclasses.replace(PAPER_PROFILE, seed=seed)
    return [_app(apk, truth) for apk, truth in CorpusGenerator(profile).iter_apps()]


def service_corpus(seed: int, n_apps: int) -> list[App]:
    """``n_apps`` paper-profile apps (the library mix scaled to fit)."""
    profile = dataclasses.replace(PAPER_PROFILE.scaled(n_apps), seed=seed)
    return [_app(apk, truth) for apk, truth in CorpusGenerator(profile).iter_apps()]


def modular_app(seed: int, package: str, modules: range) -> App:
    """One app made of the paper-profile apps ``modules`` of the corpus
    for ``seed``: their classes, components and ledger records."""
    generator = CorpusGenerator(dataclasses.replace(PAPER_PROFILE, seed=seed))
    manifest = Manifest(package, permissions=["android.permission.INTERNET"])
    classes = []
    truth = AppGroundTruth(package)
    for index in modules:
        apk, part = generator.generate_app(index)
        for kind, name in apk.manifest.components():
            manifest.declare(kind, name)
        classes.extend(apk.classes())
        truth.requests.extend(part.requests)
    apk = APK(manifest, classes)
    apk.validate()
    return _app(apk, truth)


def dev_app(seed: int) -> App:
    """The mid-size app the dev-loop workload rescans and edits."""
    return modular_app(seed, "com.bench.devapp", range(DEV_MODULES))


def large_apps(seed: int) -> list[App]:
    """Size-scaled apps (about 150, 300 and 600 requests) plus the deep
    helper-chain app.  The sizes are fixed, not drawn from the seed."""
    apps, first = [], 0
    for modules in LARGE_MODULES:
        package = f"com.bench.large{modules}"
        apps.append(modular_app(seed, package, range(first, first + modules)))
        first += modules
    apps.append(deep_chain_app(seed))
    return apps


def deep_chain_app(seed: int) -> App:
    """An app whose every request is outlined into a chain of
    :data:`CHAIN_DEPTH` helper methods below a UI click handler."""
    rng = random.Random(f"{seed}:deep-chain")
    app = AppBuilder("com.bench.deepchain")
    truth = AppGroundTruth(app.package)
    for r in range(CHAIN_REQUESTS):
        chain = app.new_class(f"Chain{r}")
        steps = [chain.method(f"step{i}") for i in range(CHAIN_DEPTH)]
        for i, step in enumerate(steps[:-1]):
            next_step = step.new(chain.name, f"next{i}")
            step.call(next_step, f"step{i + 1}")
        spec = RequestSpec(
            library=rng.choice(_CHAIN_LIBRARIES),
            connectivity=rng.choice((Connectivity.NONE, Connectivity.GUARDED)),
            with_timeout=rng.random() < 0.5,
            with_notification=rng.choice((Notification.NONE, Notification.TOAST)),
            with_response_check=rng.random() < 0.5,
        )
        truth.requests.append(
            inject_request(app, steps[-1], spec, user_initiated=True)
        )
        for step in steps:
            step.ret()
            chain.add(step)
        activity = app.activity(f"ChainActivity{r}")
        handler = activity.method("onClick", params=[("android.view.View", "v")])
        head = handler.new(chain.name, "chain")
        handler.call(head, "step0")
        handler.ret()
        activity.add(handler)
    return _app(app.build(), truth)


def nop_edit(text: str, rng: random.Random) -> str:
    """Insert a ``nop`` as the first statement of one method, chosen by
    ``rng``.  The app's content address changes; its behaviour and its
    findings, scored per method, do not."""
    lines = text.split("\n")
    heads = [i for i, line in enumerate(lines) if line.lstrip().startswith("method ")]
    head = rng.choice(heads)
    lines.insert(head + 1, "      nop")
    return "\n".join(lines)
