"""Patch loop on corpus apps: the input app is never modified."""

from repro.app.loader import dumps_apk
from repro.core import NChecker
from repro.core.patcher import Patcher
from repro.corpus.generator import CorpusGenerator
from repro.corpus.profiles import PAPER_PROFILE


class TestIncrementalPatching:
    def apps(self, n=8):
        return [apk for apk, _ in CorpusGenerator(PAPER_PROFILE.scaled(n)).iter_apps()]

    def test_incremental_leaves_input_untouched(self):
        apk = self.apps(1)[0]
        before = dumps_apk(apk)
        Patcher().patch_until_clean(apk, NChecker())
        assert dumps_apk(apk) == before
