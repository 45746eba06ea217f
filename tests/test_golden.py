"""The CLI's output bytes against the committed golden corpus (see golden_corpus)."""

from __future__ import annotations

import json

import golden_corpus


def test_the_grid_is_the_committed_one():
    want = json.loads(golden_corpus.CORPUS.read_text())
    assert list(want) == [golden_corpus.key(argv) for argv in golden_corpus.grid()]


def test_every_command_prints_its_golden_bytes():
    want = json.loads(golden_corpus.CORPUS.read_text())
    differ = [
        key
        for key, argv in ((golden_corpus.key(argv), argv) for argv in golden_corpus.grid())
        if golden_corpus.digest(argv) != want.get(key)
    ]
    assert not differ, f"{len(differ)} commands differ, first: {differ[:5]}"
