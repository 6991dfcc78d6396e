"""Replay the CLI golden corpus: every recorded command gives the same exit code and bytes.

The corpus is tests/data/cli_corpus.json; tests/make_cli_corpus.py regenerates it, and
tests/replay_corpus.py holds the one comparison, which CI also runs against the installed package.
"""

import json
from collections import defaultdict

import pytest

from make_cli_corpus import DEFAULT_PATH, commands
from replay_corpus import differing

RECORDED = json.loads(DEFAULT_PATH.read_text())
ENTRIES = defaultdict(list)
for _entry in RECORDED:
    ENTRIES[_entry["argv"][0]].append(_entry)


def test_corpus_is_recorded_from_the_generator():
    """An edited generator that was not re-run shows here, not as a silent gap."""
    assert [(e["argv"], e["cap"]) for e in RECORDED] == list(commands())


def test_corpus_covers_every_subcommand():
    assert set(ENTRIES) == {"frobenius", "gaps", "gap-poly", "verify", "divide", "kernel", "rank-nullity", "hilbert"}
    assert sum(map(len, ENTRIES.values())) >= 1000


@pytest.mark.parametrize("command", sorted(ENTRIES))
def test_outputs_match_corpus(command):
    assert [(e["argv"], e["cap"]) for e in differing(ENTRIES[command])] == []
