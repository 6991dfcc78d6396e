"""Replay the CLI golden corpus with the standard library alone, on any supported Python.

    PYTHONPATH=src python tests/replay_corpus.py

runs every entry of tests/data/cli_corpus.json through make_cli_corpus.run,
prints each entry whose exit code or output bytes differ, and exits 1 if any
does. It needs no pytest, so it runs on an interpreter that has none.
"""

from __future__ import annotations

import json
import sys

from make_cli_corpus import DEFAULT_PATH, run


def main() -> int:
    entries = json.loads(DEFAULT_PATH.read_text())
    differ = 0
    for e in entries:
        if list(run(e["argv"], e["cap"])) != [e["exit"], e["stdout"], e["stderr"]]:
            differ += 1
            print(f"differs: {e['argv']} cap={e['cap']}")
    print(f"Python {sys.version.split()[0]}: {differ} of {len(entries)} corpus entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
