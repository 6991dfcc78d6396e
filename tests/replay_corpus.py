"""Replay the CLI golden corpus with the standard library alone, on any supported Python.

    PYTHONPATH=src python tests/replay_corpus.py      # the checkout's src/
    cd /tmp && python /path/to/checkout/tests/replay_corpus.py   # an installed semialg

runs every entry of tests/data/cli_corpus.json through make_cli_corpus.run,
prints each entry whose exit code or output bytes differ, and exits 1 if any
does. The summary line names the file semialg was imported from, so a replay
meant for an installed copy shows when it read a checkout instead. CI runs the
second form after `pip install .`: every entry is checked against the installed
package. It needs no pytest, so it runs on an interpreter that has none.
"""

from __future__ import annotations

import json
import sys

import semialg
from make_cli_corpus import DEFAULT_PATH, run


def differing(entries: list[dict]) -> list[dict]:
    """The entries whose exit code or output bytes differ from what was recorded."""
    return [e for e in entries if list(run(e["argv"], e["cap"])) != [e["exit"], e["stdout"], e["stderr"]]]


def main() -> int:
    entries = json.loads(DEFAULT_PATH.read_text())
    differ = differing(entries)
    for e in differ:
        print(f"differs: {e['argv']} cap={e['cap']}")
    print(f"Python {sys.version.split()[0]}, semialg from {semialg.__file__}: "
          f"{len(differ)} of {len(entries)} corpus entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
