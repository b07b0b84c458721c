"""Rewrite the expected results of the golden CLI battery.

Usage, from the repository root::

    python tests/golden/regenerate.py

Runs every command of ``BATTERY`` in ``tests/_golden.py`` in a temporary
directory and replaces ``tests/golden/battery.json`` and
``tests/golden/files/`` with what they printed and wrote.  A change that
alters an output regenerates the goldens and names the changed files and
the reason in CHANGES.md; ``git diff tests/golden`` shows what moved.
"""

import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from _golden import BATTERY, run_battery, write_goldens  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        results, files = run_battery(tmp)
    write_goldens(results, files)
    print(f"{len(BATTERY)} commands, {len(files)} output files -> {TESTS / 'golden'}")


if __name__ == "__main__":
    main()
