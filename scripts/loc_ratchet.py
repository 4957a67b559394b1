#!/usr/bin/env python3
"""Fail when a package of ``src/repro`` (or the total) outgrows its record in ``loc.json``.

A PR lowers the record freely (``--update`` rewrites it) and raises it only
with a sentence in its description saying why.  The counting rule is the
benchmark's own: ``perf/layers.py::lines_of_code``, the ``loc.*`` metrics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]

from layers import lines_of_code  # noqa: E402

RECORD = ROOT / "loc.json"


def main(argv) -> int:
    counts = {name: int(lines) for name, lines in sorted(lines_of_code().items())}
    if "--update" in argv:
        RECORD.write_text(json.dumps(counts, indent=2) + "\n", encoding="utf-8")
        return 0
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    grown = [name for name, lines in counts.items() if lines > record.get(name, 0)]
    for name in grown:
        print(f"{name}: {counts[name]} lines, recorded {record.get(name, 0)}")
    if grown:
        print("lower the count, or run scripts/loc_ratchet.py --update and say why in the PR")
    return 1 if grown else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
