#!/usr/bin/env python3
"""Remove the top-level "meta" member from a sweep/bench JSON file.

Usage:
    python3 scripts/strip_meta.py in.json out.json

`perigee_sweep` and the benches on bench/common.hpp stamp every JSON they
write with a `meta` block (git sha, peak RSS, wall clock) that legitimately
differs between two otherwise byte-identical runs. CI's determinism gates
compare curves with `cmp`, so both sides are passed through this script
first. The body outside `meta` is copied through byte-for-byte — the writers
emit `meta` as a self-contained two-space-indented block (between "spec" and
"cells" in a sweep, between "title" and "curves" in a bench), and
ObsDeterminism.MetaMemberDoesNotDisturbCurveBytes pins that textual shape —
so stripped outputs from runs with and without meta compare equal.
"""

import json
import sys


def strip(text: str) -> str:
    begin = text.find('  "meta": {')
    if begin == -1:
        return text  # nothing to strip (e.g. emitted without meta)
    end = text.find("  },\n", begin)
    if end == -1:
        raise ValueError('found "meta" opener but no closing "  },"')
    return text[:begin] + text[end + len("  },\n"):]


def main() -> None:
    if len(sys.argv) != 3:
        print("usage: strip_meta.py in.json out.json", file=sys.stderr)
        sys.exit(2)
    with open(sys.argv[1], encoding="utf-8") as handle:
        text = handle.read()
    stripped = strip(text)
    json.loads(stripped)  # must still be valid JSON after surgery
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        handle.write(stripped)


if __name__ == "__main__":
    main()
