"""Compare two benchmark result records of the same workload.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the files run.py writes under .perfbench/results/.  The
comparison is refused (exit 2) when the two runs differ in anything but the
code under test: Python, numpy, scipy, BLAS, thread settings, CPU count,
workload or run length.  Otherwise each metric is printed with both values,
the change as a share of the base, and whether the output digests match.
"""

from __future__ import annotations

import json
import sys

CODE_KEYS = ("git_sha", "source_sha256")


def comparable(base, new):
    """The reasons two records may not be compared; empty when they may."""
    reasons = []
    for key in sorted(set(base["env"]) | set(new["env"])):
        if key not in CODE_KEYS and base["env"].get(key) != new["env"].get(key):
            reasons.append(f"environment differs in {key}: {base['env'].get(key)} vs {new['env'].get(key)}")
    for key in ("workload", "seconds", "smoke"):
        if base[key] != new[key]:
            reasons.append(f"runs differ in {key}: {base[key]} vs {new[key]}")
    return reasons


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    reasons = comparable(base, new)
    if reasons:
        print("refusing to compare:\n  " + "\n  ".join(reasons), file=sys.stderr)
        return 2
    print(f"workload {base['workload']}: seed {base['seed']} vs {new['seed']}")
    for section in ("end_to_end", "per_layer"):
        for name, b in base[section].items():
            n = new[section].get(name)
            if n is None:
                continue
            rel = (n["value"] - b["value"]) / b["value"] if b["value"] else float("nan")
            print(f"  {name:34s} {b['value']:>14.6g} {n['value']:>14.6g} {b['unit']:6s} {rel:+8.1%}")
    same = base["digests"] == new["digests"]
    print(f"  output digests {'identical' if same else 'differ'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
