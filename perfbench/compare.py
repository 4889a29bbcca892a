#!/usr/bin/env python3
"""Compare two perfbench result files metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Result files are the stamped JSON that perfbench/run.py writes under
.bench_build/results/.  Like ci/bench_gate.py, the comparison is refused
(exit 2) when the two runs come from hosts with a different core count or
from different build types, or measure different workloads or trace modes:
such numbers do not describe the same thing.  Otherwise every metric is
printed with both values and NEW/BASE; the exit status is 0.
"""

import json
import sys

# Stamp fields that must agree before two results may be compared.
MUST_MATCH = ("nproc", "build_type", "workload", "trace")


def load(path):
    with open(path) as f:
        return json.load(f)


def refusal(base, new):
    """Why the two results must not be compared, or None."""
    for key in MUST_MATCH:
        a = base.get("stamp", {}).get(key)
        b = new.get("stamp", {}).get(key)
        if a != b:
            return f"stamp field '{key}' differs: {a!r} vs {b!r}"
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    reason = refusal(base, new)
    if reason is not None:
        print(f"compare.py: refusing to compare: {reason}", file=sys.stderr)
        return 2
    for name, b in new["metrics"].items():
        a = base["metrics"].get(name)
        if a is None:
            print(f"{name:40s} {'-':>14s} {b['value']:14.6g} {b['unit']}")
            continue
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print(f"{name:40s} {a['value']:14.6g} {b['value']:14.6g} {b['unit']:6s} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
