"""Compare two results that ``run.py`` wrote to ``e2ebench/out/``.

Usage::

    python3 e2ebench/compare.py OLD.json NEW.json [--same-code]

Refuses (exit 2) when the two environment stamps differ or the results are
of different workloads or modes.  Otherwise prints each metric with its
relative change.  With ``--same-code`` (two traced runs of one commit and
one seed) it exits 1 unless every repeatable count metric is identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REPEATABLE_COUNTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--same-code", action="store_true")
    args = parser.parse_args(argv)
    with open(args.old) as handle:
        old = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)

    differing = sorted(
        key
        for key in old["environment"].keys() | new["environment"].keys()
        if old["environment"].get(key) != new["environment"].get(key)
    )
    if differing:
        for key in differing:
            print(
                f"stamp differs on {key}: {old['environment'].get(key)!r} "
                f"vs {new['environment'].get(key)!r}",
                file=sys.stderr,
            )
        print("refusing to compare runs with different environment stamps", file=sys.stderr)
        return 2
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare different workloads or trace modes", file=sys.stderr)
        return 2

    old_metrics = old["result"]["metrics"]
    new_metrics = new["result"]["metrics"]
    changed_counts = []
    for name, entry in old_metrics.items():
        before, after = entry["value"], new_metrics[name]["value"]
        change = f"{(after - before) / before:+.1%}" if before else "n/a"
        print(f"{name:32} {before:14.4f} {after:14.4f} {change:>8} {entry['unit']}")
        if name in REPEATABLE_COUNTS and before != after:
            changed_counts.append(name)
    if args.same_code:
        if changed_counts:
            print(f"counts did not repeat: {', '.join(changed_counts)}", file=sys.stderr)
            return 1
        print("every repeatable count is identical", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
