"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py perfbench/out/OLD.json perfbench/out/NEW.json

Refuses (exit 2) when the records come from different workloads or search
kernels: the compiled kernel is about 300 times faster than the pure one, so
a stray build would fake a gain.  A change beyond a metric's bound in
BENCHMARK.json, in its bad direction, is marked WORSE.
"""

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
DIRECTIONS = {m["name"]: (m["better"], m.get("bound")) for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def compare(old: dict, new: dict) -> list:
    """Table rows (metric, old, new, relative change, verdict); raises ValueError if incomparable."""
    for key in ("workload", "trace"):
        if old[key] != new[key]:
            raise ValueError(f"{key} differs: {old[key]!r} vs {new[key]!r}")
    if old["env"]["kernel"] != new["env"]["kernel"]:
        raise ValueError(f"kernel differs: {old['env']['kernel']!r} vs {new['env']['kernel']!r}")
    rows = []
    for name, entry in old["metrics"].items():
        a, b = entry["value"], new["metrics"][name]["value"]
        change = (b - a) / a if a else 0.0
        better, bound = DIRECTIONS.get(name, ("lower", None))
        worse = change if better == "lower" else -change
        verdict = "WORSE" if bound is not None and worse > bound else ""
        rows.append((name, a, b, change, verdict))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    try:
        rows = compare(old, new)
    except ValueError as exc:
        sys.stderr.write(f"refusing to compare: {exc}\n")
        return 2
    for name, a, b, change, verdict in rows:
        print(f"{name:40s} {a:14.6g} {b:14.6g} {change:+8.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
