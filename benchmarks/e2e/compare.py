"""Compare two run sets of the benchmark, one row per (metric, workload).

    python benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --out`` documents; A is the base.
Each row gives both medians with quartiles, the ratio B/A, the metric's
bound from BENCHMARK.json and a verdict:

* ``better`` / ``worse`` — B's median differs from A's, in that
  direction, by more than the bound and more than either side's spread;
* ``unresolved`` — no such difference, but a side's run-to-run spread
  (interquartile distance over its median) is wider than the bound, so
  a change of the bound's size could hide in it;
* ``same`` — otherwise.

Run-to-run spread needs several runs per side (``run.py --repeat``); with
one run per side the quartiles shown are over that run's repetitions and
no row can be ``unresolved``.  Exits 1 if any row is ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import json
import sys

from harness import load_spec, set_summaries, spread


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    change = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        change = -change  # positive now means worse
    several = min(a["runs"], b["runs"]) > 1
    noise = max(spread(a), spread(b)) if several else 0.0
    if abs(change) > max(bound, noise):
        return "worse" if change > 0 else "better"
    return "unresolved" if noise > bound else "same"


def compare(doc_a: dict, doc_b: dict) -> list:
    """Rows ``(key, a, b, ratio, bound, verdict)`` for every pairing
    both sets measured."""
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    side_a, side_b = set_summaries(doc_a["runs"]), set_summaries(doc_b["runs"])
    rows = []
    for key, a in side_a.items():
        b = side_b.get(key)
        if b is None:
            continue
        metric = spec[key.split("@")[0]]
        rows.append((key, a, b, b["value"] / a["value"], metric["bound"],
                     verdict(a, b, metric["better"], metric["bound"])))
    return rows


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        with open(path) as fp:
            docs.append(json.load(fp))
    for label, doc in zip("AB", docs):
        env = doc["env"]
        print(f"# {label}: sha {env['sha'][:12]} seed {env['seed']} "
              f"{len(doc['runs'])} run(s) of {env['seconds']} s, "
              f"nproc {env['nproc']}, python {env['python']}, "
              f"REPRO_NATIVE={env['REPRO_NATIVE']}")
    rows = compare(*docs)
    cell = "{value:11.5g} [{q1:.5g}, {q3:.5g}]".format
    print(f"{'metric@workload':38s} {'A median [q1, q3]':38s} "
          f"{'B median [q1, q3]':38s} {'B/A':>7s} {'bound':>6s}  verdict")
    for key, a, b, ratio, bound, word in rows:
        print(f"{key:38s} {cell(**a):38s} {cell(**b):38s} "
              f"{ratio:7.4f} {bound:6.2f}  {word}  ({a['unit']})")
    bad = [row for row in rows if row[5] in ("worse", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
