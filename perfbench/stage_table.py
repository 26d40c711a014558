"""Traced per-point stage costs at n = 2, 8, 16 and 24, for README.md.

    python3 perfbench/stage_table.py

Certifies every point with a in {1, 2} and a + 1 < p < 200 for each n in one
traced fresh-interpreter pass, and prints a markdown table in the columns of
the ROADMAP baseline: reference milliseconds per point (see run.py), with the
stages timed inclusive of what they call. "G squarefree x1" is the cost of one
squarefree_status call.
"""
from __future__ import annotations

import sys

from sympy import primerange

from run import run_worker, reference_speed

DEGREES = (2, 8, 16, 24)


def _row(n: int) -> list[float]:
    points = [[n, a, p] for a in (1, 2) for p in primerange(a + 2, 200)]
    spec = {"kind": "points", "points": points}
    _, reply = run_worker({"spec": spec, "trace": True, "probe": False, "trace_file": None})
    spans = reply["spans"]
    count = reply["attempted"]
    # Span times include the reference samples taken inside them.
    in_program = reply["pass_s"] / (reply["pass_s"] + reply["reference_s"])
    scale = reference_speed(reply) * in_program / 1e6

    def per_point(name):
        return spans.get(name, {}).get("incl_ns", 0) * scale / count

    sf = spans.get("intarith.squarefree_status", {"incl_ns": 0, "calls": 1})
    return [
        reply["pass_s"] * reference_speed(reply) * 1e3 / count,
        per_point("classification.classify"),
        per_point("matrices.dominant_eigenvalue"),
        sf["incl_ns"] * scale / max(sf["calls"], 1),
        per_point("monogenicity.monogenic"),
        per_point("family.family_monogenic"),
    ]


def main() -> int:
    print("| n | total | classify | power iteration | G squarefree x1 | `monogenic()` "
          "| family route |")
    print("|---|---:|---:|---:|---:|---:|---:|")
    for n in DEGREES:
        cells = " | ".join(f"{v:.1f}" for v in _row(n))
        print(f"| {n} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
