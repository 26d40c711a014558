"""Certificate benchmark for perronpoly.

    python3 perfbench/run.py --workload sweep-low --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. The seed picks the workload's inputs
(workloads.py). Each pass runs every point once in a fresh interpreter
(worker.py), so the root cache sees only the hits a real sweep of those points
gets; passes repeat while the run has time for another one. The outputs of
the first pass are checked against closed forms and sympy (checks.py), and
every later pass must reproduce them.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` traced and untraced passes alternate and it reports the
per-layer metrics (tracing.py) and the tracing overhead. Results and span
files are written under perfbench/out/. README.md next to this file explains
the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_SAMPLES = 7
START_BITS = 64  # the certificate's starting precision
WORKER_TIMEOUT_S = 170
# worker.reference_loop takes this long on the reference machine (an idle
# core of the 2.1 GHz VM the figures in README.md come from).
REFERENCE_MS = 3.0
REFERENCE_WINDOW_S = 0.2


def run_worker(request: dict) -> tuple[float, dict]:
    """Start a fresh interpreter on worker.py; returns its wall time and reply."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    wall = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    reply = json.loads(proc.stdout)
    reply["setup_s"] = reply["ready"] - spawned
    return wall, reply


def _run_passes(spec: dict, seconds: float, trace: bool, trace_file: Path) -> list[dict]:
    """Whole passes until the next one would overrun ``seconds``; with
    tracing, untraced and traced passes alternate, starting untraced."""
    passes: list[dict] = []
    walls: list[float] = []
    minimum = 2 if trace else 1
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        request = {
            "spec": spec,
            "trace": traced,
            "probe": False,
            # Only the first traced pass writes its spans out.
            "trace_file": str(trace_file) if traced and len(passes) == 1 else None,
        }
        wall, reply = run_worker(request)
        reply["traced"] = traced
        passes.append(reply)
        walls.append(wall)
        elapsed = time.monotonic() - start
        if len(passes) >= minimum and elapsed + max(walls[-2:]) > seconds:
            return passes


def _comparable(reply: dict) -> tuple:
    records = [{k: v for k, v in r.items() if k != "timestamp"} for r in reply["records"]]
    return records, reply["failures"]


def _check(spec: dict, passes: list[dict]) -> tuple[list[str], list[bool], dict]:
    """Problems found in the passes' outputs, whether each attempted point
    completed, and how many squarefree verdicts sympy checked."""
    from checks import check_record, self_test
    from workloads import expected_points

    first = passes[0]
    problems: list[str] = []
    expected = spec["expected_failures"]
    failed = set()
    for failure in first["failures"]:
        point = failure["point"]
        key = ",".join(map(str, point)) if point else None
        if expected.get(key) != failure["error"]:
            problems.append(
                f"unexpected failure at {point}: {failure['error']}: {failure['message']}"
            )
        failed.add(tuple(point) if point else None)
    grid = expected_points(spec)
    ok = [pt not in failed for pt in grid]
    certified = [pt for pt, good in zip(grid, ok) if good]
    produced = [(r["n"], r["a"], r["p"]) for r in first["records"]]
    if produced != certified:
        problems.append(f"the pass certified {len(produced)} points, expected {len(certified)}")
    sf_cache: dict = {}
    for rec in first["records"]:
        point = f"({rec['n']},{rec['a']},{rec['p']})"
        problems += [f"{point}: {problem}" for problem in check_record(rec, sf_cache)]
    problems += self_test(first["records"])
    if first.get("serialization_mismatches"):
        problems.append("stdout and ledger serializations of a certificate disagree")
    if "verify" in first:
        verify = first["verify"]
        if not verify["passed"]:
            problems.append(f"run_verify failed: {verify['failures'][:3]}")
        if verify["points"] != len(grid):
            problems.append(f"run_verify saw {verify['points']} points, the grid has {len(grid)}")
    reference = _comparable(first)
    for i, reply in enumerate(passes[1:], start=2):
        if _comparable(reply) != reference:
            problems.append(f"pass {i} produced different certificates from pass 1")
    unconfirmed = sum(1 for v in sf_cache.values() if v is None)
    notes = {"squarefree_checked": len(sf_cache), "squarefree_unconfirmed": unconfirmed}
    return problems, ok, notes


def reference_speed(reply: dict) -> float:
    """How much faster the reference machine is than this pass's process was,
    on average over the pass: multiply a time measured in the pass by it to
    get reference time."""
    return REFERENCE_MS / statistics.fmean(reply["reference_ms"] or reply["ready_reference_ms"])


def _op_speeds(reply: dict) -> list[float]:
    """The speed factor of each operation, from the reference samples taken
    while it ran or within REFERENCE_WINDOW_S of it."""
    at, samples = reply["reference_at"], reply["reference_ms"]
    speeds = []
    for start, ms in zip(reply["op_at"], reply["op_ms"]):
        lo = bisect.bisect_left(at, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(at, start + ms / 1e3 + REFERENCE_WINDOW_S)
        near = samples[lo:hi]
        speeds.append(
            REFERENCE_MS / statistics.fmean(near) if near else reference_speed(reply)
        )
    return speeds


def _profile(passes: list[dict], ok: list[bool], calibrated: bool = True) -> tuple[float, float]:
    """points_per_s and point_ms_p50 of a set of identical passes.

    Each operation's time is scaled to reference time by the reference
    samples taken around it. Every pass attempts the same points in the same
    order, so each point's time is its median over the passes. The pass time
    is the sum of those medians plus the median time a pass spent between
    points.
    """
    scaled = []
    for p in passes:
        speeds = _op_speeds(p) if calibrated else [1.0] * len(p["op_ms"])
        scaled.append([ms * f for ms, f in zip(p["op_ms"], speeds)])
    per_point = [statistics.median(times) for times in zip(*scaled)]
    between = statistics.median(
        (p["pass_s"] - sum(p["op_ms"]) / 1e3) * (reference_speed(p) if calibrated else 1.0)
        for p in passes
    )
    pass_s = sum(per_point) / 1e3 + between
    completed = [ms for ms, good in zip(per_point, ok) if good]
    return len(completed) / pass_s, statistics.median(completed)


def _end_to_end(passes: list[dict], ok: list[bool], setup: list[float]) -> dict:
    points_per_s, point_ms_p50 = _profile(passes, ok)
    return {
        "points_per_s": {"value": points_per_s, "unit": "points/s"},
        "point_ms_p50": {"value": point_ms_p50, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(p["rss_kb"] for p in passes) / 1024,
            "unit": "MB",
        },
    }


def _per_layer(passes: list[dict], ok: list[bool]) -> tuple[dict, list[str]]:
    from tracing import layer_metrics

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for reply in traced:
        counters = dict(reply["counters"])
        counters["escalated_points"] = sum(
            1 for r in reply["records"] if (r["precision_bits"] or START_BITS) > START_BITS
        )
        # Span times include the reference samples the timer took inside them.
        in_program = reply["pass_s"] / (reply["pass_s"] + reply["reference_s"])
        per_pass.append(layer_metrics(reply["spans"], reply["attempted"], counters,
                                      reference_speed(reply) * in_program))
    problems = []
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "ms/pt":
            value = statistics.median(m[name][0] for m in per_pass)
        elif any(m[name][0] != value for m in per_pass):
            problems.append(f"count {name} differs between traced passes")
        metrics[name] = {"value": value, "unit": unit}
    untraced_rate = _profile(plain, ok)[0]
    metrics["trace.overhead_pct"] = {
        "value": 100 * (untraced_rate - _profile(traced, ok)[0]) / untraced_rate,
        "unit": "%",
    }
    metrics["wall.points_per_s"] = {
        "value": _profile(plain, ok, calibrated=False)[0],
        "unit": "points/s",
    }
    metrics["wall.slowdown"] = {
        "value": statistics.median(1 / reference_speed(p) for p in passes),
        "unit": "ratio",
    }
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run, check and measure one workload; returns the result object."""
    from workloads import make_spec

    spec = make_spec(workload, seed)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    passes = _run_passes(spec, seconds, trace, out / f"trace-{stem}.tsv")

    problems, ok, notes = _check(spec, passes)
    if trace:
        metrics, count_problems = _per_layer(passes, ok)
        problems += count_problems
    else:
        # Every worker started gives one set-up sample; probes stop when ready.
        started = list(passes)
        while len(started) < SETUP_SAMPLES:
            started.append(run_worker({"spec": spec, "trace": False, "probe": True,
                                        "trace_file": None})[1])
        setup = [p["setup_s"] * REFERENCE_MS / statistics.fmean(p["ready_reference_ms"])
                 for p in started]
        metrics = _end_to_end(passes, ok, setup)

    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(
        f"{workload} seed {seed}: {len(passes)} passes, "
        f"{passes[0]['attempted']} points per pass, {len(passes[0]['failures'])} failing, "
        f"{notes['squarefree_checked']} squarefree G checked by sympy, "
        f"{notes['squarefree_unconfirmed']} left unconfirmed by its budget",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": metrics,
    }
    (out / f"result-{stem}-trace{int(trace)}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "perronpoly" / "__init__.py").is_file():
        print(f"no perronpoly sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": workload, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
