"""One pass of a benchmark workload, in a fresh interpreter.

Reads a JSON request on stdin: ``{"spec": ..., "trace": bool, "probe": bool,
"trace_file": path or null}``. Imports perronpoly from the ``src`` directory
of the checkout, builds the trial-division prime table, and records the
CLOCK_MONOTONIC time at which it is ready for its first operation. A probe
stops there; a pass then runs every point of the spec once and prints one JSON
object on stdout. The parent process (run.py) checks the outputs and turns
the passes into metrics. This process imports nothing but perronpoly, the
mpmath it depends on, and the tracer, so its start-up time and peak memory
are those of the program.

While a pass runs, a SIGALRM handler times a fixed reference loop
(``reference_loop``) every REFERENCE_EVERY_S seconds, wherever the program
happens to be. On a shared machine the speed available to one process drifts
by tens of percent within minutes, and it slows the reference loop and the
program alike; run.py uses these samples to express every time in
reference-machine seconds. The time spent in the handler is taken out of
every measured time.
"""
from __future__ import annotations

import json
import re
import resource
import signal
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

from mpmath import mpc, mpf, workprec

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_EVERY_S = 0.15
REFERENCE_AT_READY = 3
clock = time.perf_counter


def reference_loop() -> None:
    """Fixed work in the program's mix: big-integer arithmetic, fractions and
    small dicts, mpmath complex Horner steps at 96 bits, and a float
    matrix-vector product. It never changes with the program."""
    x = 3
    for i in range(3000):
        x = (x * x + i) % 1000000007
    f = Fraction(1)
    for k in range(1, 100):
        f = f * Fraction(k + 1, k + 2) + Fraction(1, k)
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    with workprec(96):
        z = mpc(mpf("1.2345"), mpf("0.54321"))
        acc = mpc(0)
        for _ in range(16):
            value = mpc(0)
            for c in (-7, 0, 0, 0, -1, 1, 3, -2, 5):
                value = value * z + c
            acc += 1 / (value + 1)
    vec = [1.0] * 12
    for _ in range(12):
        vec = [sum(v * (1.0 + 0.01 * ((i + j) % 5)) for j, v in enumerate(vec)) for i in range(12)]
        top = max(vec)
        vec = [v / top for v in vec]


class Reference:
    """Timed runs of reference_loop, and a clock that leaves them out."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter time at which each sample started
        self.ms: list[float] = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None) -> None:
        start = clock()
        reference_loop()
        end = clock()
        self.at.append(start)
        self.ms.append((end - start) * 1e3)
        self.spent += end - start

    def now(self) -> float:
        """perf_counter time minus the time spent in reference samples."""
        return clock() - self.spent

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def main() -> int:
    request = json.load(sys.stdin)
    import perronpoly
    import perronpoly.search  # noqa: F401  (the CLI imports it too)
    from perronpoly.intarith import primes_below

    # primes_below builds the trial-division prime table on first use; every
    # CLI invocation pays for it once, so it belongs to set-up, not to a point.
    primes_below(2)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if Path(perronpoly.__file__).resolve().parent != ROOT / "src" / "perronpoly":
        print(f"imported perronpoly from {perronpoly.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    reference = Reference()
    for _ in range(REFERENCE_AT_READY):
        reference.sample()
    result = {"ready": ready, "ready_reference_ms": list(reference.ms)}
    if not request["probe"]:
        tracer = None
        if request["trace"]:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(perronpoly)
        spec = request["spec"]
        loops = {"search": _search_pass, "points": _points_pass, "verify": _verify_pass}
        reference = Reference()
        with reference.sampling():
            result.update(loops[spec["kind"]](spec, tracer, reference))
        result["reference_ms"] = reference.ms
        result["reference_at"] = reference.at
        result["reference_s"] = reference.spent
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["spans"] = tracer.aggregate()
            result["counters"] = {
                "root_calls": tracer.root_calls,
                "root_repeats": tracer.root_repeats,
                "undecided": tracer.undecided,
            }
            if request["trace_file"]:
                tracer.write_tsv(request["trace_file"])
    json.dump(result, sys.stdout)
    return 0


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _record(cert) -> dict:
    record = cert.to_json_dict()
    record["precision_bits"] = cert.classification.precision_bits
    return record


def _search_pass(spec, tracer, reference) -> dict:
    """run_search over the spec's grid; each point is serialized the way
    ``perronpoly search --ledger`` does it (a stdout line and a ledger line)."""
    from perronpoly import search

    grid = search.SearchSpec(tuple(spec["n_values"]), tuple(spec["a_values"]), spec["p_max"])
    points = search.run_search(grid)
    op_ms, op_at, lines = [], [], []
    start = reference.now()
    while True:
        op_at.append(clock())
        t0 = reference.now()
        with _span(tracer, "bench.op"):
            cert = next(points, None)
            if cert is None:
                op_at.pop()
                break
            with _span(tracer, "search.serialize"):
                stdout_line = json.dumps(cert.to_json_dict())
                ledger_line = search.ledger_record(cert)
        op_ms.append((reference.now() - t0) * 1e3)
        lines.append((stdout_line, ledger_line, cert.classification.precision_bits))
    pass_s = reference.now() - start
    records, mismatches = [], 0
    for stdout_line, ledger_line, bits in lines:
        record = json.loads(ledger_line)
        stamped = {k: v for k, v in record.items() if k not in ("timestamp", "version")}
        mismatches += json.loads(stdout_line) != stamped
        record["precision_bits"] = bits
        records.append(record)
    return {"pass_s": pass_s, "op_ms": op_ms, "op_at": op_at, "attempted": len(op_ms),
            "records": records, "failures": [], "serialization_mismatches": mismatches}


def _points_pass(spec, tracer, reference) -> dict:
    """strictly_perron_certificate once per point; a program error fails only
    that point."""
    from perronpoly import errors, family

    op_ms, op_at, certs, failures = [], [], [], []
    start = reference.now()
    for n, a, p in spec["points"]:
        op_at.append(clock())
        t0 = reference.now()
        try:
            with _span(tracer, "bench.op"):
                certs.append(family.strictly_perron_certificate(n, a, p))
        except errors.PerronPolyError as exc:
            failures.append({"point": [n, a, p], "error": type(exc).__name__,
                             "message": str(exc)[:300]})
        op_ms.append((reference.now() - t0) * 1e3)
    pass_s = reference.now() - start
    return {"pass_s": pass_s, "op_ms": op_ms, "op_at": op_at, "attempted": len(op_ms),
            "records": [_record(cert) for cert in certs], "failures": failures}


_POINT = re.compile(r"^\(n=(\d+), a=(\d+), p=(\d+)\)")


def _verify_pass(spec, tracer, reference) -> dict:
    """run_verify on the spec's grid. One operation is one grid point: it
    starts when run_verify asks for the point's certificate and ends when it
    asks for the next one, so it covers the certificate and the checks
    run_verify makes on it."""
    from perronpoly import search

    certify = search.strictly_perron_certificate
    starts, ends, op_at, certs = [], [], [], []

    def stamped(*args, **kwargs):
        now = reference.now()
        if starts:
            ends.append(now)
        starts.append(now)
        op_at.append(clock())
        cert = certify(*args, **kwargs)
        certs.append(cert)
        return cert

    search.strictly_perron_certificate = stamped
    try:
        start = reference.now()
        with _span(tracer, "bench.op"):
            report = search.run_verify(spec["nmax"], spec["amax"], spec["p_limit"])
        ends.append(reference.now())
    finally:
        search.strictly_perron_certificate = certify
    # The first point also covers run_verify's own start-up.
    starts[:1] = [start]
    failures = []
    for failure in report.failures:
        match = _POINT.match(failure)
        point = [int(g) for g in match.groups()] if match else None
        failures.append({"point": point, "error": "VerifyFailure", "message": failure})
    return {
        "pass_s": ends[-1] - start,
        "op_ms": [(end - begin) * 1e3 for begin, end in zip(starts, ends)],
        "op_at": op_at,
        "attempted": report.points,
        "records": [_record(cert) for cert in certs],
        "failures": failures,
        "verify": {"points": report.points, "passed": report.passed,
                   "failures": report.failures, "truncated": report.truncated},
    }


if __name__ == "__main__":
    sys.exit(main())
