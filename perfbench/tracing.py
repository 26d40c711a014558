"""In-memory span tracer for the traced benchmark run.

The tracer wraps every public function of each perronpoly layer module and
rebinds the wrapper wherever the package holds a reference to the original:
in the defining module and in every module that imported it (``family`` holds
its own bindings of ``classify``, ``monogenic``, ``squarefree_status`` and
``dominant_eigenvalue``, for instance). Nothing under ``src/`` changes.

Each call becomes one span (name, start, end, parent, exception class). A
span's self time is its duration minus the durations of its direct children.
Code that is not wrapped (private helpers, ``IntPoly`` methods, dataclass
construction) counts towards the self time of the nearest wrapped caller.
Generator functions (``search.run_search``) are left unwrapped, because a
wrapper would close its span when the generator is created rather than when
it produces a point; their work lands in the benchmark's own ``bench.op``
span instead.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager

# The modules of src/perronpoly whose public functions get spans. cli (argument
# parsing and printing) and errors (exception classes) have none to time.
LAYERS = (
    "roots",
    "classification",
    "matrices",
    "intarith",
    "polynomial",
    "irreducibility",
    "monogenicity",
    "family",
    "search",
)


class Tracer:
    """Collects spans from wrapped calls and from benchmark-side ``span`` blocks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.errors: list[str | None] = []
        self._stack = [-1]
        self.root_calls = 0
        self.root_repeats = 0
        self._root_keys: set = set()
        self.undecided = 0

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.errors.append(None)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code."""
        idx = self._open(name)
        try:
            yield
        except BaseException as exc:
            self.errors[idx] = type(exc).__name__
            raise
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        on_call = _ON_CALL.get(name)
        on_result = _ON_RESULT.get(name)
        signature = inspect.signature(fn) if on_call is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(self, bound.arguments)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the layers' public functions and rebind them package-wide, for
        the rest of the process."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and inclusive nanoseconds, errors by class.

        Inclusive time skips spans nested inside a span of the same name, so
        recursion is not counted twice.
        """
        count = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        own = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0, "errors": {}})
            row["calls"] += 1
            row["self_ns"] += own[i]
            parent = self.parents[i]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                row["incl_ns"] += durations[i]
            error = self.errors[i]
            if error is not None:
                row["errors"][error] = row["errors"].get(error, 0) + 1
        return out

    def write_tsv(self, path) -> None:
        """All spans, one per line: id, parent id, name, start, end (ns), error."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\terror\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]}\t{self.ends[i]}\t"
                    f"{self.errors[i] or ''}\n"
                )


def _count_root_request(tracer: Tracer, arguments) -> None:
    """Count complex_roots calls whose (coefficients, precision) were already
    requested earlier in the pass."""
    key = (arguments["f"].coeffs, arguments["precision_bits"])
    tracer.root_calls += 1
    if key in tracer._root_keys:
        tracer.root_repeats += 1
    else:
        tracer._root_keys.add(key)


def _count_unknown_status(tracer: Tracer, status) -> None:
    if not status.is_decided:
        tracer.undecided += 1


def _count_incomplete_factorization(tracer: Tracer, factorization) -> None:
    if not factorization.complete:
        tracer.undecided += 1


_ON_CALL = {"roots.complex_roots": _count_root_request}
_ON_RESULT = {
    "intarith.squarefree_status": _count_unknown_status,
    "intarith.factorize": _count_incomplete_factorization,
}


def layer_metrics(
    agg: dict, attempted: int, counters: dict, speed: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: times in reference milliseconds
    per attempted point, counts per pass.

    ``agg`` is ``Tracer.aggregate()``; ``counters`` holds the tracer's root and
    verdict counters plus ``escalated_points`` from the certificates; ``speed``
    converts the pass's times to reference time.
    """

    def per_point_ms(ns: float) -> tuple[float, str]:
        return (ns / 1e6 / max(attempted, 1) * speed, "ms/pt")

    def row(name):
        return agg.get(name, {"calls": 0, "self_ns": 0, "incl_ns": 0, "errors": {}})

    def self_ms(name):
        return per_point_ms(row(name)["self_ns"])

    def incl_ms(name):
        return per_point_ms(row(name)["incl_ns"])

    def calls(*names):
        return (sum(row(n)["calls"] for n in names), "count")

    family_self = sum(r["self_ns"] for n, r in agg.items() if n.startswith("family."))
    root_calls = counters["root_calls"]
    return {
        "roots.solve_ms": self_ms("roots.complex_roots"),
        "roots.cache_hit_ratio": (
            counters["root_repeats"] / root_calls if root_calls else 0.0,
            "ratio",
        ),
        "roots.real_axis_ms": incl_ms("roots.real_axis_profile"),
        "roots.escalated_points": (counters["escalated_points"], "count"),
        "classification.classify_self_ms": self_ms("classification.classify"),
        "matrices.power_iteration_ms": incl_ms("matrices.dominant_eigenvalue"),
        "matrices.nonconvergence": (
            row("matrices.dominant_eigenvalue")["errors"].get("NonConvergenceError", 0),
            "count",
        ),
        "intarith.squarefree_ms": incl_ms("intarith.squarefree_status"),
        "intarith.squarefree_calls": calls("intarith.squarefree_status"),
        "intarith.factorize_ms": incl_ms("intarith.factorize"),
        "intarith.factorize_calls": calls("intarith.factorize"),
        "intarith.is_prime_calls": calls("intarith.is_prime"),
        "intarith.unknown_verdicts": (counters["undecided"], "count"),
        "polynomial.resultant_disc_ms": incl_ms("polynomial.discriminant"),
        "polynomial.resultant_disc_calls": calls("polynomial.discriminant"),
        "polynomial.sturm_ms": incl_ms("polynomial.sturm_count"),
        "irreducibility.witness_ms": incl_ms("irreducibility.irreducibility_witness"),
        "irreducibility.witness_calls": calls("irreducibility.irreducibility_witness"),
        "irreducibility.factor_oracle_ms": incl_ms("irreducibility.factor_oracle"),
        "irreducibility.factor_oracle_calls": calls("irreducibility.factor_oracle"),
        "monogenicity.monogenic_self_ms": self_ms("monogenicity.monogenic"),
        "monogenicity.local_tests": calls(
            "monogenicity.jks_local_test", "monogenicity.dedekind_local_test"
        ),
        "monogenicity.dedekind_ms": incl_ms("monogenicity.dedekind_local_test"),
        "family.certificate_self_ms": per_point_ms(family_self),
        "search.serialize_ms": incl_ms("search.serialize"),
        "search.verify_checks_ms": self_ms("search.run_verify"),
    }
