"""Golden outputs: the pipeline's answers must not drift.

tests/data/certificates.jsonl holds one `to_json_dict()` line per point of
`golden_points()`. tests/data/classify.jsonl holds one compact line per
input of `classify_inputs()`: the input, the `classify` answer and the
`monogenic` verdict, each replaced by its error class where the command
exits with an error. A refactor has to reproduce every line byte for byte.
"""
from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

from perronpoly.classification import classify
from perronpoly.errors import PerronPolyError
from perronpoly.family import strictly_perron_certificate
from perronpoly.intarith import primes_below
from perronpoly.monogenicity import monogenic
from perronpoly.polynomial import IntPoly

DATA = Path(__file__).parent / "data"


def golden_points() -> list[tuple[int, int, int]]:
    """n 2..12 × a 1..3 × p ≤ 13; n = 16 with a ∈ {1, 2} and the first three
    primes above a + 1; and five edge points (p = a + 1 at n 15 and 16, where
    no coefficient criterion applies, p near 10^9 and 2^61)."""
    points = [(n, a, p) for n in range(2, 13) for a in (1, 2, 3) for p in primes_below(14)]
    points += [(16, a, p) for a in (1, 2) for p in [q for q in primes_below(20) if q > a + 1][:3]]
    points += [(15, 4, 5), (16, 2, 3), (24, 1, 2), (2, 1, 1000000007), (6, 1, 2**61 - 1)]
    return points


def certificate_line(point: tuple[int, int, int]) -> str:
    return json.dumps(strictly_perron_certificate(*point).to_json_dict())


def classify_inputs() -> list[tuple[int, ...]]:
    """The 2,394 monic polynomials of degree 2..4 with coefficients in
    -3..3 and a nonzero constant term, ascending coefficients."""
    span = range(-3, 4)
    return [
        (c0, *middle, 1)
        for n in (2, 3, 4)
        for c0 in span
        if c0
        for middle in product(span, repeat=n - 1)
    ]


def _answer(compute):
    """compute()'s value, or the class name of the package error it raises."""
    try:
        return compute()
    except PerronPolyError as exc:
        return type(exc).__name__


def classify_line(coeffs: tuple[int, ...]) -> str:
    """[input, class, subclass, lambda, [inside, on, outside], precision_bits,
    monogenic verdict], with an error class in place of a failed answer."""
    f = IntPoly(coeffs)

    def classified() -> list:
        record = classify(f).to_json_dict()
        profile = record["profile"] and list(record["profile"].values())
        return [record["class"], record["subclass"], record["lambda"], profile,
                record["precision_bits"]]

    answer = _answer(classified)
    line = [f.to_text(), *(answer if isinstance(answer, list) else [answer])]
    line.append(_answer(lambda: monogenic(f).verdict))
    return json.dumps(line, separators=(",", ":"))


SETS = {
    "certificates": (golden_points, certificate_line),
    "classify": (classify_inputs, classify_line),
}


def _check(name: str) -> None:
    inputs, line_of = SETS[name]
    expected = (DATA / f"{name}.jsonl").read_text().splitlines()
    items = inputs()
    assert len(expected) == len(items)
    for item, line in zip(items, expected):
        assert line_of(item) == line, item


def test_certificates_match_golden_file():
    """Regenerate the file with
    `PYTHONPATH=src python tests/test_golden.py > tests/data/certificates.jsonl`
    (only when a certificate change is intended)."""
    _check("certificates")


def test_classify_matches_golden_file():
    """Regenerate the file with
    `PYTHONPATH=src python tests/test_golden.py classify > tests/data/classify.jsonl`
    (only when a change of classify or monogenic output is intended)."""
    _check("classify")


if __name__ == "__main__":
    inputs, line_of = SETS[sys.argv[1] if len(sys.argv) > 1 else "certificates"]
    for item in inputs():
        print(line_of(item))
