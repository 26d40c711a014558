"""Golden outputs: the pipeline's answers must not drift.

tests/data/certificates.jsonl holds one `to_json_dict()` line per point of
`golden_points()`. tests/data/classify.jsonl holds one compact line per
input of `classify_inputs()`: the input, the `classify` answer and the
`monogenic` verdict, each replaced by its error class where the command
exits with an error. tests/data/classify_big.jsonl holds the same line
without the verdict for each input of `classify_big_inputs()`, whose roots
mostly need the fixed-point refinement. tests/data/certificate_grid.jsonl
holds the certificate and its `precision_bits` for each point of
`certificate_grid()`, and tests/data/monogenic_trinomials.jsonl the exit
code and output of `perronpoly monogenic --coeffs` for each input of
`monogenic_trinomials()`. A refactor has to reproduce every line byte for
byte.
"""
from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from perronpoly import cli
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


def certificate_grid() -> list[tuple[int, int, int]]:
    """The 663 points n 2..12 and 16, 24 × a 1..3 × primes p < 61."""
    return [(n, a, p) for n in [*range(2, 13), 16, 24] for a in (1, 2, 3) for p in primes_below(61)]


def certificate_grid_line(point: tuple[int, int, int]) -> str:
    """The certificate's JSON and the precision its roots were certified at,
    as one compact line."""
    cert = strictly_perron_certificate(*point)
    record = {**cert.to_json_dict(), "precision_bits": cert.classification.precision_bits}
    return json.dumps(record, separators=(",", ":"))


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


def classify_big_inputs() -> list[tuple[int, ...]]:
    """400 seeded monic polynomials of degree 5..8 with coefficients in
    -5..5 and a nonzero constant term; in every odd-indexed one a coefficient
    below the leading one becomes +-randint(10^10, 10^e), e in 10..60."""
    rng = random.Random(0)
    inputs = []
    for i in range(400):
        n = rng.randint(5, 8)
        coeffs = [rng.choice([c for c in range(-5, 6) if c])]
        coeffs += [rng.randint(-5, 5) for _ in range(n - 1)]
        if i % 2:
            big = rng.randint(10**10, 10 ** rng.randint(10, 60))
            coeffs[rng.randrange(n)] = rng.choice((-1, 1)) * big
        inputs.append((*coeffs, 1))
    return inputs


def monogenic_trinomials() -> list[tuple[int, ...]]:
    """A seeded sample of 2,000 of the 32,400 trinomials x^n + A x^m + B
    with n 2..9, 0 < m < n and A, B in -15..15 but not 0, ascending
    coefficients, in enumeration order."""
    span = [c for c in range(-15, 16) if c]
    trinomials = [
        tuple(B if i == 0 else A if i == m else int(i == n) for i in range(n + 1))
        for n in range(2, 10)
        for m in range(1, n)
        for A in span
        for B in span
    ]
    return [trinomials[i] for i in sorted(random.Random(0).sample(range(len(trinomials)), 2000))]


def monogenic_line(coeffs: tuple[int, ...]) -> str:
    """[input, exit code, output] of `perronpoly monogenic --coeffs`: the
    report it prints, or its error line when it exits with an error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["monogenic", "--coeffs", ",".join(map(str, coeffs))])
    output = json.loads(out.getvalue()) if out.getvalue() else err.getvalue().strip()
    return json.dumps([IntPoly(coeffs).to_text(), code, output], separators=(",", ":"))


def _answer(compute):
    """compute()'s value, or the class name of the package error it raises."""
    try:
        return compute()
    except PerronPolyError as exc:
        return type(exc).__name__


def classify_big_line(coeffs: tuple[int, ...]) -> str:
    """_classified's list as one compact line."""
    return json.dumps(_classified(IntPoly(coeffs)), separators=(",", ":"))


def classify_line(coeffs: tuple[int, ...]) -> str:
    """_classified's list and the monogenic verdict, or its error class."""
    f = IntPoly(coeffs)
    line = _classified(f)
    line.append(_answer(lambda: monogenic(f).verdict))
    return json.dumps(line, separators=(",", ":"))


def _classified(f: IntPoly) -> list:
    """[input, class, subclass, lambda, [inside, on, outside], precision_bits],
    with an error class in place of a failed answer."""

    def classified() -> list:
        record = classify(f).to_json_dict()
        profile = record["profile"] and list(record["profile"].values())
        return [record["class"], record["subclass"], record["lambda"], profile,
                record["precision_bits"]]

    answer = _answer(classified)
    return [f.to_text(), *(answer if isinstance(answer, list) else [answer])]


SETS = {
    "certificates": (golden_points, certificate_line),
    "classify": (classify_inputs, classify_line),
    "classify_big": (classify_big_inputs, classify_big_line),
    "certificate_grid": (certificate_grid, certificate_grid_line),
    "monogenic_trinomials": (monogenic_trinomials, monogenic_line),
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


def test_classify_big_matches_golden_file():
    """Regenerate the file with
    `PYTHONPATH=src python tests/test_golden.py classify_big > tests/data/classify_big.jsonl`
    (only when a change of classify output is intended)."""
    _check("classify_big")


def test_certificate_grid_matches_golden_file():
    """Regenerate the file with
    `PYTHONPATH=src python tests/test_golden.py certificate_grid > tests/data/certificate_grid.jsonl`
    (only when a certificate or precision change is intended)."""
    _check("certificate_grid")


def test_monogenic_trinomials_match_golden_file():
    """Regenerate the file with
    `PYTHONPATH=src python tests/test_golden.py monogenic_trinomials > tests/data/monogenic_trinomials.jsonl`
    (only when a change of monogenic output or exit code is intended)."""
    _check("monogenic_trinomials")


if __name__ == "__main__":
    inputs, line_of = SETS[sys.argv[1] if len(sys.argv) > 1 else "certificates"]
    for item in inputs():
        print(line_of(item))
