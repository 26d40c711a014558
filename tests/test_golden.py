"""Golden certificates: the pipeline's JSON must not drift.

tests/data/certificates.jsonl holds one `to_json_dict()` line per point of
`golden_points()`. A refactor of the certificate pipeline has to reproduce
every line byte for byte.
"""
from __future__ import annotations

import json
from pathlib import Path

from perronpoly.family import strictly_perron_certificate
from perronpoly.intarith import primes_below

GOLDEN = Path(__file__).parent / "data" / "certificates.jsonl"


def golden_points() -> list[tuple[int, int, int]]:
    """n 2..12 × a 1..3 × p ≤ 13; n = 16 with a ∈ {1, 2} and the first three
    primes above a + 1; and five edge points (p = a + 1 past the factor
    oracle's ceiling, p near 10^9 and 2^61)."""
    points = [(n, a, p) for n in range(2, 13) for a in (1, 2, 3) for p in primes_below(14)]
    points += [(16, a, p) for a in (1, 2) for p in [q for q in primes_below(20) if q > a + 1][:3]]
    points += [(15, 4, 5), (16, 2, 3), (24, 1, 2), (2, 1, 1000000007), (6, 1, 2**61 - 1)]
    return points


def certificate_line(point: tuple[int, int, int]) -> str:
    return json.dumps(strictly_perron_certificate(*point).to_json_dict())


def test_certificates_match_golden_file():
    """Regenerate the file with
    `PYTHONPATH=src python tests/test_golden.py > tests/data/certificates.jsonl`
    (only when a certificate change is intended)."""
    expected = GOLDEN.read_text().splitlines()
    points = golden_points()
    assert len(expected) == len(points)
    for point, line in zip(points, expected):
        assert certificate_line(point) == line, point


if __name__ == "__main__":
    for point in golden_points():
        print(certificate_line(point))
