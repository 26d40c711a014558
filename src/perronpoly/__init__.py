"""Certified study of the trinomial family x^n - a*x^(n-1) - p:
irreducibility by criteria and by exact factorization modulo primes,
monogenicity by two independent local criteria, certified root geometry
(Pisot / Salem / anti-Pisot / strictly-Perron) with the dominant root
checked by an exact sign-change bracket, and a searchable certificate
pipeline. Companion matrices and power iteration are in `matrices`.
"""

__version__ = "0.1.0"

from .classification import Classification, classify
from .errors import (
    InvalidInputError,
    NonConvergenceError,
    OracleViolationError,
    PerronPolyError,
    PrecisionExhaustedError,
)
from .family import (
    Certificate,
    FamilyParams,
    descartes_profile,
    family_monogenic,
    strictly_perron_certificate,
)
from .intarith import factorize, is_prime
from .irreducibility import factor_oracle, irreducibility_witness, is_irreducible
from .monogenicity import (
    MonogenicityReport,
    TrinomialParams,
    dedekind_local_test,
    jks_local_test,
    monogenic,
)
from .polynomial import IntPoly, discriminant, resultant
from .roots import CertifiedRootSet, complex_roots

__all__ = [
    "__version__",
    "Certificate",
    "CertifiedRootSet",
    "Classification",
    "FamilyParams",
    "IntPoly",
    "InvalidInputError",
    "MonogenicityReport",
    "NonConvergenceError",
    "OracleViolationError",
    "PerronPolyError",
    "PrecisionExhaustedError",
    "TrinomialParams",
    "classify",
    "complex_roots",
    "dedekind_local_test",
    "descartes_profile",
    "discriminant",
    "factor_oracle",
    "factorize",
    "family_monogenic",
    "irreducibility_witness",
    "is_irreducible",
    "is_prime",
    "jks_local_test",
    "monogenic",
    "resultant",
    "strictly_perron_certificate",
]
