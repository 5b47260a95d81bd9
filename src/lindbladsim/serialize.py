"""Canonical JSON encoding for generators, plans, states, and reports.

Complex scalars are encoded as two-element [re, im] arrays.  Emission is
canonical: object keys are sorted, floats carry 17 significant digits, and
no insignificant whitespace is produced, so parse -> emit is byte-stable
on files this module wrote.
"""

import json
import math

import numpy as np

from .lindblad import DiagonalGenerator, GksGenerator, LindbladError, QuantumState, from_diagonal
from .sud import gell_mann_basis
from .decompose import ConjugationPlan


class SerializeError(ValueError):
    pass


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise SerializeError(f"cannot encode non-finite float {x}")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed float format, compact."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise SerializeError(f"cannot encode object of type {type(obj)!r}")


def complex_to_json(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _finite(x, what: str) -> float:
    try:
        value = float(x)
    except (TypeError, ValueError, OverflowError):
        raise SerializeError(f"{what} must be a number, got {x!r}") from None
    if not math.isfinite(value):
        raise SerializeError(f"{what} must be finite, got {x!r}")
    return value


def _dimension(x) -> int:
    d = _finite(x, "'d'")
    if not d.is_integer():
        raise SerializeError(f"'d' must be an integer, got {x!r}")
    return int(d)


def json_to_complex(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise SerializeError(f"expected a [re, im] pair, got {obj!r}")
    return complex(_finite(obj[0], "real part"), _finite(obj[1], "imaginary part"))


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in a]


def json_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SerializeError("expected a non-empty list of rows")
    if not all(isinstance(row, list) and len(row) == len(obj[0]) for row in obj):
        raise SerializeError("expected rows that are lists of equal length")
    return np.array([[json_to_complex(z) for z in row] for row in obj], dtype=complex)


def vector_to_json(v) -> list:
    return [complex_to_json(z) for z in np.asarray(v, dtype=complex)]


def generator_to_json(g) -> dict:
    if isinstance(g, GksGenerator):
        return {"d": g.d, "H": matrix_to_json(g.H), "A": matrix_to_json(g.A)}
    if isinstance(g, DiagonalGenerator):
        return {"d": g.d, "H": matrix_to_json(g.H),
                "terms": [{"gamma": gamma, "L": matrix_to_json(L)} for gamma, L in g.terms]}
    raise SerializeError(f"cannot encode generator of type {type(g)!r}")


def parse_generator(doc: dict) -> GksGenerator:
    """Parse a generator document ({d, H, A} or {d, H, terms}) to GKS form."""
    if not isinstance(doc, dict):
        raise SerializeError("generator document must be an object")
    for key in ("d", "H"):
        if key not in doc:
            raise SerializeError(f"generator document is missing {key!r}")
    d = _dimension(doc["d"])
    H = json_to_matrix(doc["H"])
    if H.shape != (d, d):  # before the basis, whose size grows as d^4
        raise LindbladError(f"H must be {d}x{d}, got {H.shape}")
    has_a = "A" in doc
    has_terms = "terms" in doc
    if has_a == has_terms:
        raise SerializeError("generator document needs exactly one of 'A' or 'terms'")
    basis = gell_mann_basis(d)
    if has_a:
        return GksGenerator(basis=basis, H=H, A=json_to_matrix(doc["A"]))
    if not isinstance(doc["terms"], list):
        raise SerializeError("'terms' must be a list")
    terms = []
    for entry in doc["terms"]:
        if not (isinstance(entry, dict) and "gamma" in entry and "L" in entry):
            raise SerializeError("each entry of 'terms' needs 'gamma' and 'L'")
        terms.append((_finite(entry["gamma"], "'gamma'"), json_to_matrix(entry["L"])))
    return from_diagonal(DiagonalGenerator(d=d, H=H, terms=tuple(terms)), basis)


def plan_to_json(plan: ConjugationPlan) -> dict:
    return {
        "lambda": plan.lam,
        "theta": plan.params.theta,
        "alphaR": list(plan.params.alphaR),
        "alphaI": list(plan.params.alphaI),
        "U": matrix_to_json(plan.U),
    }


def plans_to_json(H, plans, residuals) -> dict:
    return {
        "d": int(np.asarray(H).shape[0]),
        "H": matrix_to_json(H),
        "plans": [plan_to_json(p) for p in plans],
        "residuals": [float(r) for r in residuals],
    }


def parse_state(doc) -> QuantumState:
    if isinstance(doc, dict):
        return QuantumState(d=_dimension(doc["d"]), rho=json_to_matrix(doc["rho"]))
    rho = json_to_matrix(doc)
    return QuantumState(d=rho.shape[0], rho=rho)
