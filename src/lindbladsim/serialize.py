"""Canonical JSON encoding for generators, plans, states, and reports.

Complex scalars are encoded as two-element [re, im] arrays.  Emission is
canonical: object keys are sorted, floats carry 17 significant digits, and
no insignificant whitespace is produced, so parse -> emit is byte-stable
on files this module wrote.
"""

import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .lindblad import DiagonalGenerator, GksGenerator, LindbladError, QuantumState, from_diagonal
from .sud import SudError, gell_mann_basis
from .decompose import ConjugationPlan


class SerializeError(ValueError):
    pass


def _float(x) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise SerializeError(f"cannot encode non-finite float {value}")
    return format(value, ".17g")


def _int(x) -> str:
    return str(int(x))


def _dict(obj: dict) -> str:
    items = (f"{encode_basestring_ascii(str(k))}:{_encode(v)}" for k, v in sorted(obj.items()))
    return "{" + ",".join(items) + "}"


def _sequence(obj) -> str:
    if len(obj) == 2:  # an [re, im] pair of finite floats is formatted in one step
        re, im = obj
        if type(re) is float and type(im) is float and math.isfinite(re) and math.isfinite(im):
            return f"[{re:.17g},{im:.17g}]"
    return "[" + ",".join(map(_encode, obj)) + "]"


_ENCODERS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: _int,
    float: _float,
    str: encode_basestring_ascii,  # what json.dumps does with a str
    dict: _dict,
    list: _sequence,
    tuple: _sequence,
}


def _base_type(obj) -> type:
    """The type among _ENCODERS whose encoding obj gets: numpy scalars and arrays,
    and subclasses (bool, which has none, is dispatched on its exact type)."""
    if isinstance(obj, (int, np.integer)):
        return int
    if isinstance(obj, (float, np.floating)):
        return float
    if isinstance(obj, str):
        return str
    if isinstance(obj, dict):
        return dict
    if isinstance(obj, (list, tuple, np.ndarray)):
        return list
    raise SerializeError(f"cannot encode object of type {type(obj)!r}")


def _encode(obj) -> str:
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        encoder = _ENCODERS[_base_type(obj)]
    return encoder(obj)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed float format, compact."""
    return _encode(obj)


def quoted(x, limit: int = 80) -> str:
    """repr(x) for an error message, cut to limit characters with an ellipsis."""
    text = repr(x)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def number(x, what: str) -> float:
    """x as a float when it is a JSON number (an int or a float, numpy
    scalars included); text and booleans are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise SerializeError(f"{what} must be a number, got {quoted(x)}")
    try:
        return float(x)
    except OverflowError:
        raise SerializeError(f"{what} must be a number, got {quoted(x)}") from None


def _finite(x, what: str) -> float:
    value = number(x, what)
    if not math.isfinite(value):
        raise SerializeError(f"{what} must be finite, got {quoted(x)}")
    return value


def _dimension(x) -> int:
    d = _finite(x, "'d'")
    if not d.is_integer():
        raise SerializeError(f"'d' must be an integer, got {quoted(x)}")
    return int(d)


def json_to_complex(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise SerializeError(f"expected a [re, im] pair, got {quoted(obj)}")
    return complex(_finite(obj[0], "real part"), _finite(obj[1], "imaginary part"))


def matrix_to_json(m) -> list:
    """The entries of a complex matrix (or vector) as [re, im] pairs of floats."""
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


_PAIR_TYPES = {list, tuple}
_PART_TYPES = {int, float}  # JSON numbers; bool, text and numpy scalars take the walk


def json_to_matrix(obj) -> np.ndarray:
    """The complex matrix of a list of rows of [re, im] pairs of finite numbers."""
    if not isinstance(obj, list) or not obj:
        raise SerializeError("expected a non-empty list of rows")
    if not all(isinstance(row, list) and len(row) == len(obj[0]) for row in obj):
        raise SerializeError("expected rows that are lists of equal length")
    shape = (len(obj), len(obj[0]))
    entries = list(chain.from_iterable(obj))
    try:
        a = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):  # refused entry by entry below
        a = None
    if not (a is not None and a.shape == (*shape, 2) and np.isfinite(a).all()
            and _PAIR_TYPES.issuperset(map(type, entries))
            and _PART_TYPES.issuperset(map(type, chain.from_iterable(entries)))):
        for z in entries:  # words the first entry's refusal
            json_to_complex(z)
        # every entry passed: numpy scalars, subclasses or empty rows
        a = np.array(obj, dtype=float).reshape(*shape, 2)
    # a view of the float pairs, so that a -0.0 part keeps its sign
    return a.view(complex).reshape(shape)


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
    if d < 2:  # gell_mann_basis's refusal, ahead of H's shape, which would read 0x0
        raise SudError(f"dimension must be >= 2, got {d}")
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
        for key in ("d", "rho"):
            if key not in doc:
                raise SerializeError(f"state document is missing {key!r}")
        return QuantumState(d=_dimension(doc["d"]), rho=json_to_matrix(doc["rho"]))
    rho = json_to_matrix(doc)
    return QuantumState(d=rho.shape[0], rho=rho)
