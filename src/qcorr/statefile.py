"""Reading and writing states as plain JSON documents.

A state file holds {"dims": [M, N], "matrix": [[re, im], ...]} with the
(M N)^2 entries in row-major order, plus an optional "metadata" object
(label, seed, family).  JSON floats are emitted with Python's shortest
round-trip representation, so a written file reproduces the state's
matrix bit for bit when read back.  That matrix is the Hermitian part
validate kept, so a file read with a Hermiticity defect under the bound
is written back without it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bipartite import BipartiteState, validate
from .errors import ParseError
from .matlib import DEFAULT_TOL, Tolerance

__all__ = [
    "state_to_dict",
    "state_from_dict",
    "write_statefile",
    "read_statefile",
]


def state_to_dict(state: BipartiteState, metadata: dict | None = None) -> dict:
    """JSON-serializable document for the state."""
    flat = state.rho.reshape(-1)
    doc = {
        "dims": [state.dim_a, state.dim_b],
        "matrix": [[float(z.real), float(z.imag)] for z in flat],
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def _entry_error(i: int, pair) -> ParseError:
    return ParseError(f"matrix entry {i} must be a finite [re, im] pair, got {pair!r}")


def state_from_dict(doc, tol: Tolerance = DEFAULT_TOL) -> tuple[BipartiteState, dict]:
    """Parse and validate a document; returns the state and its metadata.

    dims are two JSON integers, not booleans.  Matrix entries are [re, im]
    pairs of JSON numbers; a boolean, NaN, an infinity or an integer beyond
    the float range raises ParseError naming the entry, as do other
    structural problems.  A well-formed matrix that is not a valid density
    matrix raises the specific validation error instead.  Metadata that
    strict JSON cannot hold, such as NaN or an infinity at any depth, raises
    ParseError.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object, got {type(doc).__name__}")
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(type(d) is int and d >= 1 for d in dims)  # bool is an int subclass
    ):
        raise ParseError(f"dims must be two positive integers, got {dims!r}")
    m, n = dims
    entries = doc.get("matrix")
    want = (m * n) ** 2
    if not isinstance(entries, list) or len(entries) != want:
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise ParseError(f"matrix must hold {want} entries, got {got}")
    for i, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], (int, float)) and isinstance(pair[1], (int, float))
                and bool not in (type(pair[0]), type(pair[1]))):
            raise _entry_error(i, pair)
    try:
        pairs = np.array(entries, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        big = float(np.finfo(np.float64).max)
        pairs = np.array([[x if abs(x) <= big else np.inf for x in p] for p in entries])
    if not np.isfinite(pairs).all():
        i = int(np.argmin(np.isfinite(pairs).all(axis=1)))
        raise _entry_error(i, entries[i])
    if not isinstance(metadata := doc.get("metadata"), dict | None):  # null reads as absent
        raise ParseError(f"metadata must be an object, got {metadata!r}")
    try:  # json.loads reads NaN and Infinity, which RFC 8259 JSON has no place for
        json.dumps(metadata, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"metadata must be strict JSON, got {metadata!r}: {exc}") from None
    state = validate(pairs.view(np.complex128).reshape(m * n, m * n), m, n, tol)
    return state, metadata or {}


def write_statefile(path, state: BipartiteState, metadata: dict | None = None) -> None:
    """Write the state as a JSON document."""
    Path(path).write_text(json.dumps(state_to_dict(state, metadata), indent=1) + "\n")


def read_statefile(path, tol: Tolerance = DEFAULT_TOL) -> tuple[BipartiteState, dict]:
    """Read and validate a state file written by write_statefile."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return state_from_dict(doc, tol)
