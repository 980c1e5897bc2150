"""JSON schema for every domain type, plus CSV emission for flat tables.

Scalars are serialized as strings so exactness survives any platform:
rationals as {"num": "...", "den": "..."}, finite floats as their shortest
round-tripping decimal form; row indices are JSON ints.  JSON is canonical;
CSV, only for flat tables (sequences and traces), carries the same number
strings.  Integers past CPython's int/str digit limit convert through
``decimal``, so a report of any size is written and read back alike.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from dataclasses import is_dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import SchemaError
from .operators import ParameterTriple
from .scalars import FLOAT_MODE, RATIONAL_MODE, backend_for
from .triangle import (
    MATRIX_TAILS,
    SEQUENCE_TAILS,
    SPACE_LABELS,
    MatrixWindow,
    SequenceWindow,
    TriangleMatrix,
)

SCHEMA_VERSION = 1
_INDEX_FIELDS = ("window", "arg_index")

_INTEGER_TEXT = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")   # what int() reads
_RATIO_TEXT = re.compile(r"\s*([+-]?\d+(?:_\d+)*)\s*/\s*(\d+(?:_\d+)*)\s*")


def _digits(n):
    """str(n) for an int of any size."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _parse_int(doc):
    """A JSON integer (not a bool), or a decimal integer string of any length."""
    if isinstance(doc, int) and not isinstance(doc, bool):
        return doc
    if not (isinstance(doc, str) and _INTEGER_TEXT.fullmatch(doc)):
        raise ValueError(f"expected an integer or integer string, got {doc!r}")
    try:
        return int(doc)
    except ValueError:    # past the int/str digit limit
        return int(Decimal(doc))


def number_from_text(text):
    """The exact value of 'p/q' or decimal text, as ``Fraction(text)`` reads
    it, with integers of any size."""
    ratio = _RATIO_TEXT.fullmatch(text)
    if ratio:
        return Fraction(_parse_int(ratio[1]), _parse_int(ratio[2]))
    try:
        return Fraction(Decimal(text))
    except (ArithmeticError, ValueError):    # not a number, or not finite
        raise ValueError(f"not a finite number: {text!r}") from None


def scalar_to_json(value):
    if isinstance(value, (Fraction, int)):
        return {"num": _digits(value.numerator), "den": _digits(value.denominator)}
    if isinstance(value, float) and math.isfinite(value):
        return repr(value)
    raise SchemaError("scalar", f"cannot serialize {value!r}: not a rational or an f64 in range")


def scalar_from_json(doc, path="scalar"):
    if isinstance(doc, dict):
        if "num" not in doc or "den" not in doc:
            raise SchemaError(path, "rational object needs 'num' and 'den'")
        try:
            return Fraction(_parse_int(doc["num"]), _parse_int(doc["den"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(path, f"bad rational: {exc}") from None
    if isinstance(doc, str):
        try:
            value = float(doc)
        except ValueError:
            raise SchemaError(path, f"bad float string {doc!r}") from None
        if not math.isfinite(value):
            raise SchemaError(path, f"non-finite number {doc!r}")
        return value
    raise SchemaError(path, f"expected rational object or decimal string, got {type(doc).__name__}")


def _scalar_list(doc, path, backend=None):
    """The scalars of a JSON list, converted to ``backend`` when one is given."""
    values = []
    for i, item in enumerate(_json_list(doc, path)):
        value = scalar_from_json(item, f"{path}[{i}]")
        if backend is not None:
            try:
                value = backend.convert(value)
            except OverflowError:
                raise SchemaError(f"{path}[{i}]", "value is beyond the double range") from None
        values.append(value)
    return values


def canonical_number(value):
    """The single canonical string form shared by CSV and comparisons."""
    if isinstance(value, (Fraction, int)):
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"
    if isinstance(value, float):
        return repr(value)
    raise SchemaError("scalar", f"cannot canonicalize {type(value).__name__}")


def canonical_number_from_json(doc, path="scalar"):
    if isinstance(doc, dict):
        return canonical_number(scalar_from_json(doc, path))
    return doc


def _json_list(doc, path):
    if not isinstance(doc, list):
        raise SchemaError(path, f"expected a list, got {type(doc).__name__}")
    return doc


def sequence_to_json(seq):
    doc = {"values": [scalar_to_json(v) for v in seq.values], "tail": seq.tail}
    if seq.space_label is not None:
        doc["space"] = seq.space_label
    return doc


def sequence_from_json(doc, path="sequence", backend=None):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    if "values" not in doc:
        raise SchemaError(f"{path}.values", "missing field 'values'")
    if "tail" not in doc:
        raise SchemaError(f"{path}.tail", "missing field 'tail'")
    if doc["tail"] not in SEQUENCE_TAILS:
        raise SchemaError(f"{path}.tail", f"tail must be one of {SEQUENCE_TAILS}")
    if doc.get("space") not in (None, *SPACE_LABELS):
        raise SchemaError(f"{path}.space", f"space must be one of {SPACE_LABELS}")
    values = _scalar_list(doc["values"], f"{path}.values", backend)
    return SequenceWindow(values, doc["tail"], doc.get("space"))


def matrix_to_json(matrix):
    rows = [[scalar_to_json(v) for v in row] for row in matrix.rows]
    if isinstance(matrix, TriangleMatrix):
        return {"kind": "triangle", "order": matrix.order, "rows": rows, "tail": matrix.tail}
    return {"kind": "window", "rows": rows, "tail": matrix.row_tail}


def matrix_from_json(doc, path="matrix", backend=None):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    if "rows" not in doc:
        raise SchemaError(f"{path}.rows", "missing field 'rows'")
    if "tail" not in doc:
        raise SchemaError(f"{path}.tail", "missing field 'tail'")
    if doc["tail"] not in MATRIX_TAILS:
        raise SchemaError(f"{path}.tail", f"tail must be one of {MATRIX_TAILS}")
    rows = []
    for i, row in enumerate(_json_list(doc["rows"], f"{path}.rows")):
        rows.append(tuple(_scalar_list(row, f"{path}.rows[{i}]", backend)))
    kind = doc.get("kind")
    if kind is None:
        kind = "triangle" if all(len(row) == i + 1 for i, row in enumerate(rows)) else "window"
    if kind == "triangle":
        return TriangleMatrix(len(rows), tuple(rows), doc["tail"])
    if kind == "window":
        return MatrixWindow(tuple(rows), doc["tail"])
    raise SchemaError(f"{path}.kind", f"kind must be 'triangle' or 'window', got {kind!r}")


def params_to_json(p):
    return {
        "r": [scalar_to_json(v) for v in p.r],
        "s": [scalar_to_json(v) for v in p.s],
        "t": [scalar_to_json(v) for v in p.t],
        "m": p.m,
        "order": p.order,
        "scalar": p.backend.mode,
    }


def params_from_json(doc, path="params"):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    for field in ("r", "s", "t", "m", "order"):
        if field not in doc:
            raise SchemaError(f"{path}.{field}", f"missing field {field!r}")
    mode = doc.get("scalar", RATIONAL_MODE)
    if mode not in (RATIONAL_MODE, FLOAT_MODE):
        raise SchemaError(f"{path}.scalar", f"scalar must be 'rational' or 'float', got {mode!r}")
    backend = backend_for(mode)
    windows = {field: tuple(_scalar_list(doc[field], f"{path}.{field}", backend))
               for field in ("r", "s", "t")}
    return ParameterTriple(windows["r"], windows["s"], windows["t"],
                           _integer(doc["m"], f"{path}.m", 0),
                           _integer(doc["order"], f"{path}.order", 1), backend)


def _integer(doc, path, least):
    if isinstance(doc, bool) or not isinstance(doc, int) or doc < least:
        raise SchemaError(path, f"expected an integer >= {least}, got {doc!r}")
    return doc


def _plain(value, index=False):
    """Recursively turn package values into JSON-ready structures.  The
    dataclass fields ``window`` and ``arg_index`` hold row indices (``index``),
    written as plain JSON ints; every other number is a scalar."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (Fraction, float, int)):
        return int(value) if index else scalar_to_json(value)
    if isinstance(value, SequenceWindow):
        return sequence_to_json(value)
    if isinstance(value, MatrixWindow):
        return matrix_to_json(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, index) for v in value]
    if is_dataclass(value):
        return {k: _plain(v, k in _INDEX_FIELDS) for k, v in vars(value).items()
                if not callable(v)}
    raise SchemaError("report", f"cannot serialize {type(value).__name__}")


def canonical_dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def job_hash(job_doc):
    return hashlib.sha256(canonical_dumps(job_doc).encode("utf-8")).hexdigest()


def make_report(job_doc, backend, result):
    """Wrap a result payload with its reproducibility header."""
    return {
        "schema": SCHEMA_VERSION,
        "job": job_doc,
        "job_hash": job_hash(job_doc),
        "backend": backend.mode,
        "result": _plain(result),
    }


def sequence_to_csv(report, seq):
    """Flat CSV for a sequence result; header comments carry the report identity."""
    out = io.StringIO()
    out.write(f"# job_hash={report['job_hash']}\n")
    out.write(f"# backend={report['backend']}\n")
    out.write("index,value\n")
    for i, v in enumerate(seq.values):
        out.write(f"{i},{canonical_number(v)}\n")
    return out.getvalue()
