import json
from decimal import Decimal
from fractions import Fraction as F

import pytest

from genmeans import (
    MatrixWindow,
    RATIONAL,
    SchemaError,
    SequenceWindow,
    TriangleMatrix,
    identity_triple,
)
from genmeans.serialize import (
    canonical_number,
    canonical_number_from_json,
    job_hash,
    make_report,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    scalar_from_json,
    scalar_to_json,
    sequence_from_json,
    sequence_to_csv,
    sequence_to_json,
)


def test_rational_round_trip():
    doc = scalar_to_json(F(5, 8))
    assert doc == {"num": "5", "den": "8"}
    assert scalar_from_json(doc) == F(5, 8)
    # num and den may also be JSON integers, though not bools
    assert scalar_from_json({"num": -5, "den": " 8"}) == F(-5, 8)


def test_float_round_trip():
    doc = scalar_to_json(0.1)
    assert isinstance(doc, str)
    assert scalar_from_json(doc) == 0.1


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_float_is_not_written(value):
    # the reader rejects it, so the writer must not produce it
    with pytest.raises(SchemaError, match="f64"):
        scalar_to_json(value)


def test_scalar_schema_errors_name_path():
    with pytest.raises(SchemaError) as err:
        scalar_from_json({"num": "1"}, path="x.values[0]")
    assert "x.values[0]" in str(err.value)


def test_sequence_round_trip():
    x = SequenceWindow((F(1), F(-2, 3), F(0)), "zero", "c0")
    doc = sequence_to_json(x)
    back = sequence_from_json(doc)
    assert back.values == x.values
    assert back.tail == "zero"
    assert back.space_label == "c0"


def test_sequence_missing_tail_names_field():
    with pytest.raises(SchemaError) as err:
        sequence_from_json({"values": []})
    assert "tail" in str(err.value)


def test_sequence_bad_tail_value():
    with pytest.raises(SchemaError):
        sequence_from_json({"values": [], "tail": "structural"})


def test_triangle_round_trip():
    M = TriangleMatrix(2, ((F(1),), (F(1, 2), F(3))), "zero")
    doc = matrix_to_json(M)
    back = matrix_from_json(doc)
    assert isinstance(back, TriangleMatrix)
    assert back.rows == M.rows and back.tail == "zero"


def test_window_round_trip():
    W = MatrixWindow(((F(1), F(2)), (F(0), F(1))), "zero")
    doc = matrix_to_json(W)
    back = matrix_from_json(doc)
    assert isinstance(back, MatrixWindow)
    assert back.rows == W.rows


def test_matrix_missing_tail():
    with pytest.raises(SchemaError) as err:
        matrix_from_json({"rows": [[{"num": "1", "den": "1"}]]})
    assert "tail" in str(err.value)


def test_params_round_trip():
    p = identity_triple(4, m=2)
    back = params_from_json(params_to_json(p))
    assert back.r == p.r and back.s == p.s and back.t == p.t
    assert back.m == p.m and back.order == p.order
    assert back.backend.mode == p.backend.mode


def test_report_embeds_hash_and_backend():
    job = {"command": "norm", "n": 4}
    report = make_report(job, RATIONAL, {"value": F(1, 2)})
    assert report["job_hash"] == job_hash(job)
    assert report["backend"] == "rational"
    assert report["result"]["value"] == {"num": "1", "den": "2"}


def test_job_hash_is_order_insensitive():
    assert job_hash({"a": 1, "b": 2}) == job_hash({"b": 2, "a": 1})


def test_csv_matches_json_values():
    x = SequenceWindow((F(1), F(-2, 3), F(5)), "zero")
    report = make_report({"command": "transform"}, RATIONAL, {"sequence": x})
    csv_text = sequence_to_csv(report, x)
    csv_values = [line.split(",")[1] for line in csv_text.strip().splitlines()[3:]]
    json_values = [canonical_number_from_json(v)
                   for v in report["result"]["sequence"]["values"]]
    assert csv_values == json_values


def test_canonical_number_forms():
    assert canonical_number(F(5, 8)) == "5/8"
    assert canonical_number(F(3)) == "3/1"
    assert canonical_number(0.25) == "0.25"


def test_numbers_past_the_int_str_digit_limit_round_trip():
    # 7**6000 has 5,071 digits, past CPython's default int/str limit of 4,300
    x = F(-7 ** 6000, 3 ** 5000)
    num, den = str(Decimal(x.numerator)), str(Decimal(x.denominator))
    doc = json.loads(json.dumps(scalar_to_json(x)))
    assert doc == {"num": num, "den": den}
    assert scalar_from_json(doc) == x
    seq = SequenceWindow((x, F(1, 2)), "zero")
    report = make_report({"command": "transform"}, RATIONAL, {"sequence": seq})
    assert sequence_from_json(json.loads(json.dumps(report))["result"]["sequence"]).values == (
        x, F(1, 2))
    assert sequence_to_csv(report, seq).splitlines()[3:] == [f"0,{num}/{den}", "1,1/2"]
    assert canonical_number(7 ** 6000) == f"{Decimal(7 ** 6000)}/1"


@pytest.mark.parametrize("text", ["1e0", "1.0", "0x10", "", "+-1", "1__0", "NaN", "12x",
                                  "1" * 5000 + "e0", "1" * 5000 + ".5", "1" * 5000 + "x",
                                  [1], {"x": 1}, 1.5, True, None])
def test_integer_strings_int_rejects_stay_rejected(text):
    # num and den are JSON integers (not bools) or decimal integer strings
    with pytest.raises(SchemaError, match="bad rational"):
        scalar_from_json({"num": text, "den": "1"})
    with pytest.raises(SchemaError, match="bad rational"):
        scalar_from_json({"num": "1", "den": text})
