import io
import json
import struct

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csfm.errors import NumericError, ValidationError
from csfm import jsonio
from csfm.jsonio import as_column, column, parsing, records, scalar, write_json


def test_format_is_compact_sorted_with_trailing_newline(tmp_path):
    obj = {"b": [1, 2.5, -0.1], "a": {"z": None, "y": "s"}}
    write_json(tmp_path / "x.json", obj)
    expected = '{"a":{"y":"s","z":null},"b":[1,2.5,-0.1]}\n'
    assert (tmp_path / "x.json").read_text() == expected
    with parsing(tmp_path / "x.json", "file") as read:
        assert read == obj


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_value_refused_and_no_file_left(tmp_path, value):
    path = tmp_path / "x.json"
    with pytest.raises(NumericError, match="x.json"):
        write_json(path, {"ok": 1.0, "bad": [value]})
    assert not path.exists()


def test_refused_write_keeps_an_existing_file(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, [1])
    with pytest.raises(NumericError):
        write_json(path, [float("nan")])
    with parsing(path, "file") as read:
        assert read == [1]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
@example([5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1e-5, 1e16, 1e308])
@example([7.528138781554006e-05, 1e-7, 1.2345678901234567e-4, -1.7976931348623157e308])
def test_finite_floats_read_back_bit_for_bit(tmp_path, values):
    write_json(tmp_path / "x.json", {"v": values})
    with parsing(tmp_path / "x.json", "file") as read:
        assert np.array(read["v"], dtype=float).view(np.uint64).tolist() == (
            np.array(values, dtype=float).view(np.uint64).tolist()
        )


def test_numpy_scalars_written_as_python_numbers(tmp_path):
    obj = {"f": np.float64(0.1), "i": np.int64(-3), "l": [np.float64(2.5)]}
    write_json(tmp_path / "x.json", obj)
    assert (tmp_path / "x.json").read_text() == '{"f":0.1,"i":-3,"l":[2.5]}\n'


def test_small_floats_written_positionally(tmp_path):
    write_json(tmp_path / "x.json", [1e-5, 7.528138781554006e-05, 1e-7, 1e16])
    assert (tmp_path / "x.json").read_text() == "[0.00001,0.00007528138781554006,1e-7,1e16]\n"


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf")]
)
@pytest.mark.parametrize(
    "nest",
    [
        lambda v: {"a": {"b": [1.0, {"c": v}]}},
        lambda v: [None, ({"t": None}, (0.5, v))],
        lambda v: {"t_ij": None, "s": [[1.0, 2.0], [3.0, v]]},
        lambda v: {"n": None, "a": np.array([[1.0, 2.0], [v, 0.0]])},
    ],
    ids=["dict-list-dict", "beside-null-in-tuple", "beside-null-in-rows", "in-an-array"],
)
def test_nested_non_finite_value_refused_and_no_file_left(tmp_path, nest, value):
    path = tmp_path / "x.json"
    with pytest.raises(NumericError, match="x.json"):
        write_json(path, nest(value))
    assert not path.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_token_refused_on_read(tmp_path, token):
    path = tmp_path / "x.json"
    path.write_text(f'{{"a": [1.0, {token}]}}\n')
    with pytest.raises(ValidationError, match="x.json"), parsing(path, "file"):
        pass


@pytest.mark.parametrize("raw", [b'{"a": ', b"\xff\xfe\x00garbage", b""])
def test_malformed_bytes_refused(raw):
    with pytest.raises(ValidationError, match="not valid JSON"), parsing(io.BytesIO(raw), "file"):
        pass


def test_reads_file_objects_and_names_them(tmp_path):
    path = tmp_path / "named.json"
    path.write_text("[1, 2]")
    with open(path, "rb") as fh, parsing(fh, "file") as read:
        assert read == [1, 2]
    path.write_text("[1, NaN]")
    with open(path) as fh, pytest.raises(ValidationError, match="named.json"), parsing(fh, "file"):
        pass


# values, dtype, width and the message each is refused with
REFUSED_COLUMNS = {
    "bool-among-integers": ([0, True, 2], np.int64, None, "list of integers"),
    "bool-among-numbers": ([0.5, False], float, None, "list of numbers"),
    "bool-in-a-row": ([[0.5, 1.0, 2.0], [1.0, True, 0.0]], float, 3, "rows of 3 numbers"),
    "only-bools": ([True, False], np.int64, None, "list of integers"),
    "integral-float": ([1, 2.0], np.int64, None, "list of integers"),
    "string": (["1"], float, None, "list of numbers"),
    "null": ([None], float, None, "list of numbers"),
    "nested": ([[1], [2], [3]], float, None, "list of numbers"),
    "ragged-rows": ([[1, 2, 3], [1, 2]], float, 3, "rows of 3 numbers"),
    "short-rows": ([[1, 2]], float, 3, "rows of 3 numbers"),
    "not-a-list": (5, np.int64, None, "list of integers"),
    "beyond-int64": ([2**70], np.int64, None, "out of range"),
    "beyond-int64-unsigned": ([2**63], np.int64, None, "out of range"),
    "beyond-float64": ([1.5, 10**400], float, None, "out of range"),
    "infinite": ([[0.0, float("inf"), 0.0]], float, 3, "non-finite .* at entry 0"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_COLUMNS))
def test_column_refuses(case):
    values, dtype, width, match = REFUSED_COLUMNS[case]
    with pytest.raises(ValidationError, match=match):
        column(values, "what", dtype, width)


def test_column_accepts_numbers_of_the_right_shape():
    assert column([], "w", np.int64).shape == (0,)
    assert column([], "w", width=4).shape == (0, 4)
    ints = column([-(2**63), 2**63 - 1], "w", np.int64)
    assert ints.dtype == np.int64 and ints.tolist() == [-(2**63), 2**63 - 1]
    rows = column([[1, 2.5, -3]], "w", width=3)
    assert rows.dtype == float and rows.tolist() == [[1.0, 2.5, -3.0]]
    # an integer beyond int64 is still a number that float64 holds
    assert column([2**70, 0.5], "w").tolist() == [2.0**70, 0.5]
    assert column([2**63], "w").tolist() == [2.0**63]


@pytest.mark.parametrize(
    "text, dtype, width, expected",
    [("[2.5, true, -3.0]", float, None, "a list of numbers"),
     ("[0.0, 1.0, false]", float, None, "a list of numbers"),
     ("[7, false, 9]", np.int64, None, "a list of integers"),
     ("[0, 1, true]", np.int64, None, "a list of integers"),
     ("[[2.5, 3.5, 4.5], [5.5, 6.5, true]]", float, 3, "a list of rows of 3 numbers"),
     ("[[0, 1, 2], [false, 1, 0]]", np.int64, 3, "a list of rows of 3 integers")],
)
def test_json_true_and_false_refused_among_numbers(text, dtype, width, expected):
    # the parsed array holds a 1 or 0 where the JSON holds true or false
    with pytest.raises(ValidationError) as err:
        column(orjson.loads(text), "what", dtype, width)
    assert str(err.value) == f"what must be {expected}"
    assert column(orjson.loads(text.replace("true", "1").replace("false", "0")), "what",
                  dtype, width).shape[0] == (3 if width is None else 2)


@pytest.mark.parametrize("value", [True, "0.5", [0.5], None, 10**400])
def test_scalar_refuses_what_is_not_one_number(value):
    with pytest.raises(ValidationError, match="q_max"):
        scalar(value, "q_max")


def test_scalar_gives_python_numbers():
    assert type(scalar(3, "n", np.int64)) is int
    assert type(scalar(3, "x")) is float
    with pytest.raises(ValidationError, match="an integer"):
        scalar(3.0, "n", np.int64)


@pytest.mark.parametrize("obj", [{}, [1], [{}, []], "records"])
def test_records_must_be_a_list_of_objects(obj):
    with pytest.raises(ValidationError, match="list of edge records"):
        records(obj, "edges", "edge")


@pytest.mark.parametrize(
    "text, match",
    [('{"a": 1}', "x.json: malformed thing: missing key 'b'"),
     ("[1, 2]", "x.json: malformed thing: list indices"),
     ('{"b": true}', "x.json: b must be a number")],
)
def test_parse_failures_name_the_file(tmp_path, text, match):
    path = tmp_path / "x.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=match), parsing(path, "thing") as obj:
        scalar(obj["b"], "b")


def test_errors_other_than_malformed_input_pass_through(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    with pytest.raises(NumericError, match="^solver$"), parsing(path, "thing"):
        raise NumericError("solver")


def float_bits(value) -> bytes:
    return struct.pack("<d", value)


@st.composite
def decimal_texts(draw):
    """A JSON number with up to 60 digits (or 800, rarely) and any exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=draw(st.sampled_from([60, 800]))))
    digits = digits.lstrip("0") or "0"
    point = draw(st.integers(0, len(digits)))
    text = digits if point in (0, len(digits)) else f"{digits[:point]}.{digits[point:]}"
    if "." not in text or draw(st.booleans()):
        text += f"e{draw(st.integers(-400, 330))}"
    return draw(st.sampled_from(["", "-"])) + text


@settings(max_examples=400)
@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda f: orjson.dumps(f).decode()),
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
                  min_value=-2.3e-308, max_value=2.3e-308).map(repr),
        decimal_texts(),
    )
)
@example("0.0")
@example("-0.0")
@example("5e-324")
@example("2.4703282292062328e-324")  # just above half the smallest subnormal: rounds up
@example("2.2250738585072011e-308")  # the largest subnormal's neighbourhood
@example("1.7976931348623157e308")
@example("0.1000000000000000055511151231257827021181583404541015625")
def test_orjson_reads_finite_float_texts_as_the_standard_library(text):
    try:
        fast = orjson.loads(text)
    except orjson.JSONDecodeError:  # beyond float64: the standard library decides
        assert not np.isfinite(json.loads(text))
        return
    assert float_bits(fast) == float_bits(float(json.loads(text)))


def stdlib_refusal(raw) -> str | None:
    """The message parsing gave for ``raw`` when it read JSON with the
    standard library alone; None if that read it."""
    def refuse(token):
        raise ValueError(f"non-finite number {token}")

    try:
        json.loads(raw, parse_constant=refuse)
    except ValueError as exc:
        return f"<stream> is not valid JSON: {exc}"
    return None


@settings(max_examples=200)
@given(
    st.one_of(
        st.sampled_from([b"NaN", b"[1.0, -Infinity]", b'{"a": Infinity}', b"[NaN]", b"",
                         b'{"a": ', b"[1,]", b"[01]", b"[.5]", b"\xff\xfe\x00garbage",
                         b'{"a": 1} x', b"\xef\xbb\xbf[1,", b'["\\x"]', b"[1e5.0]"]),
        st.binary(max_size=12),
        st.text(max_size=12).map(str.encode),
    ).filter(lambda raw: stdlib_refusal(raw) is not None)
)
def test_refused_text_keeps_the_standard_library_message(raw):
    with pytest.raises(ValidationError) as info, parsing(io.BytesIO(raw), "file"):
        pass
    assert str(info.value) == stdlib_refusal(raw)


@pytest.mark.parametrize(
    "raw, expected",
    [('[1e999]', [float("inf")]),  # reaches the loader, which names it non-finite
     ('"\\ud800"', "\ud800"),
     ("[1]".encode("utf-16"), [1]),
     (b"\xef\xbb\xbf[1]", [1])],
)
def test_text_only_the_standard_library_reads_still_parses(raw, expected):
    with parsing(io.BytesIO(raw if isinstance(raw, bytes) else raw.encode()), "file") as obj:
        assert obj == expected


def test_a_good_file_is_parsed_once(tmp_path, monkeypatch):
    path = tmp_path / "x.json"
    write_json(path, {"a": [1, 2.5]})

    def second_parse(*args, **kwargs):
        raise AssertionError("parsed twice")

    monkeypatch.setattr(jsonio.json, "loads", second_parse)
    with parsing(path, "file") as obj:
        assert obj == {"a": [1, 2.5]}


@pytest.mark.parametrize(
    "text",
    ["1180591620717411303424", "-9223372036854775809", "9223372036854775808",
     "18446744073709551616", "1e19", "-9.3e18", "1.8446744073709552e19"],
)
def test_integer_column_refuses_a_number_beyond_int64_whatever_its_notation(text):
    with parsing(io.BytesIO(f'{{"i": [0, {text}], "n": {text}}}'.encode()), "file") as obj:
        with pytest.raises(ValidationError, match="i: number out of range"):
            column(obj["i"], "i", np.int64)
        with pytest.raises(ValidationError, match="n: number out of range"):
            scalar(obj["n"], "n", np.int64)


def written(tmp_path, obj) -> bytes:
    write_json(tmp_path / "x.json", obj)
    return (tmp_path / "x.json").read_bytes()


BOUNDARY_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0),
    1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, 2e16),
    0.1, 1e-7, 1.7976931348623157e308,
]


@pytest.mark.parametrize(
    "values, dtype",
    [
        (np.array([[0.1, 0.2, 0.3], [1e-5, -0.0, 1e16]], dtype=np.float32), np.float64),
        (np.asfortranarray(np.arange(12.0).reshape(4, 3) / 7), np.float64),
        (np.arange(30.0).reshape(10, 3)[::3] / 3, np.float64),
        (np.arange(20, dtype=np.int32)[::4], np.int64),
        (np.array(BOUNDARY_FLOATS), np.float64),
        (np.array(BOUNDARY_FLOATS).reshape(-1, 3)[:, ::-1], np.float64),
        (np.array([-2**63, 2**63 - 1, 0]), np.int64),
        (np.zeros(0), np.float64),
        (np.zeros((0, 3)), np.float64),
        (np.zeros(0, dtype=np.int64), np.int64),
    ],
    ids=["float32", "fortran-order", "strided", "strided-int32", "boundaries",
         "reversed-rows", "int64-limits", "empty", "empty-rows", "empty-int"],
)
def test_a_column_writes_the_bytes_of_its_list(tmp_path, values, dtype):
    assert written(tmp_path, {"c": as_column(values, dtype)}) == written(tmp_path, {"c": values.tolist()})


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
@example(BOUNDARY_FLOATS)
def test_any_finite_column_writes_the_bytes_of_its_list(tmp_path, values):
    column = np.array(values, dtype=float)
    assert written(tmp_path, [as_column(column)]) == written(tmp_path, [column.tolist()])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape", [(3000,), (1000, 3)])
def test_non_finite_in_a_column_refused_and_an_existing_file_kept(tmp_path, value, shape):
    path = tmp_path / "x.json"
    values = np.linspace(-1.0, 1.0, num=int(np.prod(shape))).reshape(shape)
    values.flat[1234] = value
    obj = {"points": as_column(values), "tracks": as_column(np.arange(shape[0]), np.int64)}
    with pytest.raises(NumericError, match="x.json"):
        write_json(path, obj)
    assert not path.exists()
    write_json(path, [1])
    with pytest.raises(NumericError, match="x.json"):
        write_json(path, obj)
    assert path.read_bytes() == b"[1]\n"
