import io

import pytest

from csfm.errors import NumericError, ValidationError
from csfm.jsonio import read_json, write_json


def test_format_is_compact_sorted_with_trailing_newline(tmp_path):
    obj = {"b": [1, 2.5, -0.1], "a": {"z": None, "y": "s"}}
    write_json(tmp_path / "x.json", obj)
    expected = '{"a":{"y":"s","z":null},"b":[1,2.5,-0.1]}\n'
    assert (tmp_path / "x.json").read_text() == expected
    assert read_json(tmp_path / "x.json") == obj


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
    assert read_json(path) == [1]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_token_refused_on_read(tmp_path, token):
    path = tmp_path / "x.json"
    path.write_text(f'{{"a": [1.0, {token}]}}\n')
    with pytest.raises(ValidationError, match="x.json"):
        read_json(path)


@pytest.mark.parametrize("raw", [b'{"a": ', b"\xff\xfe\x00garbage", b""])
def test_malformed_bytes_refused(raw):
    with pytest.raises(ValidationError, match="not valid JSON"):
        read_json(io.BytesIO(raw))


def test_reads_file_objects_and_names_them(tmp_path):
    path = tmp_path / "named.json"
    path.write_text("[1, 2]")
    with open(path, "rb") as fh:
        assert read_json(fh) == [1, 2]
    path.write_text("[1, NaN]")
    with open(path) as fh, pytest.raises(ValidationError, match="named.json"):
        read_json(fh)
