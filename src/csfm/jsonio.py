"""The one artifact format and the one input contract.

Artifacts are compact JSON (no whitespace between tokens) with sorted keys
and a trailing newline, encoded by ``orjson``.  Its floats are the shortest
text that parses back to the same double, the digits ``repr`` gives, in
two other notations: a magnitude in [1e-5, 1e-4) is written positionally
(``0.00001`` for ``1e-05``), and an exponent has no ``+`` or leading zero
(``1e16``, ``1e-7``).  Every float reads back bit for bit.  Non-finite
numbers are refused both ways, so a ``NaN`` can neither be written into an
artifact nor read back out of one.  Numeric columns are written from numpy
arrays, cast by :func:`as_column`, without a ``.tolist()``.

Two integer shapes are formatted here rather than by orjson, each in one
``%`` pass over its int64 values: a list of records
(:func:`int_records`, the ``{"i","j","w"}`` edges of a match graph) and a
ragged list of integer lists (:func:`int_lists`, the per-track communities
of a merged model).  ``%d`` writes an integer with the digits orjson gives
it, so the bytes are those of the dicts and lists they replace; no float
is ever formatted with ``%``.  :func:`write_json` places such a value under
its key, between the orjson-encoded values of its neighbours in sorted-key
order.  orjson writes ``NaN`` and ``+-inf`` as ``null``, so the values it
encodes are searched for a non-finite float only when their text holds a
``null``; the text is scanned for the ``u`` each ``null`` holds, a single
byte that ``bytes.find`` locates with ``memchr``.  A large array (a point
or track column) is checked with ``np.isfinite`` instead and written
``ROW_BLOCK`` rows per orjson call, each block's text without its outer
brackets, so its whole text is never held.  Every payload is encoded or
checked before any file of the call is opened, so a refused value leaves
no file behind.

Parsing is ``orjson`` too.  A text it refuses is parsed again by the
standard library's ``json``, which decides: it reads ``1e999`` as ``inf``
(refused by :func:`column`), UTF-16 and lone surrogate escapes, and refuses
the rest with the message it always gave.  orjson reads an integer beyond
64 bits as a float, so :func:`column` refuses any number of magnitude
``2**63`` or more in an integer column as out of range, whatever its
notation.

Every loader reads its file inside :func:`parsing` and its numbers with
:func:`column` or :func:`scalar`, so malformed input of any kind becomes a
:class:`ValidationError` that names the file.  Loaders build their domain
objects after the ``with`` block, so an error in that code is not reported as
bad input.  Only ``WorldSpec`` and ``Sim3.from_json``, whose fields are the
keys of a JSON object, are built inside it.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

import numpy as np
import orjson

from .errors import NumericError, ValidationError


_VALUE_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
_OPTIONS = _VALUE_OPTIONS | orjson.OPT_APPEND_NEWLINE
ROW_BLOCK = 2048  # rows of a large array encoded per orjson call
_STREAMED_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


def _non_finite(obj) -> bool:
    """Whether a non-finite float sits anywhere in ``obj``."""
    if isinstance(obj, float):  # np.float64 included
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(map(_non_finite, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(_non_finite, obj))
    if isinstance(obj, (np.ndarray, np.floating)):
        return not np.all(np.isfinite(obj))
    return False


def _holds_null(data: bytes) -> bool:
    """Whether ``data`` holds the text ``null``.  Each one holds a ``u``, a
    byte that ``bytes.find`` locates with ``memchr``, and artifact text holds
    few others (keys such as ``"outlier_fraction"``)."""
    at = data.find(b"u", 1)
    while at != -1:
        if data.startswith(b"null", at - 1):
            return True
        at = data.find(b"u", at + 1)
    return False


def as_column(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a C-contiguous ``float64`` (or ``int64``) array, which
    :func:`write_json` hands to orjson whole or in ``ROW_BLOCK``-row blocks,
    with the same bytes, those of its ``.tolist()``: orjson refuses a non-contiguous array and writes a
    ``float32`` one at ``float32`` precision (``0.1``, not the
    ``0.10000000149011612`` of ``.tolist()``)."""
    return np.ascontiguousarray(values, dtype=dtype)


class JsonText:
    """JSON text formatted outside orjson; :func:`write_json` writes it
    verbatim where it is a value of the top-level object."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data


def _formatted(template: str, values: np.ndarray) -> JsonText:
    # %d writes each int64 with the digits orjson gives it
    return JsonText((template % tuple(values.tolist())).encode())


def int_records(**columns) -> JsonText:
    """The list of ``{key: value}`` records, one per row of the equal-length
    integer ``columns`` (each keyword a key that needs no escaping), with
    the bytes orjson gives that list of dicts: keys sorted in each record."""
    keys = sorted(columns)
    rows = np.column_stack([as_column(columns[k], np.int64) for k in keys])
    record = "{" + ",".join(f'"{k}":%d' for k in keys) + "}"
    return _formatted("[" + ",".join([record] * rows.shape[0]) + "]", rows.ravel())


def int_lists(values, bounds) -> JsonText:
    """The list of integer lists ``values[bounds[k]:bounds[k + 1]]``, with
    the bytes orjson gives that list of lists."""
    sizes = np.diff(as_column(bounds, np.int64)).tolist()
    lists = {n: "[" + ",".join(["%d"] * n) + "]" for n in set(sizes)}
    return _formatted("[" + ",".join(map(lists.__getitem__, sizes)) + "]",
                      as_column(values, np.int64))


def _dumps(path, obj, option) -> bytes:
    data = orjson.dumps(obj, option=option)
    # orjson writes NaN and +-inf as null, so only text holding a null can hide one
    if _holds_null(data) and _non_finite(obj):
        raise NumericError(f"{os.fspath(path)} not written: non-finite number")
    return data


def _streamed(value) -> bool:
    """Whether ``value`` is an array :func:`_write_rows` writes in blocks:
    one that orjson takes whole (a C-contiguous ``float64`` or ``int64``
    :func:`as_column`) with more than ``ROW_BLOCK`` rows."""
    return (isinstance(value, np.ndarray) and value.dtype in _STREAMED_DTYPES
            and value.ndim in (1, 2) and value.flags.c_contiguous
            and value.shape[0] > ROW_BLOCK)


def _encode(path, obj) -> list:
    """The bytes of ``obj`` as a list of parts: :class:`JsonText` values of a
    top-level object spliced in under their keys, and its large arrays
    checked and left for :func:`_write_rows`."""
    if not (isinstance(obj, dict)
            and any(isinstance(v, JsonText) or _streamed(v) for v in obj.values())):
        return [_dumps(path, obj, _OPTIONS)]
    parts = []
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, JsonText):
            text = value.data
        elif _streamed(value):
            if not np.all(np.isfinite(value)):
                raise NumericError(f"{os.fspath(path)} not written: non-finite number")
            text = value
        else:
            text = _dumps(path, value, _VALUE_OPTIONS)
        parts += [b",", orjson.dumps(key), b":", text]
    parts[0] = b"{"
    return parts + [b"}\n"]


def _write_rows(fh, array: np.ndarray) -> None:
    """Write ``array`` as orjson writes it whole, ``ROW_BLOCK`` rows per
    call: each block's text without its enclosing brackets."""
    fh.write(b"[")
    for start in range(0, array.shape[0], ROW_BLOCK):
        if start:
            fh.write(b",")
        text = orjson.dumps(array[start : start + ROW_BLOCK], option=_VALUE_OPTIONS)
        fh.write(memoryview(text)[1:-1])
    fh.write(b"]")


def write_json_files(*files) -> None:
    """Write each ``(path, obj)`` of ``files``.  Every payload is checked
    before any file is opened, so a value that cannot be written (a
    non-finite number) raises :class:`NumericError` and leaves none of the
    files created or changed."""
    encoded = [(path, _encode(path, obj)) for path, obj in files]
    for path, parts in encoded:
        with open(path, "wb") as fh:
            for part in parts:
                if isinstance(part, np.ndarray):
                    _write_rows(fh, part)
                else:
                    fh.write(part)


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path``; a value that cannot be written (a non-finite
    number) raises :class:`NumericError` before the file is created."""
    write_json_files((path, obj))


def _refuse_constant(token):
    raise ValueError(f"non-finite number {token}")


@contextmanager
def parsing(source, what: str):
    """Parse a JSON file given as a path or a binary/text file object and
    hand its value to the ``with`` block that reads it.

    Malformed text, bad encoding and ``NaN``/``Infinity`` tokens raise
    :class:`ValidationError` naming the file.  So does anything the block
    refuses: a :class:`ValidationError`, or the ``KeyError``, ``TypeError``,
    ``ValueError`` or ``OverflowError`` of a missing key or a value of the
    wrong kind, reported as a malformed ``what``.
    """
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        raw = source.read()
    else:
        name = os.fspath(source)
        with open(source, "rb") as fh:
            raw = fh.read()
    try:
        obj = orjson.loads(raw)
    except orjson.JSONDecodeError:
        # orjson also refuses text the standard library reads (UTF-16,
        # a lone surrogate, 1e999, deep nesting); it decides, with its message
        try:
            obj = json.loads(raw, parse_constant=_refuse_constant)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            raise ValidationError(f"{name} is not valid JSON: {exc}") from exc
    try:
        yield obj
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"{name}: malformed {what}: {detail}") from exc


def _holds_bool(values, arr: np.ndarray, width) -> bool:
    """Whether a JSON ``true``/``false`` sits among the numbers ``values``
    that ``arr`` holds.  numpy reads them as 1/0, so only the entries equal
    to 0 or 1 are looked at."""
    at = np.flatnonzero((arr == 0) | (arr == 1)).tolist()
    if width is None:
        return any(type(values[k]) is bool for k in at)
    return any(type(values[k // width][k % width]) is bool for k in at)


def _numbers(values, what: str, dtype, width, expected: str) -> np.ndarray:
    """``values`` as a ``dtype`` array of shape ``(n,)`` or ``(n, width)``."""
    try:
        arr = np.array(values)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{what} must be {expected}") from exc
    shape = (0,) if width is None else (0, width)
    if arr.shape == (0,):
        return np.zeros(shape, dtype=dtype)
    # orjson reads an integer beyond 64 bits as a float: any number that
    # large is out of an integer column's range, whatever its notation
    if dtype is not float and arr.dtype.kind == "f" and np.any(np.abs(arr) >= 2.0**63):
        raise ValidationError(f"{what}: number out of range")
    # integers beyond int64 come back as uint64 or as Python ints in an object array
    if arr.dtype.kind == "u" or (
        arr.dtype.kind == "O" and all(type(v) in (int, float) for v in arr.flat)
    ):
        if dtype is not float:
            raise ValidationError(f"{what}: number out of range")
        try:
            arr = arr.astype(float)
        except OverflowError as exc:  # beyond float64 too
            raise ValidationError(f"{what}: number out of range") from exc
    if (
        arr.ndim != len(shape)
        or arr.shape[1:] != shape[1:]
        or arr.dtype.kind not in ("if" if dtype is float else "i")
        or _holds_bool(values, arr, width)
    ):
        raise ValidationError(f"{what} must be {expected}")
    arr = arr.astype(dtype)
    if not np.all(np.isfinite(arr)):
        row = np.flatnonzero(~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1))[0]
        raise ValidationError(f"non-finite {what} at entry {row}")
    return arr


def column(values, what: str, dtype=float, width: int | None = None) -> np.ndarray:
    """A JSON list as a ``dtype`` array of shape exactly ``(n,)``, or
    ``(n, width)`` for a list of rows.  An integer column takes only JSON
    integers in int64 range and a float column only finite JSON numbers;
    anything else (``true``, ``1.0`` for an integer, a string, ``null``, a
    list of the wrong depth) raises :class:`ValidationError`."""
    entries = "numbers" if dtype is float else "integers"
    if width is not None:
        entries = f"rows of {width} {entries}"
    return _numbers(values, what, dtype, width, f"a list of {entries}")


def scalar(value, what: str, dtype=float):
    """One JSON number (integer for an integer ``dtype``) as a Python value,
    under the rules of :func:`column`."""
    expected = "a number" if dtype is float else "an integer"
    return _numbers([value], what, dtype, None, expected)[0].item()


def records(obj, what: str, item: str) -> list:
    """``obj`` as a list of JSON objects, one ``item`` record each."""
    if not isinstance(obj, list) or not all(isinstance(r, dict) for r in obj):
        raise ValidationError(f"{what} must be a list of {item} records")
    return obj
