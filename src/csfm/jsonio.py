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
from itertools import chain

import numpy as np
import orjson

from .errors import NumericError, ValidationError


_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY


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


def as_column(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a C-contiguous ``float64`` (or ``int64``) array, which
    :func:`write_json` hands to orjson whole, with the bytes of its
    ``.tolist()``: orjson refuses a non-contiguous array and writes a
    ``float32`` one at ``float32`` precision (``0.1``, not the
    ``0.10000000149011612`` of ``.tolist()``)."""
    return np.ascontiguousarray(values, dtype=dtype)


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path``; a value that cannot be written (a non-finite
    number) raises :class:`NumericError` before the file is created."""
    data = orjson.dumps(obj, option=_OPTIONS)
    # orjson writes NaN and +-inf as null, so only a file holding a null can hide one
    if b"null" in data and _non_finite(obj):
        raise NumericError(f"{os.fspath(path)} not written: non-finite number")
    with open(path, "wb") as fh:
        fh.write(data)


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
        # numpy reads a JSON true/false among numbers as 1/0, so only an
        # array holding a 0 or a 1 can hide one
        or (((arr == 0) | (arr == 1)).any() and bool in set(
            map(type, values if width is None else chain.from_iterable(values))))
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
