"""The one artifact format: JSON with one-space indent, sorted keys and a
trailing newline.  Non-finite numbers are refused both ways, so a ``NaN`` can
neither be written into an artifact nor read back out of one.
"""
from __future__ import annotations

import json
import os

from .errors import NumericError, ValidationError


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path``; a value that cannot be written (a non-finite
    number) raises :class:`NumericError` before the file is created."""
    try:
        text = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{os.fspath(path)} not written: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _refuse_constant(token):
    raise ValueError(f"non-finite number {token}")


def read_json(source):
    """Parse a JSON file given as a path or a binary/text file object.

    Malformed text, bad encoding and ``NaN``/``Infinity`` tokens raise
    :class:`ValidationError` naming the file.
    """
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        raw = source.read()
    else:
        name = os.fspath(source)
        with open(source, "rb") as fh:
            raw = fh.read()
    try:
        return json.loads(raw, parse_constant=_refuse_constant)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise ValidationError(f"{name} is not valid JSON: {exc}") from exc
