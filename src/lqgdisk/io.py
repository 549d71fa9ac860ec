"""Deterministic file formats: round-trip CSV and canonical JSON, with their checksums.

Every float is written with 17 significant digits so that identical runs
produce byte-identical files; JSON is emitted with sorted keys and fixed
separators for the same reason.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def fmt(x):
    """Round-trip decimal formatting of one float."""
    return "%.17g" % float(x)


def _cell_format(kind):
    """The format of a cell of the given type: ints as ints, strings as they are, floats by fmt."""
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%s" if issubclass(kind, str) else "%.17g"


def write_csv(path, header, rows):
    """Write rows of mixed ints/floats/strings with round-trip formatting."""
    line_formats = {}
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            line = line_formats.get(kinds)
            if line is None:
                line = line_formats[kinds] = ",".join(map(_cell_format, kinds)) + "\n"
            fh.write(line % row)
    return path


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"), default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()

