"""Deterministic file formats: round-trip CSV, canonical JSON, field snapshots.

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


def write_csv(path, header, rows):
    """Write rows of mixed ints/floats/strings with round-trip formatting."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for c in row:
                if isinstance(c, (int, np.integer)):
                    cells.append(str(int(c)))
                elif isinstance(c, str):
                    cells.append(c)
                else:
                    cells.append(fmt(c))
            fh.write(",".join(cells) + "\n")
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


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def save_field(points, eps, values, base_path, seed, stream_id):
    """Field snapshot: CSV of re,im,value plus a JSON sidecar; returns both paths."""
    sidecar = {
        "seed": int(seed),
        "stream_id": int(stream_id),
        "eps": float(eps[0]) if np.ptp(eps) == 0.0 else [float(e) for e in eps],
        "n_points": int(len(points)),
    }
    csv_path = base_path + ".csv"
    write_csv(
        csv_path,
        ["re", "im", "value"],
        ((p.real, p.imag, v) for p, v in zip(points, values)),
    )
    json_path = base_path + ".json"
    write_json(json_path, sidecar)
    return [csv_path, json_path]
