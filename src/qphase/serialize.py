"""Canonical JSON emission shared by the CLI and the library exporters.

Canonical form: sorted keys, two-space indent, trailing newline, floats
rounded to the selected precision at assembly time.  Parsing a canonical
document and re-emitting it reproduces the bytes exactly.
"""

from __future__ import annotations

import json

import numpy as np


def round_float(x: float, precision: int | None) -> float:
    if precision is None:
        return float(x)
    r = round(float(x), precision)
    return 0.0 if r == 0 else r  # normalize -0.0


def complex_pair(z: complex, precision: int | None = None) -> list[float]:
    """[re, im] encoding used for all complex payloads."""
    return [round_float(z.real, precision), round_float(z.imag, precision)]


def matrix_to_json(m: np.ndarray, precision: int | None = None) -> list[list[list[float]]]:
    """Row-major array of [re, im] pairs."""
    return [[complex_pair(complex(v), precision) for v in row] for row in np.asarray(m)]


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
