"""The CLI's stdout, pinned by bytes: one deterministic corpus of commands,
run in-process through ``cli.main``, against a table of exit codes and
sha256 digests of stdout (``stdout_corpus.json``, next to this file).

The corpus covers ``wigner`` (registry states, every computational basis
state and seeded inline states at n = 1..4, with and without ``--lines``,
in the three formats at precision 3 and 12), ``tomo`` (exact mode, 64 and
4096 shots, and ``--scaling``), ``mub`` with and without ``--verify``,
``field``, ``verify 4 --format json`` and malformed inputs with their exit
codes.

Rounding noise has its own group, ``full_precision``: the exact-mode
``counts`` of ``tomo --shots 0 --format json``, printed unrounded, and the
``verify`` output whose deviation figures (``%.3e``) measure float
rounding.  A change to how a float sum is ordered may move these and
nothing else; the ``tomo`` and ``verify`` groups pin the same outputs with
that noise taken out.

To print the table for the current code, run
``PYTHONPATH=src python tests/test_stdout_corpus.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import shlex
import sys
from pathlib import Path

from qphase.cli import main
from qphase.serialize import dumps_canonical
from qphase.states import registry_names, registry_vector

PINS = Path(__file__).with_name("stdout_corpus.json")
FORMATS = ("ascii", "json", "csv")
_DEVIATION = re.compile(r"\d\.\d{3}e[+-]\d+")


def _basis_state(n: int, k: int) -> tuple[str, str]:
    return f"<e{k}>", json.dumps([[1, 0] if j == k else [0, 0] for j in range(1 << n)], separators=(",", ":"))


def _seeded_states(n: int) -> list[tuple[str, str]]:
    """One pure and one mixed inline state, from Python's own seeded stream,
    so the input text does not depend on the numpy version."""
    rng = random.Random(1000 + n)
    dim = 1 << n
    vec = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(dim)]
    norm = sum(re_ * re_ + im * im for re_, im in vec) ** 0.5
    vec = [[re_ / norm, im / norm] for re_, im in vec]
    # rho = (|v><v| + I/N) / 2, written out entry by entry as [re, im].
    rho = [
        [
            [0.5 * (vec[i][0] * vec[j][0] + vec[i][1] * vec[j][1]) + (0.5 / dim if i == j else 0.0),
             0.5 * (vec[i][1] * vec[j][0] - vec[i][0] * vec[j][1])]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return [("<pure>", json.dumps(vec, separators=(",", ":"))), ("<mixed>", json.dumps(rho, separators=(",", ":")))]


def _named(n: int) -> list[tuple[str, str]]:
    return [(s, s) for s in registry_names() if registry_vector(s)[0] == n]


def _states(n: int) -> list[tuple[str, str]]:
    """(label, --state text): the registry, every basis state, two seeded."""
    return _named(n) + [_basis_state(n, k) for k in range(1 << n)] + _seeded_states(n)


def _tomo_states(n: int) -> list[tuple[str, str]]:
    return _named(n) + [_basis_state(n, (1 << n) - 1)] + _seeded_states(n)


def corpus() -> list[tuple[str, str, list[str]]]:
    """(group, key, argv) for every pinned command, in a fixed order; the key
    is the command line with each inline state replaced by its label."""
    cmds: list[tuple[str, list[str]]] = []
    for n in range(1, 5):
        for fmt in FORMATS:
            cmds.append(("field", ["--format", fmt, "field", str(n)]))
            cmds.append(("mub", ["--format", fmt, "mub", str(n), "--verify"]))
            for precision in ("3", "12"):
                cmds.append(("mub", ["--format", fmt, "--precision", precision, "mub", str(n)]))
        for label, state in _states(n):
            for lines in ([], ["--lines"]):
                for fmt in FORMATS:
                    for precision in ("3", "12"):
                        argv = ["--format", fmt, "--precision", precision, "wigner", str(n), "--state", state]
                        cmds.append(("wigner", argv + lines))
        for label, state in _tomo_states(n):
            tomo = ["tomo", str(n), "--state", state, "--seed", "7"]
            for fmt in FORMATS:
                cmds.append(("tomo", ["--format", fmt] + tomo + ["--shots", "0"]))
                for shots in ("64", "4096"):
                    cmds.append(("tomo", ["--format", fmt, "--precision", "12"] + tomo + ["--shots", shots]))
            for fmt in ("json", "csv"):
                scaling = ["--scaling", "16,64,256", "--trials", "3"]
                cmds.append(("tomo", ["--format", fmt, "--precision", "12"] + tomo + scaling))
    cmds.append(("verify", ["verify", "4", "--format", "json"]))
    for argv in (
        "field 0", "field 9", "mub 5", "verify 0", "verify 5", "striations 0", "nonsense",
        "--precision 13 field 1", "--format xml field 1",
        "wigner 1 --state bogus", "wigner 1 --state [NaN,0]", "wigner 2 --state [1,0,0]",
        "wigner 1 --state [[1,0],[0]]", "wigner 2 --state up", "wigner 1 --state [[[2,0],[0,0]],[[0,0],[-1,0]]]",
        "tomo 1 --state up", "tomo 1 --state up --shots -1", "tomo 1 --state up --shots 134217729",
        "tomo 1 --state up --scaling 64,16", "tomo 1 --state up --scaling 16 --trials 0",
        "tomo 1 --state up --scaling a,b", "tomo 5 --state up --shots 1",
    ):
        cmds.append(("malformed", argv.split()))
    labels = {state: label for n in range(1, 5) for label, state in _states(n)}
    return [(group, shlex.join(labels.get(a, a) for a in argv), argv) for group, argv in cmds]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _pin(code: int, text: str) -> str:
    return f"{code} {hashlib.sha256(text.encode()).hexdigest()}"


def outputs() -> dict[str, dict[str, str]]:
    """group -> command -> "exit-code sha256" for the current code."""
    table: dict[str, dict[str, str]] = {}
    for group, key, argv in corpus():
        code, text = _run(argv)
        if group == "tomo" and "json" in argv and argv[-1] == "0":
            payload = json.loads(text)
            counts = payload.pop("counts")
            table.setdefault("full_precision", {})[key] = _pin(code, dumps_canonical(counts))
            text = dumps_canonical(payload)
        elif group == "verify":
            table.setdefault("full_precision", {})[key] = _pin(code, text)
            text = _DEVIATION.sub("#", text)
        table.setdefault(group, {})[key] = _pin(code, text)
    return table


def test_stdout_matches_the_pins():
    pinned = json.loads(PINS.read_text())
    actual = outputs()
    report = []
    for group in sorted(pinned.keys() | actual.keys()):
        want, got = pinned.get(group, {}), actual.get(group, {})
        for key in sorted(want.keys() | got.keys()):
            if want.get(key) != got.get(key):
                report.append(f"[{group}] {key}: pinned {want.get(key)}, now {got.get(key)}")
    assert not report, f"{len(report)} commands changed:\n" + "\n".join(report)


if __name__ == "__main__":
    sys.stdout.write(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
