"""End-to-end CLI checks via subprocess: formats, exit codes, determinism;
and an in-process fuzz of the argument paths."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qphase.cli import MAX_SHOTS, main
from qphase.cli import MAX_TRIALS
from qphase.serialize import dumps_canonical, round_float
from qphase.states import parse_state_spec, random_density_matrix, random_pure_state
from qphase.system import build_system
from qphase.wigner import line_sum, wigner_from_state


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qphase.cli", *args],
        capture_output=True,
        text=True,
    )


class TestField:
    def test_gf4_table_shows_relations(self):
        out = run_cli("field", "2")
        assert out.returncode == 0
        assert "x^2+x+1" in out.stdout
        rows = out.stdout.splitlines()
        add_row_w = next(r for r in rows if r.strip().startswith("w |"))
        assert add_row_w.split("|")[1].split() == ["w", "w2", "0", "1"]

    def test_gf2_is_xor(self):
        out = run_cli("field", "1", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["add"] == [["0", "1"], ["1", "0"]]

    def test_gf8_tables_closed(self):
        out = run_cli("field", "3", "--format", "json")
        payload = json.loads(out.stdout)
        labels = set(payload["order"])
        for table in (payload["add"], payload["mul"]):
            assert all(cell in labels for row in table for cell in row)

    def test_bad_n_exits_2(self):
        out = run_cli("field", "0")
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_field_tables_reach_degree_8(self):
        out = run_cli("field", "8", "--format", "csv")
        assert out.returncode == 0
        assert len(out.stdout.strip().splitlines()) == 1 + 2 * 256 * 256

    def test_phase_space_commands_capped_at_4(self):
        out = run_cli("mub", "5")
        assert out.returncode == 2
        assert "library itself supports higher" in out.stderr


class TestStriations:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 5), (3, 9)])
    def test_counts(self, n, count):
        out = run_cli("striations", str(n), "--format", "json")
        payload = json.loads(out.stdout)
        assert len(payload["striations"]) == count
        for s in payload["striations"]:
            assert len(s["lines"]) == 2**n

    def test_ascii_glyphs(self):
        out = run_cli("striations", "1")
        assert out.returncode == 0
        assert "•" in out.stdout and "∘" in out.stdout


class TestMub:
    def test_verify_n2_reports_half(self):
        out = run_cli("mub", "2", "--verify")
        assert out.returncode == 0
        assert "0.500" in out.stdout
        assert "all conjugate" in out.stdout

    def test_n1_bases_json(self):
        out = run_cli("mub", "1", "--format", "json", "--precision", "6")
        payload = json.loads(out.stdout)
        assert len(payload["bases"]) == 3

    def test_verify_csv(self):
        out = run_cli("mub", "2", "--verify", "--format", "csv")
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "basis_i,basis_j,min_overlap,max_overlap,ok"
        assert len(lines) == 1 + 10


class TestWigner:
    def test_up_grid(self):
        out = run_cli("wigner", "1", "--state", "up")
        assert out.returncode == 0
        assert "0.500" in out.stdout

    def test_tilted_shows_paper_values(self):
        out = run_cli("wigner", "1", "--state", "tilted-111")
        assert "-0.183" in out.stdout
        assert "0.394" in out.stdout

    def test_singlet_json(self):
        out = run_cli("wigner", "2", "--state", "singlet", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["order"] == ["0", "1", "w", "w2"]
        assert payload["values"][1][1] == 0.25
        assert payload["values"][0][0] == 0.0

    def test_line_sums_flag(self):
        out = run_cli("wigner", "2", "--state", "upup", "--lines", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["line_sums"]["0"] == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_line_sums_equal_line_sum_over_each_line(self, n):
        system = build_system(n)
        rng = np.random.default_rng(n)
        for k in range(10):
            if k % 2:
                rows = random_density_matrix(rng, system.dim)
                spec = json.dumps([[[z.real, z.imag] for z in row] for row in rows.tolist()])
            else:
                spec = json.dumps([[z.real, z.imag] for z in random_pure_state(rng, system.dim).tolist()])
            argv = ["wigner", str(n), "--state", spec, "--lines", "--format", "json", "--precision", "12"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            grid = wigner_from_state(parse_state_spec(spec, n)[0], system.net)
            expected = {
                str(s.direction): [round_float(line_sum(grid, ln), 12) for ln in s.lines]
                for s in system.striations
            }
            assert json.loads(buf.getvalue())["line_sums"] == expected

    def test_line_sums_build_no_line(self):
        code = (
            "import contextlib, io\n"
            "from qphase.cli import main\n"
            "from qphase.system import build_system\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['wigner', '4', '--state', '[[1, 0]' + ', [0, 0]' * 15 + ']', '--lines']) == 0\n"
            "print([s.direction for s in build_system(4).striations if 'lines' in vars(s)])\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_inline_vector_state(self):
        out = run_cli("wigner", "1", "--state", "[[1,0],[0,0]]")
        assert out.returncode == 0

    def test_inline_vector_with_trace_just_off_one_is_renormalized(self):
        # the norm 1 + 9e-10 is within 1e-9 of 1, its trace 1 + 1.8e-9 is not
        out = run_cli("wigner", "1", "--state", "[[1.0000000009,0],[0,0]]")
        assert out.returncode == 0
        assert out.stdout == run_cli("wigner", "1", "--state", "up").stdout
        assert "renormalized" in out.stderr

    def test_invalid_state_exits_2_with_usage(self):
        out = run_cli("wigner", "1", "--state", "sideways")
        assert out.returncode == 2
        assert "usage:" in out.stderr

    def test_nan_state_exits_2(self):
        out = run_cli("wigner", "1", "--state", "[[NaN,0],[0,0]]")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "finite" in out.stderr

    def test_infinite_matrix_entry_exits_2(self):
        spec = (
            "[[[1,0],[0,0],[0,0],[0,0]],[[0,0],[Infinity,0],[0,0],[0,0]],"
            "[[0,0],[0,0],[0,0],[0,0]],[[0,0],[0,0],[0,0],[0,0]]]"
        )
        out = run_cli("wigner", "2", "--state", spec)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "finite" in out.stderr

    def test_deeply_nested_state_exits_2(self):
        # json.loads raises RecursionError, not JSONDecodeError, at this depth
        spec = "[" * 5000 + "]" * 5000
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["wigner", "1", "--state", spec])
        assert code == 2
        assert out.getvalue() == ""
        assert [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")] == [
            "error: inline state is nested too deeply"
        ]
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("[[[1,0],[0,0]],[[0,0]]]", "square"),  # ragged rows
            ("[[true,false],[0,0]]", "pair"),  # JSON booleans
            ("[[1e308,0],[1e308,0]]", "not finite"),  # the norm overflows
        ],
    )
    def test_malformed_inline_state_exits_2(self, spec, message):
        out = run_cli("wigner", "1", "--state", spec)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "Traceback" not in out.stderr and "Warning" not in out.stderr
        assert message in out.stderr

    def test_csv_grid(self):
        out = run_cli("wigner", "1", "--state", "up", "--format", "csv")
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "q\\p,0,1"
        assert lines[1] == "0,0.500,0.500"
        assert lines[2] == "1,0.000,0.000"


class TestTomo:
    def test_exact_mode_perfect_fidelity(self):
        out = run_cli("tomo", "2", "--state", "singlet", "--shots", "0")
        assert out.returncode == 0
        assert "fidelity         1.000" in out.stdout

    def test_seeded_run_reproducible_and_accurate(self):
        a = run_cli("tomo", "1", "--state", "up", "--shots", "10000", "--seed", "1")
        b = run_cli("tomo", "1", "--state", "up", "--shots", "10000", "--seed", "1")
        assert a.stdout == b.stdout
        metrics = json.loads(
            run_cli(
                "tomo", "1", "--state", "up", "--shots", "10000", "--seed", "1",
                "--format", "json", "--precision", "6",
            ).stdout
        )
        assert metrics["trace_distance"] < 0.05

    def test_negative_shots_exits_2(self):
        out = run_cli("tomo", "1", "--state", "up", "--shots", "-5")
        assert out.returncode == 2

    def test_missing_shots_exits_2(self):
        out = run_cli("tomo", "1", "--state", "up")
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "flags", [["--shots", str(MAX_SHOTS + 1)], ["--scaling", f"64,{MAX_SHOTS + 1}", "--trials", "1"]]
    )
    def test_shots_above_the_cap_exit_2_before_building(self, flags, monkeypatch, capsys):
        # Past the cap one basis's draws would take over 1 GiB; the cap is
        # checked before the system is built.
        def unreachable(n):
            raise AssertionError("built a system")

        monkeypatch.setattr("qphase.cli.build_system", unreachable)
        assert main(["tomo", "1", "--state", "up", *flags]) == 2
        assert f"at most {MAX_SHOTS}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shots", "64", "--seed", "-1"],
            ["--shots", "64", "--seed", str(2**64)],
            ["--scaling", "64", "--trials", "2", "--seed", str(2**64 - 1)],
            ["--scaling", "64", "--trials", "1", "--seed", "-1"],
        ],
    )
    def test_seed_outside_the_key_range_exits_2_before_building(self, flags, monkeypatch, capsys):
        # Stream keys are 64-bit words: -1 would print the counts of 2^64 - 1
        # and 2^64 + 7 those of 7, so such seeds are refused before the build.
        def unreachable(n):
            raise AssertionError("built a system")

        monkeypatch.setattr("qphase.cli.build_system", unreachable)
        assert main(["tomo", "1", "--state", "up", *flags]) == 2
        assert f"{2**64 - 1} (2^64 - 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shots", "64", "--seed", "0"],
            ["--shots", "64", "--seed", str(2**64 - 1)],
            ["--scaling", "64", "--trials", "2", "--seed", str(2**64 - 2)],
        ],
    )
    def test_seeds_at_the_ends_of_the_key_range_still_run(self, flags):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["tomo", "1", "--state", "up", *flags]) == 0

    def test_shots_at_the_default_scale_still_run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["tomo", "1", "--state", "up", "--shots", "4096"]) == 0

    @pytest.mark.parametrize("trials", ["1000000000", str(MAX_TRIALS + 1), "0"])
    def test_trials_outside_the_cap_exit_2_before_building(self, trials, monkeypatch, capsys):
        # The seed list is built before any trial runs, so 10^9 trials would
        # first allocate 10^9 Python ints; the cap is checked before the build.
        def unreachable(n):
            raise AssertionError("built a system")

        monkeypatch.setattr("qphase.cli.build_system", unreachable)
        start = time.perf_counter()
        assert main(["tomo", "1", "--state", "up", "--scaling", "64", "--trials", trials]) == 2
        assert time.perf_counter() - start < 0.5
        assert f"between 1 and {MAX_TRIALS}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["wigner", "4"], ["tomo", "4", "--shots", "1"]])
    def test_a_bad_state_exits_2_before_building(self, command, monkeypatch, capsys):
        # the state is parsed before the build, so a typo costs no system
        def unreachable(n):
            raise AssertionError("built a system")

        monkeypatch.setattr("qphase.cli.build_system", unreachable)
        assert main([*command, "--state", "nonsense"]) == 2
        assert "error: unknown state name 'nonsense'" in capsys.readouterr().err

    def test_trials_within_the_cap_still_run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["tomo", "1", "--state", "up", "--scaling", "64", "--trials", "3"]) == 0

    def test_scaling_csv(self):
        out = run_cli(
            "tomo", "1", "--state", "tilted-111",
            "--scaling", "64,256", "--trials", "5", "--format", "csv",
        )
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "shots,mean_max_wigner_error,mean_trace_distance"
        assert len(lines) == 3


class TestVerify:
    def test_passes_for_n2(self):
        out = run_cli("verify", "2")
        assert out.returncode == 0
        assert "FAIL" not in out.stdout

    def test_zero_exits_2(self):
        out = run_cli("verify", "0")
        assert out.returncode == 2


class TestJsonCanonicalForm:
    @pytest.mark.parametrize(
        "args",
        [
            ("field", "2"),
            ("striations", "2"),
            ("mub", "2", "--verify"),
            ("wigner", "2", "--state", "singlet", "--lines"),
            ("tomo", "1", "--state", "up", "--shots", "100", "--seed", "3"),
        ],
    )
    def test_parse_and_reemit_is_byte_identical(self, args):
        out = run_cli(*args, "--format", "json")
        assert out.returncode == 0
        assert dumps_canonical(json.loads(out.stdout)) == out.stdout

    def test_two_runs_identical(self):
        a = run_cli("mub", "2", "--format", "json")
        b = run_cli("mub", "2", "--format", "json")
        assert a.stdout == b.stdout


def _stdout_digest(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(args)) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# sha256 of stdout, which lines made on request must leave byte-identical.
STRIATIONS_DIGESTS = {
    1: {
        "ascii": "370be569c5459fc1871ea4b42b53f168117ecc675a5dd437ffbbbe866f9be017",
        "json": "bae63864056dcd2d9712866646942c316c57a63b1b1b64b8c29e99aaeeaaf5f8",
        "csv": "9fb708ebdbfa5d0e07022693812940b870eb84d4896f5007cc19a6feefd82c29",
    },
    2: {
        "ascii": "26bb5a912fb95f37d684f934f42ca813763aae55117fe428fea8e648378c9080",
        "json": "35e0bcccd40b6d2a6956cc52fb828d4a2d9c2492baf6d0ebf9939fb7a3b21e78",
        "csv": "0740fcdf566d1373a623948376bd7b08e58f10f99de71cc1ec4225751f3d850b",
    },
    3: {
        "ascii": "1febc3f9881cdfef8eb78ef23e83b061980f9615734a646b2b4428de7df02c83",
        "json": "e4ec7a41f2ddd4ca666c1dc5060fab43d23f4acd456c35c58f1fa97ff883c67a",
        "csv": "1fc34f53fda108796ef310720b0b473b98fa4a23adf82e83d768fbf8d5402c24",
    },
    4: {
        "ascii": "df7eb6a0185a3ec677047e82801a5644e7dcf50e007ff44e7651666d82d47773",
        "json": "0cc1c88773aecbdfc08b60faaf558a0280af12043ba06432f91e9718056f1c76",
        "csv": "a874629fc7962d27a183ea1c36098c312962520fb79d0b6496a98e913f2b5085",
    },
}
SINGLET_LINES_DIGEST = "528e209047b237ac2522e291585af22a302775e9550998b936c2acb5c957cd1f"


class TestStdoutPinnedByBytes:
    @pytest.mark.parametrize("fmt", ["ascii", "json", "csv"])
    @pytest.mark.parametrize("n", sorted(STRIATIONS_DIGESTS))
    def test_striations(self, n, fmt):
        assert _stdout_digest("--format", fmt, "striations", str(n)) == STRIATIONS_DIGESTS[n][fmt]

    def test_wigner_line_sums(self):
        assert _stdout_digest("wigner", "2", "--state", "singlet", "--lines") == SINGLET_LINES_DIGEST


class TestMainFunction:
    def test_main_returns_codes(self):
        from qphase.cli import main

        assert main(["field", "2"]) == 0
        assert main(["field", "0"]) == 2
        assert main(["--precision", "99", "field", "2"]) == 2
        assert main(["nonsense"]) == 2

    def test_labeling_error_exits_3(self, monkeypatch):
        import qphase.cli
        from qphase.mub import LabelingError
        from qphase.operators import NonCommutingError

        def broken(n):
            raise LabelingError(1, NonCommutingError(0, 1, 2.0))

        monkeypatch.setattr(qphase.cli, "build_system", broken)
        assert qphase.cli.main(["wigner", "1", "--state", "up"]) == 3


# -- argv fuzz: any argument list ends in a documented exit code --------------

# Valid values keep every run small: degree at most 2, --shots at most 64,
# --trials at most 3 (its default is 50 seeds per --scaling point).
_VALID = {
    "n": ["1", "2"],
    "--format": ["json", "csv", "ascii"],
    "--precision": ["3", "1", "12"],
    "--seed": ["7", "0", str(2**64 - 1)],
    "--shots": ["64", "0", "1"],
    "--scaling": ["16,64"],
    "--trials": ["3", "1"],
}
_STATES = {"1": ["up", "plus", "[1,0]", "[[1,0],[0,0]]"], "2": ["upup", "singlet", "[0,1,0,0]"]}
_INVALID = {
    "command": ["bogus", ""],
    "n": ["0", "-1", "9", "x"],  # 9 is past every degree cap
    "--format": ["xml"],
    "--precision": ["0", "13", "x"],
    "--seed": ["x", "-1", str(2**64)],  # tomo refuses seeds outside 0..2^64 - 1
    "--state": ["bogus", "[1,", "[NaN,0]", "[1,0,0]"],
    "--shots": ["-1", "x"],
    "--scaling": ["64,16", "0", "a,b", ""],
    "--trials": ["0", "-1"],
}
_OWN_FLAGS = {
    "field": [],
    "striations": [],
    "mub": ["--verify"],
    "wigner": ["--state", "--lines"],
    "tomo": ["--state", "--shots", "--scaling"],
    "verify": [],
}
_REQUIRED = {"--state", "--shots"}
_STRAY = ["--bogus", "--help", "--verify", "--lines", "--state", "extra", "--"]


@st.composite
def _argv(draw, command):
    """A valid call of the command, its flags in any order and the global
    ones before or after it, then at most one fault: a bad value, a dropped
    argument or a stray token."""
    n = draw(st.sampled_from(_VALID["n"]))
    own = [*_OWN_FLAGS[command], "--format", "--precision", "--seed"]
    slots = {"command": [command], "n": [n]}
    for flag in own:
        if flag in _REQUIRED or draw(st.booleans()):
            if flag == "--state":
                slots[flag] = [flag, draw(st.sampled_from(_STATES[n]))]
            elif flag == "--scaling":
                slots[flag] = [flag, "16,64", "--trials", draw(st.sampled_from(_VALID["--trials"]))]
            elif flag in _VALID:
                slots[flag] = [flag, draw(st.sampled_from(_VALID[flag]))]
            else:
                slots[flag] = [flag]
    fault = draw(st.sampled_from(["none", "value", "drop", "stray"]))
    if fault == "value":
        key = draw(st.sampled_from(sorted(k for k in slots if k in _INVALID)))
        slots[key][-1 if key in ("command", "n") else 1] = draw(st.sampled_from(_INVALID[key]))
    elif fault == "drop":
        del slots[draw(st.sampled_from(sorted(slots)))]
    elif fault == "stray":
        slots["stray"] = [draw(st.sampled_from(_STRAY))]
    head = [k for k in slots if k.startswith("--") and k not in _OWN_FLAGS[command]]
    before = [k for k in head if draw(st.booleans())]
    rest = draw(st.permutations([k for k in slots if k not in (*before, "command", "n")]))
    order = [*before, "command", "n", *rest]
    return [token for key in order if key in slots for token in slots[key]]


class TestArgvFuzz:
    @pytest.mark.parametrize("command", list(_OWN_FLAGS))
    @settings(max_examples=100)
    @given(data=st.data())
    def test_exit_code_is_documented(self, command, data):
        argv = data.draw(_argv(command), label="argv")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
