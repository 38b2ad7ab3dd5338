"""End-to-end CLI checks via subprocess: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from qphase.serialize import dumps_canonical


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
