"""Command-line interface: payloads, formats, exit codes, byte stability."""

import json
import subprocess
import sys

import pytest

import motzkin_parity.cli
from motzkin_parity import MODEL_A, StepModel, dp_table
from motzkin_parity.cli import (
    _render_check_report,
    format_bfile,
    format_csv,
    format_series_json,
    run,
)
from reference_data import A176677_PREFIX


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormats:
    def test_bfile(self):
        assert format_bfile([1, 1, 2]) == "0 1\n1 1\n2 2\n"

    def test_csv(self):
        assert format_csv([1, 2, 5]) == "1,2,5\n"

    def test_json(self):
        payload = format_series_json("B", "f0", [1, 2, 5])
        assert payload == '{"model":"B","what":"f0","terms":3,"coefficients":["1","2","5"]}\n'


class TestSeriesCommand:
    def test_bfile_model_a(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--what", "f0", "--model", "A", "--terms", "10",
            "--format", "bfile",
        )
        assert code == 0
        expected = "".join(f"{n} {v}\n" for n, v in enumerate(A176677_PREFIX))
        assert out == expected

    def test_json_model_b(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--what", "f0", "--model", "B", "--terms", "3",
            "--format", "json",
        )
        assert code == 0
        assert out == '{"model":"B","what":"f0","terms":3,"coefficients":["1","2","5"]}\n'

    def test_even_level(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--what", "even", "--k", "1", "--model", "A",
            "--terms", "5", "--format", "csv",
        )
        assert code == 0
        assert out == "0,0,1,4,14\n"

    def test_odd_level(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--what", "odd", "--k", "0", "--terms", "4",
            "--format", "csv",
        )
        assert code == 0
        assert out == "0,1,3,9\n"

    def test_odd_level_uses_the_model(self, capsys):
        args = ("--model", "general", "--weights", "3,3", "--terms", "6", "--format", "csv")
        code, out, _ = invoke(capsys, "series", "--what", "odd", "--k", "0", *args)
        assert code == 0
        assert out == "0,1,6,29,132,590\n"
        _, column, _ = invoke(capsys, "dp", "--level", "1", *args)
        assert out == column

    def test_odd_level_json_names_the_model(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--what", "odd", "--k", "1", "--model", "B",
            "--terms", "4", "--format", "json",
        )
        assert code == 0
        assert out == '{"model":"B","what":"odd","k":1,"terms":4,"coefficients":["0","0","0","1"]}\n'

    def test_general_model_accepted(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--what", "f0", "--model", "general",
            "--weights", "3,3", "--terms", "6", "--format", "csv",
        )
        assert code == 0
        table = dp_table(StepModel(3, 3), 5)
        assert out == ",".join(str(table.count(n, 0)) for n in range(6)) + "\n"

    def test_named_weights_accepted(self, capsys):
        # weights matching a named model are that model
        code, out, _ = invoke(
            capsys, "series", "--what", "f0", "--model", "general",
            "--weights", "1,2", "--terms", "4", "--format", "csv",
        )
        assert code == 0
        assert out == "1,1,2,5\n"


class TestDpCommand:
    def test_classical_motzkin_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "dp", "--model", "general", "--weights", "1,1",
            "--terms", "7", "--level", "0", "--format", "csv",
        )
        assert code == 0
        assert out == "1,1,2,4,9,21,51\n"

    def test_level_column_json(self, capsys):
        code, out, _ = invoke(
            capsys, "dp", "--model", "A", "--terms", "5", "--level", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "A"
        assert payload["what"] == "dp"
        assert payload["level"] == 1
        assert payload["coefficients"] == ["0", "1", "3", "9", "27"]

    def test_bad_weights(self, capsys):
        code, _, err = invoke(
            capsys, "dp", "--model", "general", "--weights", "1,x", "--terms", "3",
        )
        assert code == 2
        assert "weights" in err

    def test_missing_weights(self, capsys):
        code, _, err = invoke(capsys, "dp", "--model", "general", "--terms", "3")
        assert code == 2
        assert "--weights" in err


class TestOpenCommand:
    def test_model_a(self, capsys):
        code, out, _ = invoke(capsys, "open", "--model", "A", "--terms", "5",
                              "--format", "csv")
        assert code == 0
        assert out == "1,2,6,19,62\n"

    def test_general_weights(self, capsys):
        code, out, _ = invoke(
            capsys, "open", "--model", "general", "--weights", "1,1",
            "--terms", "5", "--format", "csv",
        )
        assert code == 0
        assert out == "1,2,5,13,35\n"


class TestDeriveCommand:
    def test_all_stages_verified(self, capsys):
        code, out, _ = invoke(capsys, "derive", "--model", "A", "--terms", "40")
        assert code == 0
        payload = json.loads(out)
        for stage in ("algebraic", "ode", "homogeneous_ode", "recurrence"):
            assert payload[stage]["verified"] is True
        assert payload["algebraic"]["y_power_coeffs"] == [
            ["-1", "2"],
            ["1", "-3", "2"],
            ["0", "0", "-1", "1"],
        ]
        assert payload["ode"]["deriv_coeffs"] == [
            ["-2", "10", "-14", "4", "4"],
            ["0", "-1", "6", "-9", "0", "4"],
        ]
        assert payload["ode"]["inhomog"] == ["2", "-7", "6"]
        rec = payload["recurrence"]
        assert rec["order"] == 4
        assert rec["coeff_polys"] == [["4", "4"], ["4"], ["-32", "-9"], ["28", "6"], ["-6", "-1"]]
        assert rec["rhs"] == []
        assert rec["valid_from"] == 0

    def test_model_b_pipeline(self, capsys):
        code, out, _ = invoke(capsys, "derive", "--model", "B", "--terms", "40")
        assert code == 0
        payload = json.loads(out)
        for stage in ("algebraic", "ode", "homogeneous_ode", "recurrence"):
            assert payload[stage]["verified"] is True

    @pytest.mark.parametrize("weights,equation", [
        ("3,3", [["1"], ["-1", "3"], ["0", "0", "1"]]),
        ("2,5", [["-1", "5"], ["1", "-7", "10"], ["0", "0", "-1", "2"]]),
    ])
    def test_general_weights(self, capsys, weights, equation):
        code, out, _ = invoke(capsys, "derive", "--model", "general", "--weights", weights,
                              "--terms", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == f"general({weights})"
        assert payload["algebraic"]["y_power_coeffs"] == equation
        for stage in ("algebraic", "ode", "homogeneous_ode", "recurrence"):
            assert payload[stage]["verified"] is True

    @pytest.mark.parametrize("argv,order", [
        (("derive", "--model", "A", "--terms", "18"), 48),
        (("derive", "--model", "B", "--terms", "30"), 60),
        (("check", "--what", "pipeline", "--terms", "18"), 48),
    ], ids=["derive-18", "derive-30", "check-18"])
    def test_verification_order(self, capsys, monkeypatch, argv, order):
        # the series to max(2*terms, 48), the table column one term longer
        seen = []
        for name in ("verify_algebraic", "verify_ode", "rec_verify"):
            def recorded(stage, values, verify=getattr(motzkin_parity.cli, name)):
                seen.append(values.order if hasattr(values, "order") else len(values) - 1)
                return verify(stage, values)
            monkeypatch.setattr(motzkin_parity.cli, name, recorded)
        code, _, _ = invoke(capsys, *argv)
        assert code == 0
        assert seen and set(seen) == {order}


class TestGuessCommand:
    def test_recurrence_found(self, capsys):
        code, out, _ = invoke(
            capsys, "guess", "--kind", "rec", "--model", "A", "--terms", "40",
            "--order", "4", "--degree", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["recurrence"]["coeff_polys"] == [
            ["4", "4"], ["4"], ["-32", "-9"], ["28", "6"], ["-6", "-1"],
        ]

    def test_no_relation_found(self, capsys):
        code, out, _ = invoke(
            capsys, "guess", "--kind", "rec", "--model", "A", "--terms", "40",
            "--order", "2", "--degree", "1",
        )
        assert code == 0
        assert json.loads(out)["found"] is False

    def test_algebraic_found(self, capsys):
        code, out, _ = invoke(
            capsys, "guess", "--kind", "algeq", "--model", "B", "--terms", "40",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert list(payload["algebraic"]) == ["y_power_coeffs", "text"]
        assert payload["algebraic"]["y_power_coeffs"] == [
            ["-1", "1"],
            ["1", "-3", "2"],
            ["0", "0", "-1", "2"],
        ]

    def test_insufficient_terms_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "guess", "--kind", "rec", "--model", "A", "--terms", "5",
        )
        assert code == 2
        assert "error" in err


class TestCheckCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = invoke(capsys, "check", "--what", "all", "--terms", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(entry["passed"] for entry in payload["checks"])
        assert "first_failure" not in payload
        stages = ("equation-found", "equation-verifies", "ode-verifies",
                  "homogeneous-ode-verifies", "recurrence-verifies", "recurrence-extends")
        assert [entry["name"] for entry in payload["checks"]] == [
            *(f"closed-vs-table:{m}:level{k}" for m in "AB" for k in range(13)),
            *(f"odd-level-model-agreement:level{k}" for k in range(1, 13, 2)),
            "open-closed-vs-table:A", "open-closed-vs-table:B", "open-prefix:A",
            *(f"pipeline:{m}:{stage}" for m in "AB" for stage in stages),
        ]

    def test_failure_reporting(self):
        report, code = _render_check_report(
            "all", 40, [("fine", True, None), ("broken", False, 7)]
        )
        assert code == 1
        payload = json.loads(report)
        assert payload["passed"] is False
        assert payload["first_failure"] == {"check": "broken", "index": 7}

    def test_pipeline_needs_enough_terms(self, capsys):
        code, _, err = invoke(capsys, "check", "--what", "pipeline", "--terms", "10")
        assert code == 2
        assert "17" in err


class TestCountTables:
    """``dp`` streams its column; ``check`` builds one table per model."""

    @pytest.mark.parametrize("argv,tables", [
        (("dp", "--model", "B", "--level", "3", "--terms", "30"), 0),
        (("check", "--what", "all", "--terms", "20"), 2),
        (("check", "--what", "parity", "--terms", "20"), 2),
        (("check", "--what", "open", "--terms", "20"), 0),
    ], ids=["dp", "check-all", "check-parity", "check-open"])
    def test_count_tables_built(self, capsys, monkeypatch, argv, tables):
        calls = []

        def counted(*args):
            calls.append(args)
            return dp_table(*args)

        monkeypatch.setattr(motzkin_parity.cli, "dp_table", counted)
        code, _, _ = invoke(capsys, *argv)
        assert code == 0
        assert len(calls) == tables


class TestExitCodesAndStability:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "nonsense")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "dp", "--terms", "3", "--bogus")
        assert code == 2

    def test_byte_stability(self, capsys):
        args = ("series", "--what", "f0", "--model", "A", "--terms", "30",
                "--format", "json")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first.encode() == second.encode()

    def test_large_coefficients_roundtrip(self, capsys):
        code, out, _ = invoke(capsys, "dp", "--model", "A", "--terms", "301",
                              "--format", "json")
        assert code == 0
        table = dp_table(MODEL_A, 300)
        parsed = [int(c) for c in json.loads(out)["coefficients"]]
        assert parsed == [table.count(n, 0) for n in range(301)]
        assert parsed[300] > 10 ** 100

        code, out, _ = invoke(capsys, "dp", "--model", "A", "--terms", "301",
                              "--format", "bfile")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 301
        pairs = [line.split(" ") for line in lines]
        assert [int(n) for n, _ in pairs] == list(range(301))
        assert [int(v) for _, v in pairs] == parsed

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "motzkin_parity", "series", "--what", "f0",
             "--model", "B", "--terms", "3", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "1,2,5\n"
