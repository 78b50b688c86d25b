import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import irs_swipt
from irs_swipt import SolverError, harness
from irs_swipt.cli import main

from helpers import count_calls


def scenario_doc():
    return {
        "config": {"n_elements": 10, "eh_threshold": 5e-5},
        "geometry": {"er_center": 4.0, "ir_center": 30.0},
        "seed": 2,
    }


def spec_doc():
    return {
        "experiment": "wsr-vs-M",
        "sweep": [6, 10],
        "trials": 1,
        "seed_base": 1,
        "methods": ["no-irs"],
        "config": {"n_elements": 10, "eh_threshold": 5e-5},
        "geometry": {"er_center": 4.0, "ir_center": 30.0},
        "record_timings": False,
    }


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestRunCommand:
    def test_writes_csv(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.json", spec_doc())
        out = tmp_path / "results.csv"
        assert main(["run", spec, "--out", str(out), "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + (2 sweep points x 1 trial)
        assert "wsr-vs-M" in lines[1]

    def test_csv_reruns_identically(self, tmp_path):
        spec = write(tmp_path, "spec.json", spec_doc())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", spec, "--out", str(out1)])
        main(["run", spec, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        spec = write(tmp_path, "spec.json", spec_doc())
        out = tmp_path / "results.json"
        assert main(["run", spec, "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 2
        assert doc["spec"]["trials"] == 1

    def test_trial_and_seed_overrides(self, tmp_path):
        spec = write(tmp_path, "spec.json", spec_doc())
        out = tmp_path / "r.csv"
        main(["run", spec, "--out", str(out), "--trials", "2", "--seed", "9"])
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.json", spec_doc())
        for fmt in ("csv", "json"):
            out = tmp_path / f"results.{fmt}"
            assert main(["run", spec, "--out", str(out), "--format", fmt]) == 0
            capsys.readouterr()
            assert main(["run", spec, "--format", fmt]) == 0
            printed = capsys.readouterr().out
            if fmt == "csv":
                assert printed.encode() == out.read_bytes()
            else:
                assert (json.loads(printed)["records"]
                        == json.loads(out.read_text())["records"])

    def test_bad_spec_fails_with_diagnostic(self, tmp_path, capsys):
        spec = write(tmp_path, "bad.json", {**spec_doc(), "experiment": "nope"})
        assert main(["run", spec]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_count_below_one_fails(self, tmp_path, capsys, threads):
        spec = write(tmp_path, "spec.json", spec_doc())
        assert main(["run", spec, "--threads", threads]) == 2
        assert "threads must be an integer >= 1" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        assert main(["run", "/nonexistent/spec.json"]) == 2

    def test_misspelled_key_fails_with_diagnostic(self, tmp_path, capsys):
        doc = spec_doc()
        doc["trails"] = doc.pop("trials")
        spec = write(tmp_path, "typo.json", doc)
        assert main(["run", spec]) == 2
        assert "typo.json" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1, 2], "spec", None,
                                     {**spec_doc(), "sweep": "ab"},
                                     {**spec_doc(), "config": "x"}])
    def test_non_object_spec_fails_with_diagnostic(self, tmp_path, capsys,
                                                   doc):
        spec = write(tmp_path, "toplevel.json", doc)
        assert main(["run", spec]) == 2
        assert "toplevel.json" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"trials": 2.5},
                                        {"sweep": [6, 8.5]}])
    def test_fractional_count_fails_with_diagnostic(self, tmp_path, capsys,
                                                    fields):
        spec = write(tmp_path, "fraction.json", {**spec_doc(), **fields})
        assert main(["run", spec]) == 2
        assert "fraction.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name, fields", [
        ("sweep", {"sweep": "45"}), ("methods", {"methods": "no-irs"}),
        ("rate_weights", {"config": {"n_elements": 10, "rate_weights": "12"}}),
        ("bs_position", {"geometry": {"bs_position": [0.0, 0.0, 0.0]}})])
    def test_string_or_wrong_length_list_fails_before_any_cell(
            self, tmp_path, capsys, monkeypatch, name, fields):
        cells = count_calls(monkeypatch, harness, "run_trial")
        spec = write(tmp_path, "lists.json", {**spec_doc(), **fields})
        assert main(["run", spec]) == 2
        assert cells == []
        err = capsys.readouterr().err
        assert "lists.json" in err and f"{name} must" in err

    def test_bad_sweep_value_fails_before_any_cell(self, tmp_path, capsys,
                                                   monkeypatch):
        cells = count_calls(monkeypatch, harness, "run_trial")
        spec = write(tmp_path, "negative.json", {**spec_doc(), "sweep": [6, -4]})
        assert main(["run", spec]) == 2
        assert cells == []
        assert "negative.json" in capsys.readouterr().err

    def test_missing_sweep_fails_with_diagnostic(self, tmp_path, capsys):
        doc = spec_doc()
        del doc["sweep"]
        spec = write(tmp_path, "nosweep.json", doc)
        assert main(["run", spec]) == 2
        assert "nosweep.json" in capsys.readouterr().err


class TestScenarioCommands:
    def test_check_feasibility(self, tmp_path, capsys):
        scen = write(tmp_path, "scen.json", scenario_doc())
        assert main(["check-feasibility", scen]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert doc["q_achieved_watts"] >= doc["eh_threshold_watts"]

    def test_check_feasibility_seed_override(self, tmp_path, capsys):
        scen = write(tmp_path, "scen.json", scenario_doc())
        main(["check-feasibility", scen, "--seed", "77"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 77

    def test_check_feasibility_out_prints_summary(self, tmp_path, capsys):
        scen = write(tmp_path, "scen.json", scenario_doc())
        out = tmp_path / "feasibility.json"
        assert main(["check-feasibility", scen, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        doc = json.loads(out.read_text())
        assert doc["feasible"] is True
        assert len(printed) == 1
        assert printed[0].startswith("feasible=True ")
        assert main(["check-feasibility", scen]) == 0
        assert json.loads(capsys.readouterr().out) == doc

    def test_solve_writes_report(self, tmp_path, capsys):
        scen = write(tmp_path, "scen.json", scenario_doc())
        out = tmp_path / "report.json"
        assert main(["solve", scen, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["feasible"] is True
        assert doc["wsr_bits"] > 0.0
        trajectory = doc["wsr_trajectory"]
        assert all(b[1] >= a[1] - 1e-9 for a, b in zip(trajectory,
                                                       trajectory[1:]))
        assert doc["stop_reason"] in ("converged", "sweep cap")
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1
        assert printed[0].startswith("feasible=True ")
        assert printed[0].endswith(f" ({doc['stop_reason']})")

    def test_solver_error_exits_one(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise SolverError("3 consecutive failed BCD sweeps")

        monkeypatch.setattr(harness, "bcd_solve", failing)
        scen = write(tmp_path, "scen.json", scenario_doc())
        out = tmp_path / "report.json"
        assert main(["solve", scen, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: 3 consecutive failed BCD sweeps\n"

    def test_solve_infeasible_scenario(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["config"]["eh_threshold"] = 1e3
        scen = write(tmp_path, "scen.json", doc)
        assert main(["solve", scen]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is False
        assert doc["wsr_bits"] == 0.0 and doc["iterations_used"] == 0
        assert doc["wsr_trajectory"] == []
        assert doc["stop_reason"] == "infeasible"
        assert doc["wall_time_s"] > 0
        assert len(doc["phases_real"]) == 10

    def test_solve_stdout_is_json(self, tmp_path, capsys):
        scen = write(tmp_path, "scen.json", scenario_doc())
        assert main(["solve", scen]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["wsr_bits"] > 0.0

    @pytest.mark.parametrize("command", ["solve", "check-feasibility"])
    def test_format_option_rejected(self, tmp_path, command):
        scen = write(tmp_path, "scen.json", scenario_doc())
        with pytest.raises(SystemExit) as exc:
            main([command, scen, "--format", "csv"])
        assert exc.value.code == 2

    def test_malformed_scenario_fails(self, tmp_path, capsys):
        scen = tmp_path / "broken.json"
        scen.write_text("{not json")
        assert main(["solve", str(scen)]) == 2

    def test_misspelled_scenario_key_fails(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["geometry"]["er_centre"] = doc["geometry"].pop("er_center")
        scen = write(tmp_path, "typo.json", doc)
        assert main(["check-feasibility", scen]) == 2
        assert "typo.json" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1, 2], "scenario", None,
                                     {"config": "abc"}, {"seed": "x"},
                                     {"confg": {"n_elements": 4}},
                                     {**scenario_doc(), "sede": 7},
                                     {**scenario_doc(), "seed": 3.7},
                                     {**scenario_doc(), "seed": "7"}])
    def test_non_object_scenario_fails_with_diagnostic(self, tmp_path, capsys,
                                                       doc):
        scen = write(tmp_path, "toplevel.json", doc)
        assert main(["solve", scen]) == 2
        assert "toplevel.json" in capsys.readouterr().err

    def test_string_element_count_fails(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["config"]["n_elements"] = "4"
        scen = write(tmp_path, "string.json", doc)
        assert main(["solve", scen]) == 2
        assert "string.json" in capsys.readouterr().err

    def test_fractional_element_count_fails(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["config"]["n_elements"] = 40.0
        scen = write(tmp_path, "float.json", doc)
        assert main(["solve", scen]) == 2
        assert "float.json" in capsys.readouterr().err


def test_entry_point_runs():
    # the child imports the same package as this process, installed or not
    src = str(Path(irs_swipt.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "irs_swipt.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "check-feasibility" in proc.stdout
