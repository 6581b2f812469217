"""Tests for the command line interface: exit codes, output formats, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptbounds import cli
from ptbounds.cli import main
from ptbounds.linalg import matrix_from_json
from ptbounds.nonlocality import NlResult
from ptbounds.states import hiding_state, ppt_pbit


def run_main(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors this way
        code = int(exc.code)
    captured = capsys.readouterr()
    return code, captured.out


def test_repro_eq13_passes_and_reports(capsys):
    code, out = run_main(capsys, "repro", "eq13")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "repro"
    assert payload["target"] == "eq13"
    assert all(rep["verdict"] for rep in payload["reports"])
    contexts = [rep["context"] for rep in payload["reports"]]
    assert "eq13 monotone" in contexts


def test_repro_eq10_csv_row_values(capsys):
    code, out = run_main(capsys, "repro", "eq10", "--ds", "4", "--restarts", "8",
                         "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "context,lhs,rhs,slack,verdict"
    main_rows = [ln for ln in lines if ln.startswith("eq10 ds=4,")]
    assert len(main_rows) == 1
    fields = main_rows[0].split(",")
    assert fields[2] == "3.414213562373095"
    assert all(ln.endswith("True") for ln in lines[1:])


def test_repro_unknown_target_exits_two(capsys):
    code, _ = run_main(capsys, "repro", "eq99")
    assert code == 2


def test_seesaw_missing_file_exits_two(capsys, tmp_path):
    code, _ = run_main(capsys, "seesaw", str(tmp_path / "nope.json"))
    assert code == 2


def test_seesaw_corrupt_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_main(capsys, "seesaw", str(bad))
    assert code == 2


def test_make_state_then_seesaw_roundtrip(capsys, tmp_path):
    state_file = tmp_path / "phi.json"
    code, _ = run_main(capsys, "make-state", "max-entangled", "--d", "2",
                       "--output", str(state_file))
    assert code == 0
    payload = json.loads(state_file.read_text())
    assert payload["family"] == "max-entangled"
    assert "rho" in payload

    code, out = run_main(capsys, "seesaw", str(state_file),
                         "--restarts", "16", "--seed", "0")
    assert code == 0
    result = json.loads(out)
    assert result["value"] == pytest.approx(2.8284271, abs=5e-3)


def test_make_state_hiding_emits_parameters(capsys):
    code, out = run_main(capsys, "make-state", "hiding", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["delta"] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert "sigma_candidate" in payload


def test_make_state_fourier_emits_both_operators(capsys):
    code, out = run_main(capsys, "make-state", "fourier-xy", "--ds", "4")
    assert code == 0
    payload = json.loads(out)
    assert "X" in payload and "Y" in payload


def test_make_state_rejects_csv_output(capsys):
    code, _ = run_main(capsys, "make-state", "max-entangled", "--out", "csv")
    assert code == 2


def test_dimension_cap_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("PTBOUND_DIM_CAP", "8")
    code, _ = run_main(capsys, "repro", "eq10", "--ds", "4")
    assert code == 3


def test_prop1_doubled_state_is_capped(capsys, monkeypatch):
    # hiding m=1 has dimension 16, under the cap; rho x rho^PT has 256
    monkeypatch.setenv("PTBOUND_DIM_CAP", "32")
    assert main(["repro", "prop1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tensor needs dimension 256")
    assert len(captured.err.splitlines()) == 1


def test_nonlocality_exit_code_follows_convergence(capsys, monkeypatch):
    box_file = str(Path(__file__).parent / "data" / "hiding_m2_chsh_seesaw_box.json")
    code, out = run_main(capsys, "nonlocality", box_file)
    assert code == 0
    assert json.loads(out)["result"]["converged"] is True
    stalled = NlResult(0.5, np.full(16, 1.0 / 16), np.full(4, 0.25), False, 50_000, 0.3)
    monkeypatch.setattr(cli, "nonlocality_N", lambda box, **kwargs: stalled)
    code, out = run_main(capsys, "nonlocality", box_file)
    assert code == 1
    assert json.loads(out)["result"]["converged"] is False
    code, out = run_main(capsys, "nonlocality", box_file, "--out", "csv")
    assert code == 1
    assert "converged,False" in out.splitlines()


def test_nonlocality_on_local_vertex_box(capsys, tmp_path):
    p = [[[[0.0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for x in range(2):
        for y in range(2):
            p[x][y][0][0] = 1.0
    box_file = tmp_path / "vertex.json"
    box_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": p}))
    code, out = run_main(capsys, "nonlocality", str(box_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["value"] <= 1e-9


def test_nonlocality_rejects_unnormalized_box(capsys, tmp_path):
    p = [[[[0.5] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    box_file = tmp_path / "bad_box.json"
    box_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": p}))
    code, _ = run_main(capsys, "nonlocality", str(box_file))
    assert code == 2


def run_main_errors(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err.splitlines()


# numbers that are not finite floats, and values that are not numbers at all
_BAD_NUMBERS = [float("nan"), float("inf"), "0.25", None, pytest.param(10**400, id="int400")]


@pytest.mark.parametrize("bad", _BAD_NUMBERS)
def test_nonlocality_rejects_non_finite_box(capsys, tmp_path, bad):
    p = [[[[0.25] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    p[0][1][1][0] = bad
    box_file = tmp_path / "non_finite_box.json"
    box_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": p}))
    code, errors = run_main_errors(capsys, "nonlocality", str(box_file))
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error:")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_seesaw_rejects_non_finite_state(capsys, tmp_path, bad):
    state_file = tmp_path / "state.json"
    assert run_main(capsys, "make-state", "max-entangled", "--output", str(state_file))[0] == 0
    payload = json.loads(state_file.read_text())
    payload["rho"]["data"][5][0] = bad
    state_file.write_text(json.dumps(payload))
    code, errors = run_main_errors(capsys, "seesaw", str(state_file), "--restarts", "2")
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error:")


@pytest.mark.parametrize("bad", _BAD_NUMBERS)
@pytest.mark.parametrize("field", ["coeffs", "offset"])
def test_seesaw_rejects_non_finite_functional(capsys, tmp_path, bad, field):
    state_file = tmp_path / "phi.json"
    assert run_main(capsys, "make-state", "max-entangled", "--output", str(state_file))[0] == 0
    functional = {"nx": 2, "ny": 2, "na": 2, "nb": 2, "coeffs": [1.0] * 16, "offset": 0.0}
    if field == "coeffs":
        functional["coeffs"][3] = bad
    else:
        functional["offset"] = bad
    functional_file = tmp_path / "f.json"
    functional_file.write_text(json.dumps(functional))
    code, errors = run_main_errors(capsys, "seesaw", str(state_file), str(functional_file),
                                   "--restarts", "2")
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error:")


def _matrix_payload(entries):
    return {"dims": [2, 2], "parties": ["A", "B"], "data": [[re, im] for re, im in entries]}


_PHI = [0.5 if i in (0, 3, 12, 15) else 0.0 for i in range(16)]
_BAD_STATES = {
    # every entry [i % 3, 7i % 5]: trace 3 and not hermitian
    "unit-trace": [(i % 3, (7 * i) % 5) for i in range(16)],
    "hermitian": [(x + (0.2 if i == 1 else 0.0), 0.0) for i, x in enumerate(_PHI)],
    "psd": [(x, 0.0) for x in [1.5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -0.5]],
}


@pytest.mark.parametrize("broken", sorted(_BAD_STATES))
def test_seesaw_rejects_states_that_are_not_densities(capsys, tmp_path, broken):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(_matrix_payload(_BAD_STATES[broken])))
    code, errors = run_main_errors(capsys, "seesaw", str(state_file), "--restarts", "2")
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error:")


def test_seesaw_rejects_integer_too_large_for_a_float(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    payload = _matrix_payload([(x, 0.0) for x in _PHI])
    text = json.dumps(payload).replace("0.0", "1" + "0" * 399, 1)
    state_file.write_text(text)
    code, errors = run_main_errors(capsys, "seesaw", str(state_file), "--restarts", "2")
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error:")


def test_make_state_hiding_reloads_bit_for_bit(capsys, tmp_path):
    state_file = tmp_path / "hiding.json"
    code, _ = run_main(capsys, "make-state", "hiding", "--m", "2", "--output", str(state_file))
    assert code == 0
    payload = json.loads(state_file.read_text())
    fam = hiding_state(m=2, d_shield=2, k=1, q=1.0 / 3.0)
    for key, expected in (("rho", fam.rho), ("sigma_candidate", fam.sigma_candidate)):
        loaded = matrix_from_json(payload[key])
        assert loaded.layout == expected.layout
        assert np.array_equal(loaded.mat.view(np.uint64), expected.mat.view(np.uint64))


@pytest.mark.parametrize("argv", [("repro", "eq13"), ("make-state", "hiding", "--m", "1")])
def test_json_output_is_one_line(capsys, argv):
    code, out = run_main(capsys, *argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)


def test_repro_prop1_outside_ppt_range_fails_the_ppt_row(capsys):
    code, out = run_main(capsys, "repro", "prop1", "--q", "0.4", "--restarts", "4")
    assert code == 1
    verdicts = {rep["context"]: rep["verdict"] for rep in json.loads(out)["reports"]}
    assert verdicts["prop1 m=1 ppt"] is False


def test_negative_tolerance_exits_two(capsys):
    code, _ = run_main(capsys, "repro", "eq13", "--tol", "-1.0")
    assert code == 2


def test_repro_output_files_are_deterministic(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_main(capsys, "repro", "eq13", "--seed", "7",
                    "--output", str(first))[0] == 0
    assert run_main(capsys, "repro", "eq13", "--seed", "7",
                    "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ptbounds.cli", "repro", "eq13", "--eps", "0.0,0.1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["seed"] == 0


# make-state family -> (matrix fields, params) at the default flags
_FAMILY_PAYLOADS = {
    "max-entangled": ({"rho"}, {"d": 2}),
    "werner-symmetric": ({"rho"}, {"d": 2}),
    "werner-antisymmetric": ({"rho"}, {"d": 2}),
    "swap-x": ({"operator"}, {"d": 2}),
    "fourier-xy": ({"X", "Y"}, {"d_s": 4}),
    "private-bit": ({"rho"}, {"d": 2}),
    "ppt-pbit": ({"rho", "sigma_candidate"}, ppt_pbit(4).params),
    "hiding": ({"rho", "sigma_candidate"}, hiding_state(m=1, d_shield=2, k=1, q=1.0 / 3.0).params),
}


def test_make_state_family_table_is_the_choice_list():
    assert list(cli._FAMILIES) == list(_FAMILY_PAYLOADS)


@pytest.mark.parametrize("family", list(_FAMILY_PAYLOADS))
def test_make_state_family_payload(capsys, family):
    code, out = run_main(capsys, "make-state", family)
    assert code == 0
    payload = json.loads(out)
    matrices, params = _FAMILY_PAYLOADS[family]
    notes = {"notes"} if "sigma_candidate" in matrices else set()
    assert set(payload) == {"command", "family", "params"} | matrices | notes
    assert (payload["command"], payload["family"]) == ("make-state", family)
    assert payload["params"] == json.loads(json.dumps(params))
    for key in matrices:
        matrix_from_json(payload[key])


@pytest.mark.parametrize("flag", ["--restarts", "--tol"])
@pytest.mark.parametrize("command", ["repro", "seesaw", "nonlocality", "make-state"])
def test_restarts_and_tol_are_checked_on_every_command(capsys, tmp_path, command, flag):
    state_file = tmp_path / "phi.json"
    assert run_main(capsys, "make-state", "max-entangled", "--output", str(state_file))[0] == 0
    box_file = tmp_path / "box.json"
    box_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": [0.25] * 16}))
    argv = {
        "repro": ["repro", "eq13"],
        "seesaw": ["seesaw", str(state_file)],
        "nonlocality": ["nonlocality", str(box_file)],
        "make-state": ["make-state", "max-entangled"],
    }[command]
    code, errors = run_main_errors(capsys, *argv, flag, "0")
    assert code == 2
    assert errors == [{"--restarts": "error: restarts must be at least 1",
                       "--tol": "error: tol must be positive"}[flag]]


def test_repro_eq13_is_the_monotone_row(capsys):
    code, out = run_main(capsys, "repro", "eq13")
    assert code == 0
    [row] = json.loads(out)["reports"]
    assert (row["context"], row["lhs"], row["rhs"]) == ("eq13 monotone", 0.0, 0.0)


@pytest.mark.parametrize("decreasing", [lambda eps, d: 1.0 - eps, lambda eps, d: 1.0 / d],
                         ids=["in-eps", "in-d"])
def test_repro_eq13_fails_when_the_bound_decreases(capsys, monkeypatch, decreasing):
    monkeypatch.setattr(cli, "continuity_bound", decreasing)
    code, out = run_main(capsys, "repro", "eq13", "--out", "csv")
    assert code == 1
    assert out.splitlines()[1].startswith("eq13 monotone,") and out.endswith(",False\n")


@pytest.mark.parametrize("argv, message", [
    (["make-state", "max-entangled", "--d", ","], "error: expected comma-separated integers, got ','"),
    (["repro", "eq8", "--d", ","], "error: expected comma-separated integers, got ','"),
    (["repro", "eq13", "--eps", ","], "error: expected comma-separated numbers, got ','"),
], ids=["make-state-d", "eq8-d", "eq13-eps"])
def test_empty_grids_exit_two(capsys, argv, message):
    code, errors = run_main_errors(capsys, *argv)
    assert code == 2
    assert errors == [message]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode", ["uniform", "optimize"])
def test_nonlocality_reports_the_final_gap(capsys, tmp_path, mode):
    box_file = tmp_path / "box.json"
    box_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": [0.25] * 16}))
    argv = ["nonlocality", str(box_file), "--mode", mode, "--restarts", "2"]
    code, out = run_main(capsys, *argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["converged"] == (result["gap"] <= 1e-7)
    code, out = run_main(capsys, *argv, "--out", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [
        f"value,{result['value']!r}",
        f"converged,{result['converged']}",
        f"iterations,{result['iterations']}",
        f"gap,{result['gap']!r}",
    ]


def test_runtime_imports_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ptbounds, ptbounds.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
