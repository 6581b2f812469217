"""Tests for the command line interface: exit codes, output formats, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptbounds import bell, cli
from ptbounds.bell import BoundReport, certificate_rows, chsh
from ptbounds.cli import main
from ptbounds.linalg import CMatrix, matrix_from_json, matrix_to_json
from ptbounds.nonlocality import NlResult
from ptbounds.states import hiding_state, ppt_pbit


def run_captured(capsys, *argv):
    """Exit code of main and its captured stdout and stderr."""
    code = main(list(argv))
    return code, capsys.readouterr()


def run_main(capsys, *argv):
    code, captured = run_captured(capsys, *argv)
    return code, captured.out


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


# (flags, target, its grid points as certificate_rows keywords, the false rows, exit code)
_PARITY_RUNS = [
    (("--d", "2,3"), "eq8", [{"d": 2}, {"d": 3}], [], 0),
    (("--ds", "4,9"), "eq10", [{"ds": 4}, {"ds": 9}], [], 0),
    ((), "prop1", [{"m": 1, "q": 1.0 / 3.0}], [], 0),
    (("--m", "2", "--q", "0.2"), "prop1", [{"m": 2, "q": 0.2}], ["prop1 m=2 delta"], 1),
]


@pytest.mark.parametrize("flags, target, points, false_rows, expected_code", _PARITY_RUNS)
def test_repro_only_formats_the_library_rows(flags, target, points, false_rows, expected_code):
    args = cli.build_parser().parse_args(["repro", target, *flags, "--restarts", "2",
                                          "--seed", "3"])
    payload, lines, code = cli.cmd_repro(args)
    rows = [row for point in points for row in certificate_rows(target, 2, 3, **point)]
    assert payload["reports"] == [row.to_json() for row in rows]
    assert lines == [BoundReport.csv_header(), *(row.csv_row() for row in rows)]
    assert [row.context for row in rows if not row.verdict] == false_rows
    assert code == expected_code


def test_a_seesaw_at_tsirelson_fails_every_row_whose_rhs_is_below_it(monkeypatch, capsys):
    # eq10 ds = 4, 9 and prop1 m = 1, 2 have rhs at least 2 sqrt 2, so no seesaw
    # value can fail them: they are the cases of ROADMAP's "Every default row can fail"
    tsirelson = 2.0 * 2.0**0.5
    monkeypatch.setattr(bell, "seesaw", lambda *args, **kwargs: SimpleNamespace(value=tsirelson))
    points = [("eq8", {"d": d}) for d in (2, 3, 8)] + [("eq10", {"ds": ds}) for ds in (4, 9, 16)]
    points += [("prop1", {"m": m, "q": 1.0 / 3.0}) for m in (1, 2)]
    verdicts = {rows[0].context: rows[0].verdict
                for rows in (certificate_rows(target, 1, 0, **point) for target, point in points)}
    assert verdicts == {"eq8 d=2": False, "eq8 d=3": False, "eq8 d=8": False,
                        "eq10 ds=4": True, "eq10 ds=9": True, "eq10 ds=16": False,
                        "prop1 m=1": True, "prop1 m=2": True}
    assert main(["repro", "eq8", "--d", "2,3,8", "--restarts", "1"]) == 1
    assert main(["repro", "eq10", "--ds", "16", "--restarts", "1"]) == 1
    assert main(["repro", "eq10", "--ds", "4,9", "--restarts", "1"]) == 0
    capsys.readouterr()


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


def test_make_state_rejects_csv_output(capsys, tmp_path, monkeypatch):
    # make-state has no --out; were abbreviations allowed, "--out csv" would
    # be read as "--output csv" and write a file named csv
    monkeypatch.chdir(tmp_path)
    code, _ = run_main(capsys, "make-state", "max-entangled", "--out", "csv")
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--d", "3,5"), ("--ds", "4,9")])
def test_make_state_sizes_take_one_integer(capsys, flag, value):
    family = {"--d": "private-bit", "--ds": "ppt-pbit"}[flag]
    code, captured = run_captured(capsys, "make-state", family, flag, value)
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: ptbounds make-state {family}: argument {flag}: invalid int value: '{value}'"]


def test_dimension_cap_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("PTBOUND_DIM_CAP", "8")
    code, _ = run_main(capsys, "repro", "eq10", "--ds", "4")
    assert code == 3
    # a cap that is not an integer >= 2 is a validation error
    for raw, message in (("abc", "must be an integer, got 'abc'"),
                         ("1", "must be at least 2, got 1")):
        monkeypatch.setenv("PTBOUND_DIM_CAP", raw)
        code, captured = run_captured(capsys, "make-state", "max-entangled")
        assert code == 2
        assert captured.err.splitlines() == [f"error: PTBOUND_DIM_CAP {message}"]


def test_prop1_doubled_state_is_capped(capsys, monkeypatch):
    # hiding m=1 has dimension 16, under the cap; rho x rho^PT has 256
    monkeypatch.setenv("PTBOUND_DIM_CAP", "32")
    assert main(["repro", "prop1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tensor needs dimension 256")
    assert len(captured.err.splitlines()) == 1


_OVER_2_64 = "needs dimension at least 2^64, above the cap 4096 (set PTBOUND_DIM_CAP to raise it)"


@pytest.mark.parametrize("argv, cap, code, message", [
    (("make-state", "hiding", "--m", "7100"), None, 3, f"hiding_state {_OVER_2_64}"),
    (("make-state", "hiding", "--m", "7200"), None, 3, f"hiding_state {_OVER_2_64}"),
    (("repro", "prop1", "--m", "7200", "--restarts", "1"), None, 3,
     f"hiding_state {_OVER_2_64}"),
    (("make-state", "max-entangled", "--d", "1" + "0" * 2200), None, 3,
     f"max_entangled {_OVER_2_64}"),
    (("make-state", "hiding", "--m", "1000000000"), None, 3, f"hiding_state {_OVER_2_64}"),
    (("make-state", "hiding", "--d", "3", "--m", "100000000"), None, 3,
     f"hiding_state {_OVER_2_64}"),
    (("make-state", "max-entangled", "--d", str(10**20)), str(10**50), 2,
     f"PTBOUND_DIM_CAP must be at most 759250124, got {10**50}"),
    # messages that echo a huge input in full: main cuts the line
    (("repro", "eq10", "--ds", "2" + "0" * 2200), None, 2,
     f"fourier_xy needs a perfect square d_s >= 4, got {2 * 10**2200}"),
    (("make-state", "max-entangled"), "9" * 4000, 2,
     f"PTBOUND_DIM_CAP must be at most 759250124, got {'9' * 4000}"),
    (("repro", "eq8", "--d", "x" * 3000), None, 2,
     f"expected comma-separated integers, got {'x' * 3000!r}"),
    (("seesaw", "parties.json", "--restarts", "1"), None, 2,
     f"matrix JSON parties must be a list of strings, got {'P' * 5000!r}"),
    (("seesaw", "dims.json", "--restarts", "1"), None, 2,
     f"matrix JSON dims entry must be an integer >= 1, got {[2] * 3000!r}"),
    (("nonlocality", "nx.json"), None, 2,
     f"bad box JSON: nx must be an integer >= 1, got {[1] * 3000!r}"),
    # parse errors go through main like every other error line
    (("repro", "eq8", "--restarts", "x" * 3000), None, 2,
     f"ptbounds repro eq8: argument --restarts: invalid int value: {'x' * 3000!r}"),
    (("repro", "eq8", "--restarts", "1" + "0" * 5000), None, 2,
     f"ptbounds repro eq8: argument --restarts: invalid int value: '1{'0' * 5000}'"),
    (("sweep", "--outdir", "x" * 5000), None, 2,
     f"cannot create --outdir {'x' * 5000}: File name too long"),
], ids=["hiding-m7100", "hiding-m7200", "prop1-m7200", "max-entangled-2201-digits",
        "hiding-m1e9", "hiding-d3-m1e8", "cap-1e50", "eq10-2201-digit-ds", "cap-4000-nines",
        "eq8-3000-char-d", "parties-5000-chars", "dims-entry-3000-twos", "box-nx-3000-ones",
        "eq8-3000-char-restarts", "eq8-5001-digit-restarts", "sweep-5000-char-outdir"])
def test_huge_sizes_and_caps_exit_at_once_with_one_short_line(tmp_path, argv, cap, code, message):
    # dimensions past Python's 4,300-digit str() limit, powers too large to
    # compute in full, a cap whose square numpy cannot size, and inputs that
    # the message echoes: each exits at once, 3 at the cap or 2 otherwise,
    # with one line of at most 200 characters, its newline included; a longer
    # line is cut to its first 196 characters and "..."
    for name, payload in (("parties.json", {**_PHI_PAYLOAD, "parties": "P" * 5000}),
                          ("dims.json", {**_PHI_PAYLOAD, "dims": [[2] * 3000, 2]}),
                          ("nx.json", {"nx": [1] * 3000, "ny": 2, "na": 2, "nb": 2,
                                       "p": [0.25] * 16})):
        (tmp_path / name).write_text(json.dumps(payload))
    env = {"PTBOUND_DIM_CAP": cap} if cap else {}
    proc = run_child(tmp_path, "-m", "ptbounds.cli", *argv, timeout=10, **env)
    line = f"error: {message}"
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [line if len(line) < 200 else line[:196] + "..."]
    assert len(proc.stderr) <= 200


def _raising(exc: BaseException):
    def builder(*args, **kwargs):
        raise exc
    return builder


@pytest.mark.parametrize("exc, code, message", [
    (MemoryError(), 3, "error: out of memory"),
    (MemoryError("Unable to allocate 8.00 GiB"), 3, "error: Unable to allocate 8.00 GiB"),
    (np.linalg.LinAlgError("Eigenvalues did not converge"), 2,
     "error: Eigenvalues did not converge"),
], ids=["memory-bare", "memory-message", "linalg"])
def test_memory_and_linalg_errors_exit_with_one_line(capsys, monkeypatch, exc, code, message):
    # the state builder raises; nothing large is allocated
    monkeypatch.setattr(cli, "max_entangled", _raising(exc))
    got, captured = run_captured(capsys, "make-state", "max-entangled")
    assert got == code
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_nonlocality_exit_code_follows_convergence(capsys, monkeypatch):
    box_file = str(Path(__file__).parent / "data" / "hiding_m2_chsh_seesaw_box.json")
    code, out = run_main(capsys, "nonlocality", box_file)
    assert code == 0
    assert json.loads(out)["result"]["converged"] is True
    stalled = NlResult(0.5, np.full(16, 1.0 / 16), np.full(4, 0.25), False, 50_000, 0.3, 0.5)
    monkeypatch.setattr(cli, "nonlocality_N", lambda box, **kwargs: stalled)
    code, out = run_main(capsys, "nonlocality", box_file)
    assert code == 1
    assert json.loads(out)["result"]["converged"] is False
    code, out = run_main(capsys, "nonlocality", box_file, "--out", "csv")
    assert code == 1
    assert "converged,False" in out.splitlines()


def test_nonlocality_exits_0_on_a_subnormal_entry(capsys, tmp_path):
    # a one-input box is local, so N = 0; its subnormal entry reads as 0, so
    # the solve converges to N = 0.0 and the command exits 0
    box_file = tmp_path / "subnormal.json"
    box_file.write_text(json.dumps({"nx": 1, "ny": 1, "na": 2, "nb": 2, "p": [1e-320, 0, 0, 1]}))
    out_file = tmp_path / "report.json"
    code, _ = run_main(capsys, "nonlocality", str(box_file), "--output", str(out_file))
    assert code == 0
    result = json.loads(out_file.read_text())["result"]
    assert (result["value"], result["converged"]) == (0.0, True)


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
    rho = payload["rho"]
    dense = {**rho, "data": matrix_from_json(rho).mat.reshape(-1).view(float).reshape(-1, 2).tolist()}
    rho["data"][1][2] = bad  # the real part of an entry
    dense["data"][5][0] = bad
    for broken in (payload, dense):
        state_file.write_text(json.dumps(broken))
        code, errors = run_main_errors(capsys, "seesaw", str(state_file), "--restarts", "2")
        assert code == 2
        assert errors == ["error: matrix JSON has non-finite entries"]


@pytest.mark.parametrize("bad", _BAD_NUMBERS)
@pytest.mark.parametrize("field", ["coeffs"])
def test_seesaw_rejects_non_finite_functional(capsys, tmp_path, bad, field):
    state_file = tmp_path / "phi.json"
    assert run_main(capsys, "make-state", "max-entangled", "--output", str(state_file))[0] == 0
    functional = {"nx": 2, "ny": 2, "na": 2, "nb": 2, "coeffs": [1.0] * 16}
    functional[field][3] = bad
    functional_file = tmp_path / "f.json"
    functional_file.write_text(json.dumps(functional))
    code, errors = run_main_errors(capsys, "seesaw", str(state_file), str(functional_file),
                                   "--restarts", "2")
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error:")


@pytest.mark.parametrize("offset", [0.0, 1.5, *_BAD_NUMBERS])
def test_seesaw_ignores_the_offset_key_of_a_functional_file(capsys, tmp_path, offset):
    # files written when functionals carried an offset still read, as the same functional
    state_file = tmp_path / "phi.json"
    assert run_main(capsys, "make-state", "max-entangled", "--output", str(state_file))[0] == 0
    reports = []
    for extra in ({}, {"offset": offset}):
        functional_file = tmp_path / "f.json"
        functional_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2,
                                               "coeffs": chsh().to_json()["coeffs"], **extra}))
        reports.append(run_main(capsys, "seesaw", str(state_file), str(functional_file),
                                "--restarts", "2"))
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


# sixteen finite coefficients whose sum overflows a float
_OVERFLOWING_FUNCTIONAL = {"nx": 2, "ny": 2, "na": 2, "nb": 2, "coeffs": [1e308] * 16}


def test_seesaw_rejects_functional_whose_sum_overflows(tmp_path):
    code, errors = _main_on_files(tmp_path, "seesaw", [_PHI_PAYLOAD, _OVERFLOWING_FUNCTIONAL])
    assert code == 2
    assert errors == ["error: functional coefficients must have a finite absolute sum"]


# unary plus reads true as 1 and false as 0: a box of booleans would pass as a
# deterministic box, and a functional of them as sixteen ones
def test_nonlocality_refuses_boolean_box_entries(tmp_path):
    box = {"nx": 1, "ny": 1, "na": 2, "nb": 2, "p": [True, False, False, False]}
    code, errors = _main_on_files(tmp_path, "nonlocality", [box])
    assert code == 2
    assert errors == ["error: box JSON entries must be numbers, not booleans"]


def test_seesaw_refuses_boolean_functional_coefficients(tmp_path):
    functional = {"nx": 2, "ny": 2, "na": 2, "nb": 2, "coeffs": [True] * 16}
    code, errors = _main_on_files(tmp_path, "seesaw", [_PHI_PAYLOAD, functional])
    assert code == 2
    assert errors == ["error: functional JSON coefficients must be numbers, not booleans"]


def _matrix_payload(entries):
    return {"dims": [2, 2], "parties": ["A", "B"], "data": [[re, im] for re, im in entries]}


_PHI = [0.5 if i in (0, 3, 12, 15) else 0.0 for i in range(16)]
_PHI_PAYLOAD = _matrix_payload([(x, 0.0) for x in _PHI])
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


_PHI_ENTRIES = [[i, j, 0.5, 0.0] for i in (0, 3) for j in (0, 3)]


@pytest.mark.parametrize("data, message", [
    ([[0, 0, True, 0.0], *_PHI_ENTRIES[1:]], "matrix JSON values must be numbers, not booleans"),
    ([[True, False] if i == 0 else [x, 0.0] for i, x in enumerate(_PHI)],
     "matrix JSON values must be numbers, not booleans"),
    ([[0, 0, 0.5, 0.0], [0.0, 3, 0.5, 0.0], *_PHI_ENTRIES[2:]],
     "matrix JSON entry indices must be integers, got float"),
    ([[True, 0, 0.5, 0.0], *_PHI_ENTRIES[1:]], "matrix JSON entry indices must be integers, got bool"),
    ([[-1, 0, 0.5, 0.0], *_PHI_ENTRIES[1:]], "matrix JSON entry indices must lie in [0, 4)"),
    ([[0, 4, 0.5, 0.0], *_PHI_ENTRIES[1:]], "matrix JSON entry indices must lie in [0, 4)"),
    ([*_PHI_ENTRIES, [3, 0, 0.0, 0.0]], "matrix JSON has entry (3, 0) twice"),
], ids=["boolean-value", "boolean-dense-pair", "float-index", "boolean-index", "negative-index",
        "index-out-of-range", "repeated-entry"])
def test_seesaw_refuses_bad_matrix_items_with_one_line(tmp_path, data, message):
    payload = {**_PHI_PAYLOAD, "data": data}
    assert _main_on_files(tmp_path, "seesaw", [payload]) == (2, [f"error: {message}"])


@pytest.mark.parametrize("dims, shown", [
    ([3037000500, 3037000500], "9223372037000250000"), ([4096, 4096], "16777216"),
    ([100000, 100000], "10000000000")])
def test_seesaw_refuses_a_huge_declared_dimension_at_once(tmp_path, dims, shown):
    # one entry declaring a huge dimension once overflowed, ran for minutes or
    # asked for 149 GiB; the cap now refuses it before any item is read
    payload = {**_PHI_PAYLOAD, "dims": dims, "data": [[0, 0, 1.0, 0.0]]}
    start = time.perf_counter()
    assert _main_on_files(tmp_path, "seesaw", [payload]) == (3, [
        f"error: matrix JSON needs dimension {shown}, above the cap 4096 "
        "(set PTBOUND_DIM_CAP to raise it)"])
    assert time.perf_counter() - start < 5.0


# sizes that are not JSON integers >= 1, each with the entry count its int()
# coercion would have made consistent (size 2 elsewhere)
_BAD_SIZES = [
    pytest.param({"nx": float("inf")}, 16, id="1e400"),
    pytest.param({"nx": -1, "ny": -1}, 4, id="negative"),
    pytest.param({"nx": 0}, 0, id="zero"),
    pytest.param({"nx": 2.9}, 16, id="float"),
    pytest.param({"ny": True}, 8, id="bool"),
    pytest.param({"nb": "2"}, 16, id="string"),
]


def _size_file_text(obj) -> str:
    # json writes inf as Infinity; spelled 1e400, as a hand-written file would, it reads the same
    return json.dumps(obj).replace("Infinity", "1e400")


@pytest.mark.parametrize("sizes, count", _BAD_SIZES)
def test_nonlocality_rejects_bad_box_sizes(capsys, tmp_path, sizes, count):
    box_file = tmp_path / "box.json"
    box_file.write_text(_size_file_text({"nx": 2, "ny": 2, "na": 2, "nb": 2, **sizes,
                                         "p": [0.25] * count}))
    code, errors = run_main_errors(capsys, "nonlocality", str(box_file))
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error: bad box JSON: n")


@pytest.mark.parametrize("sizes, count", _BAD_SIZES)
def test_seesaw_rejects_bad_functional_sizes(capsys, tmp_path, sizes, count):
    state_file = tmp_path / "phi.json"
    assert run_main(capsys, "make-state", "max-entangled", "--output", str(state_file))[0] == 0
    functional_file = tmp_path / "f.json"
    functional_file.write_text(_size_file_text({"nx": 2, "ny": 2, "na": 2, "nb": 2, **sizes,
                                                "coeffs": [1.0] * count}))
    code, errors = run_main_errors(capsys, "seesaw", str(state_file), str(functional_file),
                                   "--restarts", "2")
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error: bad functional JSON: n")


@pytest.mark.parametrize("dims", [[float("inf"), 2], [2.7, 2.2], [True, 4], ["2", "2"]],
                         ids=["1e400", "float", "bool", "string"])
def test_seesaw_rejects_bad_matrix_dims(capsys, tmp_path, dims):
    state_file = tmp_path / "state.json"
    state_file.write_text(_size_file_text({**_PHI_PAYLOAD, "dims": dims}))
    code, errors = run_main_errors(capsys, "seesaw", str(state_file), "--restarts", "2")
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error: matrix JSON dims entry")


@pytest.mark.parametrize("parties", ["AB", ["A", 7], ["A", True], {"A": 0, "B": 0}],
                         ids=["string", "integer", "boolean", "object"])
def test_seesaw_rejects_party_labels_that_are_not_strings(tmp_path, parties):
    # a string or an object would iterate as a list of labels
    code, errors = _main_on_files(tmp_path, "seesaw", [{**_PHI_PAYLOAD, "parties": parties}])
    assert code == 2
    assert errors == [f"error: matrix JSON parties must be a list of strings, got {parties!r}"]


# Fuzzed input files start valid, from a tiny scenario or state, and get up to
# two edits: a field or one list element replaced by an arbitrary JSON value,
# a list shortened, a field dropped, or the whole file replaced.
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=2),
    st.sampled_from([0, -1, 2.9, True, "2", "A", "C", float("inf"), float("nan")]))
_JSON_VALUE = st.one_of(_JSON_SCALAR, st.lists(_JSON_SCALAR, max_size=3))


@st.composite
def _edited(draw, obj: dict):
    """obj after up to two edits; a list value also stands for a malformed shape."""
    for _ in range(draw(st.integers(0, 2))):
        if not isinstance(obj, dict) or not obj:
            break
        key = draw(st.sampled_from(sorted(obj)))
        value = obj[key]
        edit = draw(st.sampled_from(["field", "element", "shorten", "drop", "whole"]))
        obj = dict(obj)
        if edit == "field":
            obj[key] = draw(_JSON_VALUE)
        elif edit == "element" and isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            obj[key] = value[:i] + [draw(_JSON_VALUE)] + value[i + 1:]
        elif edit == "shorten" and isinstance(value, list):
            obj[key] = value[:-1]
        elif edit == "drop":
            del obj[key]
        elif edit == "whole":
            obj = draw(_JSON_VALUE)
    return obj


@st.composite
def _scenario_file(draw, entries_key: str):
    """A box (entries_key "p") or functional ("coeffs") file, edited."""
    sizes = {k: draw(st.integers(1, 2)) for k in ("nx", "ny", "na", "nb")}
    block = sizes["na"] * sizes["nb"]
    count = sizes["nx"] * sizes["ny"] * block
    return draw(_edited({**sizes, entries_key: [1.0 / block] * count}))


_STATES = st.sampled_from([
    _PHI_PAYLOAD,
    {**_PHI_PAYLOAD, "data": _PHI_ENTRIES},
    {"dims": [1, 2], "parties": ["B", "A"], "data": [[0.5, 0.0], [0, 0], [0, 0], [0.5, 0.0]]},
]).flatmap(_edited)


def _main_on_files(directory: Path, command: str, payloads) -> tuple[int, list[str]]:
    """Run main on the payloads written as JSON files; return the exit code and stderr lines.

    A warning would be printed to stderr outside the test run, so it counts as a line.
    """
    paths = [directory / f"{command}-{i}.json" for i in range(len(payloads))]
    for path, payload in zip(paths, payloads):
        path.write_text(json.dumps(payload))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        restarts = ["--restarts", "1"] if command == "seesaw" else []
        code = main([command, *map(str, paths), *restarts])
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def _check_exit(code: int, errors: list[str]) -> None:
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert len(errors) == 1 and errors[0].startswith("error: "), errors


@settings(deadline=None, max_examples=60)
@given(box=_scenario_file("p"))
@example(box={"nx": 0, "ny": 2, "na": 2, "nb": 2, "p": []})
def test_nonlocality_box_reader_fuzz(tmp_path_factory, box):
    _check_exit(*_main_on_files(tmp_path_factory.getbasetemp(), "nonlocality", [box]))


@settings(deadline=None, max_examples=60)
@given(files=st.one_of(st.tuples(_STATES),  # a state alone runs the built-in CHSH
                       st.tuples(_STATES, _scenario_file("coeffs"))))
@example(files=({**_PHI_PAYLOAD, "dims": [float("inf"), 2]},))
@example(files=(_PHI_PAYLOAD, {"nx": -1, "ny": -1, "na": 2, "nb": 2, "coeffs": [1.0] * 4}))
@example(files=(_PHI_PAYLOAD, _OVERFLOWING_FUNCTIONAL))
def test_seesaw_file_readers_fuzz(tmp_path_factory, files):
    _check_exit(*_main_on_files(tmp_path_factory.getbasetemp(), "seesaw", files))


def test_make_state_hiding_reloads_bit_for_bit(capsys, tmp_path):
    state_file = tmp_path / "hiding.json"
    code, _ = run_main(capsys, "make-state", "hiding", "--m", "2", "--output", str(state_file))
    assert code == 0
    payload = json.loads(state_file.read_text())
    fam = hiding_state(m=2, d_shield=2, q=1.0 / 3.0)
    for key, expected in (("rho", fam.rho), ("sigma_candidate", fam.sigma_candidate)):
        loaded = matrix_from_json(payload[key])
        assert loaded.layout == expected.layout
        assert np.array_equal(loaded.mat.view(np.uint64), expected.mat.view(np.uint64))


@pytest.mark.parametrize("argv", [("repro", "eq8", "--d", "2", "--restarts", "1"),
                                  ("make-state", "hiding", "--m", "1")])
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


def test_repro_output_files_are_deterministic(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ("repro", "eq8", "--d", "2", "--restarts", "1", "--seed", "7")
    assert run_main(capsys, *argv, "--output", str(first))[0] == 0
    assert run_main(capsys, *argv, "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


DATA = Path(__file__).parent / "data"


# (argv, exit code) of report runs, each taken in JSON and in CSV
_REPORT_RUNS = [
    (("repro", "eq8", "--d", "2", "--restarts", "2"), 0),
    # the corner weight is past the PPT range, so the ppt row fails: exit 1
    (("repro", "prop1", "--q", "0.4", "--restarts", "2"), 1),
    (("seesaw", "{state}", "--restarts", "2"), 0),
    (("nonlocality", str(DATA / "noisy_phi_plus_chained3_box.json")), 0),
    # the optimize interval does not close on this box: exit 1
    (("nonlocality", str(DATA / "zero_entry_4input_box.json"), "--mode", "optimize"), 1),
]


@pytest.mark.parametrize("argv, expected_code", [
    *[((*argv, "--out", fmt), code) for argv, code in _REPORT_RUNS for fmt in ("json", "csv")],
    (("make-state", "hiding"), 0),
])
def test_output_file_holds_what_stdout_would(capsysbinary, tmp_path, argv, expected_code):
    state = tmp_path / "state.json"
    assert main(["make-state", "max-entangled", "--output", str(state)]) == 0
    argv = [str(state) if arg == "{state}" else arg for arg in argv]
    assert main(argv) == expected_code
    stdout = capsysbinary.readouterr().out
    assert stdout.endswith(b"\n")
    out_file = tmp_path / "report"
    assert main([*argv, "--output", str(out_file)]) == expected_code
    assert capsysbinary.readouterr().out == b""
    assert out_file.read_bytes() == stdout


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _fresh_parser_bytes(capsysbinary, argv) -> tuple[int, bytes]:
    """Exit code and stdout of main on a parser built for this call alone."""
    cli.build_parser.cache_clear()
    code = main(list(argv))
    return code, capsysbinary.readouterr().out


# consecutive calls whose flags differ: a default the call before overrode,
# another target, another command, another output format
_CALL_SEQUENCE = [
    ("repro", "eq8", "--d", "2", "--restarts", "2", "--seed", "3"),
    ("repro", "eq8", "--restarts", "2"),
    ("repro", "eq10", "--restarts", "2", "--out", "csv"),
    ("make-state", "hiding"),
    ("repro", "eq8", "--d", "2", "--restarts", "1", "--seed", "5"),
    ("repro", "eq8", "--d", "2", "--restarts", "1"),
]


def test_consecutive_calls_write_what_fresh_calls_write(capsysbinary):
    fresh = [_fresh_parser_bytes(capsysbinary, argv) for argv in _CALL_SEQUENCE]
    consecutive = []
    for argv in _CALL_SEQUENCE:
        code = main(list(argv))
        consecutive.append((code, capsysbinary.readouterr().out))
    assert consecutive == fresh
    assert [code for code, _ in fresh] == [0] * len(_CALL_SEQUENCE)


@pytest.mark.parametrize("bad", [
    ("repro", "eq8", "--sed", "7"),
    ("repro", "eq8", "--restarts", "two"),
    ("repro", "eq9"),
    ("make-state", "hiding", "--out", "csv"),
    # a target's flags come after its name
    ("repro", "--restarts", "4", "eq8"),
])
def test_a_parse_error_leaves_the_next_call_unaffected(capsysbinary, bad):
    argv = ("repro", "eq8", "--d", "2", "--restarts", "2")
    expected = _fresh_parser_bytes(capsysbinary, argv)
    assert main(list(bad)) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(b"error: ptbounds")
    code = main(list(argv))
    assert (code, capsysbinary.readouterr().out) == expected


def test_help_prints_the_usage_and_exits_zero(capsys):
    # parse errors return 2 from main; --help still ends the process with 0
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ptbounds sweep [-h] [--outdir OUTDIR]")
    assert captured.err == ""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ptbounds.cli", "repro", "eq8", "--d", "2", "--restarts", "1"],
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
    "hiding": ({"rho", "sigma_candidate"}, hiding_state(m=1, d_shield=2, q=1.0 / 3.0).params),
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


def oracle_make_state_bytes(family: str, d=2, ds=4, m=1, q=1.0 / 3.0) -> bytes:
    """make-state's output as the canonical dump with every matrix through matrix_to_json."""
    payload = {"command": "make-state", "family": family}
    for key, value in cli._FAMILIES[family][1](argparse.Namespace(d=d, ds=ds, m=m, q=q)).items():
        if value is not None:
            payload[key] = matrix_to_json(value) if isinstance(value, CMatrix) else value
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


# make-state family -> flags at non-default sizes
_FAMILY_SIZES = {
    "max-entangled": {"d": 3}, "werner-symmetric": {"d": 3}, "werner-antisymmetric": {"d": 4},
    "swap-x": {"d": 3}, "fourier-xy": {"ds": 9}, "private-bit": {"d": 3}, "ppt-pbit": {"ds": 9},
    "hiding": {"d": 3, "m": 2, "q": 0.25},
}


@pytest.mark.parametrize("sized", [False, True], ids=["default", "sized"])
@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_make_state_bytes_equal_the_matrix_to_json_dump(capsysbinary, family, sized):
    sizes = _FAMILY_SIZES[family] if sized else {}
    flags = [arg for key, value in sizes.items() for arg in (f"--{key}", str(value))]
    assert main(["make-state", family, *flags]) == 0
    assert capsysbinary.readouterr().out == oracle_make_state_bytes(family, **sizes)


# repro target -> the grid flags it reads (_FAMILY_SIZES names each make-state
# family's), and a valid value of every grid and size flag
_REPRO_GRIDS = {"eq8": {"d"}, "eq10": {"ds"}, "prop1": {"m", "q"}}
_GRID_VALUES = {"d": "2", "ds": "4", "m": "1", "q": "0.25"}
_REPRO_FLAGS = {"--restarts", "--seed", "--out", "--output"}

# every parser's prog -> its option strings but -h/--help
CLI_FLAGS = {
    "ptbounds": set(), "ptbounds repro": set(), "ptbounds make-state": set(),
    "ptbounds seesaw": {"--restarts", "--seed", "--out", "--output"},
    "ptbounds nonlocality": {"--mode", "--out", "--output"},
    **{f"ptbounds repro {target}": {f"--{key}" for key in grids} | _REPRO_FLAGS
       for target, grids in _REPRO_GRIDS.items()},
    **{f"ptbounds make-state {family}": {f"--{key}" for key in sizes} | {"--output"}
       for family, sizes in _FAMILY_SIZES.items()},
    "ptbounds sweep": {"--outdir", "--restarts", "--seed", "--out"},
}


def _flag_surface(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """prog -> option strings but -h/--help, for the parser and every subcommand under it."""
    surface = {parser.prog: {flag for action in parser._actions for flag in action.option_strings
                             if flag not in ("-h", "--help")}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                surface.update(_flag_surface(sub))
    return surface


def test_each_command_target_and_family_takes_exactly_the_pinned_flags():
    assert _flag_surface(cli.build_parser()) == CLI_FLAGS
    # 14 (choice, grid or size flag) pairs, each read by its choice
    assert sum(len(grids) for grids in (*_REPRO_GRIDS.values(), *_FAMILY_SIZES.values())) == 14


def _must_not_run(args):
    raise AssertionError("the command ran although its arguments were refused")


@pytest.mark.parametrize("argv, key", [
    *[(("repro", target, "--restarts", "1"), key)
      for target, grids in _REPRO_GRIDS.items() for key in _GRID_VALUES if key not in grids],
    *[(("make-state", family), key)
      for family, sizes in _FAMILY_SIZES.items() for key in _GRID_VALUES if key not in sizes],
], ids=lambda value: value[1] if isinstance(value, tuple) else value)
def test_unread_grid_and_size_flags_exit_two_before_the_command_runs(
        capsys, tmp_path, monkeypatch, argv, key):
    monkeypatch.setattr(cli, f"cmd_{argv[0].replace('-', '_')}", _must_not_run)
    out_file = tmp_path / "out.json"
    flag = (f"--{key}", _GRID_VALUES[key])
    code, captured = run_captured(capsys, *argv, *flag, "--output", str(out_file))
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: ptbounds: unrecognized arguments: " + " ".join(flag)]
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["repro", "nonlocality", "make-state"])
@pytest.mark.parametrize("output, message", [
    ("no/such/dir/x.json", "no directory"),
    (".", "is a directory"),
    ("x.json", "is not writable"),
    ("", "needs a path"),
], ids=["missing-directory", "directory", "not-writable", "empty"])
def test_unwritable_output_exits_two_before_the_command_runs(
        capsys, tmp_path, monkeypatch, command, output, message):
    argv = _command_argv(tmp_path, command)
    monkeypatch.chdir(tmp_path)
    if message == "is not writable":  # permissions do not bind every user, so deny access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}", _must_not_run)
    code, captured = run_captured(capsys, *argv, "--output", output)
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: --output ") and message in captured.err


def test_output_file_is_written_only_after_the_command_succeeds(capsys, tmp_path):
    box_file = tmp_path / "box.json"
    box_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": [0.5] * 16}))
    out_file = tmp_path / "report.json"
    code, _ = run_main(capsys, "nonlocality", str(box_file), "--output", str(out_file))
    assert code == 2
    assert not out_file.exists()


def _command_argv(tmp_path, command: str) -> list[str]:
    """A valid invocation of the command, its input files written to tmp_path."""
    state_file = tmp_path / "phi.json"
    state_file.write_text(json.dumps(_PHI_PAYLOAD))
    box_file = tmp_path / "box.json"
    box_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": [0.25] * 16}))
    return {
        "repro": ["repro", "eq8", "--d", "2", "--restarts", "1"],
        "seesaw": ["seesaw", str(state_file)],
        "nonlocality": ["nonlocality", str(box_file)],
        "make-state": ["make-state", "max-entangled"],
    }[command]


@pytest.mark.parametrize("command, flag", [("repro", "--restarts"), ("seesaw", "--restarts")])
def test_restarts_and_tol_are_checked_on_every_command(capsys, tmp_path, command, flag):
    """On every command that takes --restarts; no command takes a tolerance."""
    code, errors = run_main_errors(capsys, *_command_argv(tmp_path, command), flag, "0")
    assert code == 2
    assert errors == ["error: restarts must be at least 1"]


@pytest.mark.parametrize("command", ["repro", "seesaw"])
def test_negative_seed_exits_two(capsys, tmp_path, command):
    # numpy's generators refuse a negative seed with a ValueError traceback
    code, errors = run_main_errors(capsys, *_command_argv(tmp_path, command), "--seed", "-1")
    assert code == 2
    assert errors == ["error: seed must be non-negative"]


@pytest.mark.parametrize("command, flag", [
    ("make-state", "--restarts"), ("make-state", "--seed"), ("make-state", "--tol"),
    ("seesaw", "--tol"), ("nonlocality", "--tol"), ("repro", "--tol"),
    ("nonlocality", "--restarts"), ("nonlocality", "--seed"),
])
def test_removed_flags_exit_two(capsys, tmp_path, command, flag):
    # commands that do not read a flag do not take it; no repro target takes --tol
    argvs = ([("repro", target, "--restarts", "1") for target in _REPRO_GRIDS]
             if command == "repro" else [_command_argv(tmp_path, command)])
    for argv in argvs:
        code, captured = run_captured(capsys, *argv, flag, "1")
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: ptbounds: unrecognized arguments: {flag} 1"]


@pytest.mark.parametrize("argv, message", [
    (("repro", "eq13"), "error: ptbounds repro: argument target: invalid choice: 'eq13'"),
    (("repro", "eq8", "--eps", "0.1"), "error: ptbounds: unrecognized arguments: --eps 0.1"),
], ids=["eq13", "eps"])
def test_retired_target_and_flag_exit_two(capsys, argv, message):
    # repro has no eq13 target and no --eps flag
    code, captured = run_captured(capsys, *argv)
    assert code == 2
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(message)


def test_no_flag_passes_a_failing_verdict(capsys, tmp_path, monkeypatch):
    # the prop1 m=2, q=0.2 delta row fails (0.346 > 0.25), and no --tol can
    # pass it: the flag exits 2 before the command runs or --output is written
    argv = ("repro", "prop1", "--m", "2", "--q", "0.2", "--restarts", "1")
    code, out = run_main(capsys, *argv)
    assert code == 1
    verdicts = {rep["context"]: rep["verdict"] for rep in json.loads(out)["reports"]}
    assert verdicts["prop1 m=2 delta"] is False
    monkeypatch.setattr(cli, "cmd_repro", _must_not_run)
    out_file = tmp_path / "out.json"
    code, captured = run_captured(capsys, *argv, "--tol", "1", "--output", str(out_file))
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: ptbounds: unrecognized arguments: --tol 1"]
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["seesaw", "nonlocality"])
def test_non_utf8_input_file_exits_two(capsys, tmp_path, command):
    argv = _command_argv(tmp_path, command)
    path = Path(argv[1])
    path.write_bytes(b"\xff" + path.read_bytes())
    code, errors = run_main_errors(capsys, *argv)
    assert code == 2
    assert errors == [f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                      "invalid start byte"]


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ('{"nx": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits) for integer string"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["malformed", "not-utf8", "long-int", "deep"])
@pytest.mark.parametrize("command", ["seesaw", "nonlocality"])
def test_unreadable_input_files_are_named(capsys, tmp_path, command, text, message):
    # seesaw reads two files, so its bad one is the functional file
    argv = _command_argv(tmp_path, command)
    if command == "seesaw":
        argv.append(str(tmp_path / "f.json"))
    path = Path(argv[-1])
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, errors = run_main_errors(capsys, *argv)
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith(f"error: {path}: {message}"), errors


@pytest.mark.parametrize("argv, message", [
    (["make-state", "max-entangled", "--d", ","],
     "error: ptbounds make-state max-entangled: argument --d: invalid int value: ','"),
    (["repro", "eq8", "--d", ","], "error: expected comma-separated integers, got ','"),
    (["repro", "eq10", "--ds", ","], "error: expected comma-separated integers, got ','"),
], ids=["make-state-d", "eq8-d", "eq10-ds"])
def test_empty_grids_exit_two(capsys, argv, message):
    code, captured = run_captured(capsys, *argv)
    assert code == 2
    # a parse error is one line too, with no usage block
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["uniform", "optimize"])
def test_nonlocality_reports_the_final_gap(capsys, tmp_path, mode):
    box_file = tmp_path / "box.json"
    box_file.write_text(json.dumps({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": [0.25] * 16}))
    argv = ["nonlocality", str(box_file), "--mode", mode]
    code, out = run_main(capsys, *argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["converged"] == (result["upper"] - (result["value"] - result["gap"]) <= 1e-7)
    code, out = run_main(capsys, *argv, "--out", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [
        f"value,{result['value']!r}",
        f"converged,{result['converged']}",
        f"iterations,{result['iterations']}",
        f"gap,{result['gap']!r}",
        f"upper,{result['upper']!r}",
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


ROOT = Path(__file__).resolve().parents[1]


def run_child(cwd: Path, *argv: str, timeout: float = 120,
              **env: str) -> subprocess.CompletedProcess:
    """``python argv`` in a child process from ``cwd``, with src on its path and ``env`` set."""
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_sweep_script_checks_its_flags_before_creating_the_outdir(capsys, tmp_path,
                                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, captured = run_captured(capsys, "sweep", "--outdir", "r2", "--sed", "7")
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: ptbounds: unrecognized arguments: --sed 7"]
    assert not (tmp_path / "r2").exists()


@pytest.mark.parametrize("key", [*sorted(_GRID_VALUES), "tol"])
def test_sweep_script_takes_no_grid_flags(capsys, tmp_path, monkeypatch, key):
    # each target runs its default grid, and no flag loosens a verdict
    monkeypatch.chdir(tmp_path)
    value = _GRID_VALUES.get(key, "1")
    code, captured = run_captured(capsys, "sweep", "--outdir", "r3", f"--{key}", value)
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: ptbounds: unrecognized arguments: --{key} {value}"]
    assert not (tmp_path / "r3").exists()


def test_sweep_script_names_each_report_after_its_format(capsysbinary, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--outdir", "r", "--restarts", "1", "--out", "csv"]) == 0
    assert capsysbinary.readouterr().out == b"target,exit\neq8,0\neq10,0\nprop1,0\n"
    assert sorted(path.name for path in (tmp_path / "r").iterdir()) == [
        "eq10.csv", "eq8.csv", "prop1.csv"]
    for target in _REPRO_GRIDS:
        assert main(["repro", target, "--restarts", "1", "--out", "csv"]) == 0
        assert (tmp_path / "r" / f"{target}.csv").read_bytes() == capsysbinary.readouterr().out


@pytest.mark.parametrize("outdir, reason", [("taken", "File exists"),
                                            ("taken/sub", "Not a directory"),
                                            ("", "empty path")])
def test_sweep_script_refuses_an_outdir_it_cannot_create(capsys, tmp_path, monkeypatch,
                                                        outdir, reason):
    # a file at the path, or on the way to it, or no path at all (which would
    # be the current directory): one error line, before any target runs
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "cmd_repro", _must_not_run)
    (tmp_path / "taken").write_text("")
    code, captured = run_captured(capsys, "sweep", "--outdir", outdir, "--restarts", "1")
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot create --outdir {outdir}: {reason}"]


def test_sweep_checks_restarts_once_before_creating_the_outdir(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, captured = run_captured(capsys, "sweep", "--restarts", "0")
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: restarts must be at least 1"]
    assert list(tmp_path.iterdir()) == []


def test_sweep_exits_with_the_worst_target_code(capsys, tmp_path, monkeypatch):
    # each target is over a cap of 32 and writes its own error line; the sweep
    # goes on to the next and reports every exit code
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PTBOUND_DIM_CAP", "32")
    code, captured = run_captured(capsys, "sweep", "--restarts", "1")
    assert code == 3
    assert json.loads(captured.out) == {"command": "sweep", "outdir": "results",
                                        "exit_codes": {"eq8": 3, "eq10": 3, "prop1": 3}}
    errors = captured.err.splitlines()
    assert len(errors) == 3 and all("above the cap 32" in line for line in errors)
    assert list((tmp_path / "results").iterdir()) == []
