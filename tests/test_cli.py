"""Model files, report serialization, subcommands and exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cho import (
    AnalysisRequest,
    OscillatorModel,
    ParseError,
    ValidationError,
    build_T,
    build_V,
    parse_model_file,
    run_analysis,
)
from cho.cli import dumps_json, main, parse_model_dict, report_to_dict

DATA = Path(__file__).parent / "data"


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- parsing -------------------------------------------------------------------


def test_parse_identical_triple_example():
    m = parse_model_file(str(DATA / "identical_triple.json"))
    assert m.n == 3
    assert np.allclose(m.masses, 1.0)
    assert np.allclose(m.stiffness_diag, 1.0)
    assert m.couplings == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}


def test_parse_pair_shorthand_example():
    m = parse_model_file(str(DATA / "two_coupled.json"))
    assert np.allclose(m.masses, [1.0, 2.0])
    assert np.allclose(m.stiffness_diag, [3.0, 2.0])
    assert m.couplings == {(0, 1): 1.0}


def test_parse_rejects_nonpositive_mass(tmp_path):
    path = write_model(tmp_path, {"masses": [0, 1]})
    with pytest.raises(ValidationError) as err:
        parse_model_file(path)
    assert "masses[0] must be > 0" in str(err.value)


def test_parse_syntax_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"masses": [1, 2\n}')
    with pytest.raises(ParseError) as err:
        parse_model_file(str(path))
    assert "line" in str(err.value) and "column" in str(err.value)


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_model_file("does-not-exist.json")


def test_parse_unknown_keys_rejected():
    with pytest.raises(ParseError) as err:
        parse_model_dict({"masses": [1.0], "omega": [1.0]})
    assert "omega" in str(err.value)


def test_parse_requires_exactly_one_stiffness_spec():
    with pytest.raises(ValidationError):
        parse_model_dict({"masses": [1.0], "omegas": [1.0], "stiffness_diag": [1.0]})


def test_parse_rejects_c_with_couplings():
    with pytest.raises(ValidationError):
        parse_model_dict(
            {"masses": [1, 2], "c": [3, 2, 1], "couplings": [[1, 2, 0.5]]}
        )


def test_parse_c_needs_two_masses_and_three_entries():
    with pytest.raises(ValidationError):
        parse_model_dict({"masses": [1, 1, 1], "c": [1, 1, 1]})
    with pytest.raises(ValidationError):
        parse_model_dict({"masses": [1, 1], "c": [1, 1]})


def test_parse_couplings_are_one_based():
    with pytest.raises(ValidationError) as err:
        parse_model_dict(
            {"masses": [1, 1], "omegas": [1, 1], "couplings": [[0, 1, 0.5]]}
        )
    assert "1-based" in str(err.value)


def test_parse_duplicate_coupling_rejected():
    with pytest.raises(ValidationError) as err:
        parse_model_dict(
            {
                "masses": [1, 1],
                "omegas": [1, 1],
                "couplings": [[1, 2, 0.5], [2, 1, 0.7]],
            }
        )
    assert "duplicate" in str(err.value)


def test_parse_malformed_coupling_triplet():
    with pytest.raises(ParseError):
        parse_model_dict(
            {"masses": [1, 1], "omegas": [1, 1], "couplings": [[1, 2]]}
        )
    with pytest.raises(ParseError):
        parse_model_dict(
            {"masses": [1, 1], "omegas": [1, 1], "couplings": [[1.5, 2, 0.1]]}
        )


def test_parse_kinetic_matrix():
    m = parse_model_dict(
        {
            "masses": [1, 1],
            "stiffness_diag": [1, 1],
            "kinetic": [[1.0, 0.2], [0.2, 1.0]],
        }
    )
    assert m.kinetic_override is not None
    assert build_T(m).mat[0, 1] == 0.2


def test_parse_omegas_length_mismatch():
    with pytest.raises(ValidationError):
        parse_model_dict({"masses": [1, 1], "omegas": [1.0]})


# --- serialization ---------------------------------------------------------------


def test_dumps_json_floats_survive_round_trip():
    values = [1 / 3, np.pi, 1e-300, 6.02e23, -0.1, 2.0]
    parsed = json.loads(dumps_json({"x": values}))
    assert parsed["x"] == values  # 17 significant digits are lossless


def test_report_model_block_round_trips_bit_exact():
    rng = np.random.default_rng(60)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        model = OscillatorModel(
            masses=rng.uniform(0.1, 10.0, size=n),
            stiffness_diag=rng.uniform(-2.0, 5.0, size=n),
            couplings={
                (i, j): float(rng.normal())
                for i in range(n)
                for j in range(i + 1, n)
                if rng.uniform() < 0.7
            },
            hbar=float(rng.uniform(0.5, 2.0)),
        )
        report = run_analysis(AnalysisRequest(model=model, levels=0))
        doc = json.loads(dumps_json(report_to_dict(report)))
        back = parse_model_dict(doc["model"])
        assert np.array_equal(build_T(back).mat, build_T(model).mat)
        assert np.array_equal(build_V(back).mat, build_V(model).mat)
        assert back.hbar == model.hbar


def test_json_report_structure():
    model = parse_model_file(str(DATA / "identical_triple.json"))
    report = run_analysis(AnalysisRequest(model=model))
    doc = json.loads(dumps_json(report_to_dict(report)))
    assert list(doc) == [
        "model", "matrices", "modes", "bound_state", "spectrum", "warnings",
    ]
    assert doc["matrices"]["S"][0][1] == 0.5
    assert doc["bound_state"]["verdict"] == "Bound"
    assert doc["modes"]["frequencies"][2] == pytest.approx(np.sqrt(2.0))
    assert doc["spectrum"]["levels"][0]["occupations"] == [0, 0, 0]


def test_unbound_json_report_has_no_spectrum(tmp_path):
    path = write_model(
        tmp_path,
        {"masses": [1, 1, 1], "omegas": [1, 1, 1],
         "couplings": [[1, 2, 3.0], [1, 3, 3.0], [2, 3, 3.0]]},
    )
    report = run_analysis(AnalysisRequest(model=parse_model_file(path)))
    doc = json.loads(dumps_json(report_to_dict(report)))
    assert "spectrum" not in doc
    assert any("minor" in w for w in doc["warnings"])
    # negative lambdas have no real frequency
    assert doc["modes"]["frequencies"][0] is None


# --- commands and exit codes -----------------------------------------------------


def test_analyze_exit_codes(tmp_path, capsys):
    bound = str(DATA / "identical_triple.json")
    unbound = write_model(
        tmp_path,
        {"masses": [1, 1, 1], "omegas": [1, 1, 1],
         "couplings": [[1, 2, 3.0], [1, 3, 3.0], [2, 3, 3.0]]},
        "unbound.json",
    )
    marginal = write_model(
        tmp_path, {"masses": [1, 1], "c": [1, 1, 2]}, "marginal.json"
    )
    assert main(["analyze", bound]) == 0
    assert main(["check", unbound]) == 1
    assert main(["check", marginal]) == 2
    capsys.readouterr()


def test_check_prints_verdict_only(capsys):
    code = main(["check", str(DATA / "identical_triple.json")])
    assert code == 0
    assert capsys.readouterr().out == "Bound\n"


def test_errors_exit_3(tmp_path, capsys):
    bad = write_model(tmp_path, {"masses": [0, 1]}, "bad.json")
    assert main(["check", bad]) == 3
    assert main(["check", str(tmp_path / "absent.json")]) == 3
    err = capsys.readouterr().err
    assert "masses[0] must be > 0" in err


def test_unbound_analyze_warns_with_failing_minor(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"masses": [1, 1, 1], "omegas": [1, 1, 1],
         "couplings": [[1, 2, 3.0], [1, 3, 3.0], [2, 3, 3.0]]},
    )
    assert main(["analyze", path]) == 1
    out = capsys.readouterr().out
    assert "WARNINGS" in out
    assert "k=2" in out
    assert "SPECTRUM" not in out


def test_levels_zero_suppresses_spectrum(capsys):
    assert main(["analyze", str(DATA / "identical_triple.json"), "--levels", "0"]) == 0
    assert "SPECTRUM" not in capsys.readouterr().out


def test_mass_norm_flag_accepts_number(capsys):
    code = main(
        ["analyze", str(DATA / "two_coupled.json"), "--mass-norm", "2.5",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["modes"]["mass_normalized"]["m_ref"] == 2.5


def test_bad_mass_norm_flag_exits_3(capsys):
    assert main(
        ["analyze", str(DATA / "two_coupled.json"), "--mass-norm", "heavy"]
    ) == 3
    capsys.readouterr()


def test_sweep_text_window(capsys):
    code = main(
        ["sweep", str(DATA / "identical_triple.json"),
         "--param", "D:1,2", "--from", "-2", "--to", "3", "--steps", "11"]
    )
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    verdicts = [row.split()[1] for row in rows]
    assert verdicts == [
        "Unbound", "Unbound", "Marginal", "Bound", "Bound", "Bound",
        "Bound", "Bound", "Marginal", "Unbound", "Unbound",
    ]


def test_sweep_json(capsys):
    code = main(
        ["sweep", str(DATA / "two_coupled.json"),
         "--param", "D:1,2", "--from", "0", "--to", "1", "--steps", "3",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["param"] == [1, 2]
    assert [s["value"] for s in doc["steps"]] == [0.0, 0.5, 1.0]
    assert all(len(s["lambdas"]) == 2 for s in doc["steps"])


def test_sweep_rejects_bad_param(capsys):
    base = str(DATA / "two_coupled.json")
    for param in ("D:1,1", "D:0,1", "X:1,2", "D:1"):
        assert main(
            ["sweep", base, "--param", param,
             "--from", "0", "--to", "1", "--steps", "2"]
        ) == 3
    assert main(
        ["sweep", base, "--param", "D:1,3",
         "--from", "0", "--to", "1", "--steps", "2"]
    ) == 3
    capsys.readouterr()


def test_sweep_accepts_negative_bounds_in_exponent_form(capsys):
    base = ["sweep", str(DATA / "two_coupled.json"), "--param", "D:1,2",
            "--steps", "3", "--format", "json"]
    for start, stop in (("-2.6e-06", "1e-3"), ("-3E+1", "-1.5e-1"), ("-.5e1", "-1.")):
        assert main(base + ["--from", start, "--to", stop]) == 0
        spaced = capsys.readouterr().out
        assert main(base + [f"--from={start}", f"--to={stop}"]) == 0
        assert spaced == capsys.readouterr().out
        doc = json.loads(spaced)
        assert (doc["from"], doc["to"]) == (float(start), float(stop))


def test_extreme_masses_exit_3_with_error_line(tmp_path, capsys):
    # S spans 1e-300..1e300: the eigensolver squares entries past the float
    # range and must still hand over to the usual checks, not raise
    for extra in ({}, {"couplings": [[1, 2, 0.5]]}):
        path = write_model(
            tmp_path, {"masses": [1e300, 1e-300], "stiffness_diag": [1, 1], **extra}
        )
        assert main(["analyze", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


# --- golden reports ---------------------------------------------------------------


def mask_residuals(text: str) -> str:
    return re.sub(r"\d\.\d{3}e-\d{2}", "RESIDUAL", text)


@pytest.mark.parametrize(
    "model_file,golden,args",
    [
        ("two_coupled.json", "two_coupled_report.txt", ["--levels", "5"]),
        (
            "identical_triple.json",
            "identical_triple_report.txt",
            ["--levels", "4", "--mass-norm", "geometric"],
        ),
    ],
)
def test_golden_text_reports(model_file, golden, args, capsys):
    code = main(["analyze", str(DATA / model_file), *args])
    assert code == 0
    got = capsys.readouterr().out
    want = (DATA / golden).read_text()
    assert mask_residuals(got) == mask_residuals(want)


# --- request validation and module entry point ------------------------------------


def test_analysis_request_rejects_bad_fields():
    model = OscillatorModel.identical(2, d=0.5)
    with pytest.raises(ValueError):
        AnalysisRequest(model=model, levels=-1)
    with pytest.raises(ValueError):
        AnalysisRequest(model=model, mass_norm="harmonic")
    with pytest.raises(ValueError):
        AnalysisRequest(model=model, mass_norm=-2.0)
    with pytest.raises(ValueError):
        AnalysisRequest(model=model, output_format="xml")
    with pytest.raises(ValueError):
        AnalysisRequest(model=model, tolerance_override=0.0)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cho", "check", str(DATA / "identical_triple.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Bound"
