"""Model files, report serialization, subcommands and exit codes."""

import json
import math
import re
import subprocess
import sys
from collections import Counter
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
    decompose_mass_normalized,
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


@pytest.mark.parametrize("index", ["1e400", "NaN"])
def test_parse_nonfinite_coupling_index_exits_3(tmp_path, capsys, index):
    # json reads 1e400 as inf and NaN as nan, neither of which int() converts
    path = tmp_path / "model.json"
    path.write_text('{"masses": [1, 1], "omegas": [1, 1], '
                    f'"couplings": [[{index}, 2, 0.5]]}}')
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == "error: couplings[0]: indices must be integers\n"


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


@pytest.mark.filterwarnings("error")
def test_parse_names_omega_whose_stiffness_overflows(tmp_path, capsys):
    path = write_model(tmp_path, {"masses": [1, 1], "omegas": [1e200, 1]})
    assert main(["check", path]) == 3
    assert capsys.readouterr().err == (
        "error: invalid model: omegas[0] = 1e+200: m*w^2 must be finite\n"
    )


def test_parse_lists_file_violations_before_model_violations(tmp_path, capsys):
    path = write_model(tmp_path, {"masses": [0, 1, 1], "omegas": [1, 1],
                                  "couplings": [[1, 1, 2.0], [0, 2, 1.0]], "hbar": -1})
    assert main(["check", path]) == 3
    assert capsys.readouterr().err == (
        'error: invalid model: "omegas" must match "masses" in length; '
        "couplings[1]: indices are 1-based, got (0, 2); masses[0] must be > 0; "
        "coupling (0, 0): self-coupling forbidden; hbar must be > 0\n"
    )


# --- serialization ---------------------------------------------------------------


def test_dumps_json_floats_survive_round_trip():
    values = [1 / 3, np.pi, 1e-300, 6.02e23, -0.1, 2.0]
    parsed = json.loads(dumps_json({"x": values}))
    assert parsed["x"] == values  # 17 significant digits are lossless


def reference_dumps_json(obj, indent: int = 0) -> str:
    """The serializer as first written: one recursive call and one
    isinstance ladder per value."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + reference_dumps_json(x, indent + 2) for x in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(key)) + ": " + reference_dumps_json(value, indent + 2)
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


DEMO_MODELS = Path(__file__).parent.parent / "demos" / "models"
MODEL_FILES = sorted(DEMO_MODELS.glob("*.json")) + sorted(DATA.glob("*.json"))


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_dumps_json_matches_reference_on_reports(path):
    model = parse_model_file(str(path))
    report = run_analysis(AnalysisRequest(model=model, levels=200, mass_norm="geometric"))
    doc = report_to_dict(report)
    assert dumps_json(doc) == reference_dumps_json(doc)


def test_dumps_json_matches_reference_on_mixed_values():
    doc = {
        "np": [np.float64(1 / 3), np.int64(-7), np.bool_(True), np.bool_(False),
               np.float32(0.1), np.arange(3), np.eye(2)],
        "plain": [True, False, None, "t\u00e9xt \"q\"\n", 0, -12, 2.5, 1e-300, -0.0],
        "tuples": (1, (2.0, "x"), ()),
        "empty": [[], {}, ()],
        "nested": [[1, 2, [3, [4, 5]]], [[[]]], {"k": [6, {"j": [7.0]}]}],
        7: {"bool-key": {True: None}},
    }
    assert dumps_json(doc) == reference_dumps_json(doc)
    assert dumps_json(doc, indent=4) == reference_dumps_json(doc, indent=4)
    for leaf in (np.float64(2.0), np.int64(3), np.bool_(True), True, 4, 4.5, None, "s"):
        assert dumps_json(leaf) == reference_dumps_json(leaf)
    for non_finite in (math.nan, math.inf, np.float64(-math.inf), [1.0, math.nan]):
        assert dumps_json(non_finite) == reference_dumps_json(non_finite)
    assert json.loads(dumps_json([1.0, math.nan, -math.inf])) == [1.0, None, None]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds,named", [
    (["--from", "0", "--to", "inf"], "--from 0.0 --to inf"),
    (["--from=-inf", "--to", "0"], "--from -inf --to 0.0"),
    (["--from", "nan", "--to", "1"], "--from nan --to 1.0"),
    (["--from", "1e308", "--to", "-1e308"], "--from 1e+308 --to -1e+308"),
], ids=["to-inf", "from-minus-inf", "from-nan", "overflowing-width"])
def test_sweep_rejects_unusable_ranges(capsys, bounds, named):
    argv = ["sweep", str(DATA / "two_coupled.json"), "--param", "D:1,2", "--steps", "3"]
    assert main(argv + bounds) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {named}: the range must be finite and no wider "
                            "than the largest float\n")


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


OVERFLOW_MODEL = {"masses": [1e300, 1e-300], "stiffness_diag": [1, 1]}
SWEEP_ARGS = ["--param", "D:1,2", "--from", "0", "--to", "1", "--steps", "3"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,extra", [
    ("analyze", []), ("check", []), ("sweep", SWEEP_ARGS),
], ids=["analyze", "check", "sweep"])
def test_overflowing_model_exits_3_naming_the_overflow(tmp_path, capsys, command, extra):
    # max|S| = 1e300, so max|S|^2 (the margin of the second minor) overflows
    path = write_model(tmp_path, OVERFLOW_MODEL)
    assert main([command, path, *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "max|S|^2 overflows" in lines[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,extra", [
    ("analyze", []), ("check", []), ("sweep", SWEEP_ARGS),
], ids=["analyze", "check", "sweep"])
def test_S_overflowing_to_inf_exits_3_naming_the_overflow(tmp_path, capsys, command, extra):
    # T^(1/2) = diag(1e150, 1), so S[0, 0] = 1e150 * 1e10 * 1e150 is past the float range
    path = write_model(tmp_path, {"masses": [1e-300, 1], "stiffness_diag": [1e10, 1]})
    assert main([command, path, *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "S = T^(1/2) V T^(1/2) overflows" in lines[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc,command,lambdas", [
    # n = 1 with S = 1e200: the eigensolver's stop test squares the diagonal
    ({"masses": [1e-200], "stiffness_diag": [1]}, "analyze", [1e200]),
    ({"masses": [1e-200], "stiffness_diag": [1]}, "check", None),
    # m2*C1 - m1*C2 = -2e200, whose square the N=2 closed form takes
    ({"masses": [1e100, 1e100], "stiffness_diag": [1e100, 3e100]}, "check", None),
], ids=["n1-analyze", "n1-check", "n2-check"])
def test_large_scales_finish_without_numpy_warnings(tmp_path, capsys, doc, command, lambdas):
    path = write_model(tmp_path, doc)
    args = ["--format", "json", "--levels", "3"] if command == "analyze" else []
    assert main([command, path, *args]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if lambdas is None:
        assert captured.out == "Bound\n"
    else:
        assert json.loads(captured.out)["modes"]["lambdas"] == lambdas


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc,code", [
    # det C = 1e-24 fell under the absolute singularity bound of the
    # Gauss-Jordan inverse that the kinetic residual used to take
    ({"masses": [1e3] * 16, "omegas": [1.0] * 16}, 0),
    # T of condition 2e12, where the inverse of C gave a residual of 5.4e-06;
    # S = T is positive definite, but its second minor 2e-12 lies in the
    # dead zone of the minor margin, so the verdict is Marginal
    ({"masses": [1, 1], "stiffness_diag": [1, 1],
      "kinetic": [[1, 1 - 1e-12], [1 - 1e-12, 1]]}, 2),
], ids=["heavy-n16", "ill-conditioned-kinetic"])
def test_kinetic_residual_takes_no_inverse(tmp_path, capsys, doc, code):
    path = write_model(tmp_path, doc)
    assert main(["analyze", path, "--format", "json"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["modes"]["residuals"]["kinetic"] < 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,extra", [
    ("analyze", ["--format", "json"]), ("check", []),
    ("sweep", [*SWEEP_ARGS, "--format", "json"]),
], ids=["analyze", "check", "sweep"])
def test_polynomial_conditions_beyond_the_float_range(tmp_path, capsys, command, extra):
    # S = [[1, 0.5], [0.5, 3]] is bound, but 4 C1 C2 - C3^2 is about 1e400
    path = write_model(tmp_path, {"masses": [1e200, 1e200],
                                  "stiffness_diag": [1e200, 3e200],
                                  "couplings": [[1, 2, 1e200]]})
    assert main([command, path, *extra]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "check":
        assert captured.out == "Bound\n"
    elif command == "sweep":
        assert {step["verdict"] for step in json.loads(captured.out)["steps"]} == {"Bound"}
    else:
        bound = json.loads(captured.out)["bound_state"]
        assert bound["verdict"] == "Bound"
        assert all(check["passed"] for check in bound["closed_form_checks"])
        pair = next(c for c in bound["closed_form_checks"] if c["name"] == "pair_condition")
        assert pair["value"] == pytest.approx(11.0, rel=1e-12)  # 4 * minor_2 = 4 * 2.75


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc,names", [
    # S = [[1, .5, 0], [.5, 3, .5], [0, .5, 2]]: D_ij^2 and m_i m_j overflow in
    # the cubic coefficients
    ({"masses": [1e200, 1e200, 1e200], "stiffness_diag": [1e200, 3e200, 2e200],
      "couplings": [[1, 2, 1e200], [2, 3, 1e200]]},
     ["charpoly_pair_sum", "charpoly_det", "discriminant_nonnegative"]),
    # S = [[1, .35], [.35, 1.5]]: (m2 C1 - m1 C2)^2 = 1e-524 underflows to 0
    ({"masses": [1e-131, 2e-131], "stiffness_diag": [1e-131, 3e-131],
      "couplings": [[1, 2, 1e-131]]},
     ["closed_eigenvalue_low", "closed_eigenvalue_high"]),
    # 4 m1 m2 m3 is subnormal, and so is the triple condition in model units
    ({"masses": [1e-107, 2e-107, 3e-107], "stiffness_diag": [1e-107, 3e-107, 2e-107],
      "couplings": [[1, 2, 1e-107], [1, 3, 0.5e-107], [2, 3, 1e-107]]},
     ["triple_condition", "charpoly_det", "discriminant_nonnegative"]),
], ids=["n3-heavy", "n2-light", "n3-light"])
def test_closed_forms_in_extreme_units(tmp_path, capsys, doc, names):
    path = write_model(tmp_path, doc)
    assert main(["analyze", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "MISMATCH" not in captured.out and not re.search(r"\bnan\b", captured.out)
    assert main(["analyze", path, "--format", "json"]) == 0
    bound = json.loads(capsys.readouterr().out)["bound_state"]
    checks = {c["name"]: c for c in bound["closed_form_checks"]}
    assert all(c["passed"] for c in checks.values())
    for name in names:
        assert checks[name]["value"] == pytest.approx(checks[name]["reference"], rel=1e-10)


@pytest.mark.filterwarnings("error")
def test_discriminant_past_the_float_range(tmp_path, capsys):
    # the eigenvalues are about 1e60, so the discriminant is about 1e360
    path = write_model(tmp_path, {"masses": [1, 1, 1], "stiffness_diag": [1e60, 3e60, 2e60],
                                  "couplings": [[1, 2, 1e60], [2, 3, 1e60]]})
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "  discriminant  inf\n" in out and "MISMATCH" not in out
    assert main(["analyze", path, "--format", "json"]) == 0
    bound = json.loads(capsys.readouterr().out)["bound_state"]
    assert bound["discriminant"] is None
    checks = {c["name"]: c for c in bound["closed_form_checks"]}
    assert all(c["passed"] for c in checks.values())
    assert checks["discriminant_nonnegative"]["value"] is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,extra", [
    ("analyze", []), ("check", []), ("sweep", SWEEP_ARGS),
], ids=["analyze", "check", "sweep"])
def test_mass_with_overflowing_reciprocal_exits_3_naming_it(tmp_path, capsys, command, extra):
    path = write_model(tmp_path, {"masses": [1e-320, 1], "stiffness_diag": [1, 1]})
    assert main([command, path, *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid model: masses[0] = 1e-320 is too small: 1/m overflows\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,extra", [
    ("analyze", []), ("check", []), ("sweep", SWEEP_ARGS),
], ids=["analyze", "check", "sweep"])
def test_kinetic_not_positive_definite_exits_3_naming_it(tmp_path, capsys, command, extra):
    path = write_model(tmp_path, {"masses": [1, 1], "stiffness_diag": [1, 1],
                                  "kinetic": [[1, 2], [2, 1]]})
    assert main([command, path, *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "kinetic" in lines[0]


@pytest.mark.parametrize("m_ref", ["1e-20", "1e300"])
def test_explicit_reference_mass_of_any_size(m_ref, capsys):
    code = main(["analyze", str(DATA / "identical_triple.json"), "--mass-norm", m_ref,
                 "--format", "json"])
    assert code == 0
    modes = json.loads(capsys.readouterr().out)["modes"]
    block = modes["mass_normalized"]
    assert block["m_ref"] == float(m_ref)
    lambdas = np.asarray(modes["lambdas"])
    assert np.allclose(block["k"], float(m_ref) * lambdas, rtol=1e-12, atol=0.0)
    assert np.allclose(block["lambdas"], lambdas, rtol=1e-12, atol=0.0)


def test_mass_normalized_report_block_equals_library_call():
    model = parse_model_file(str(DATA / "identical_triple.json"))
    block = run_analysis(AnalysisRequest(model=model, mass_norm="geometric")).mass_normalized
    direct = decompose_mass_normalized(model)
    assert block.m_ref == direct.m_ref
    for name in ("k", "c", "lambdas"):
        assert np.array_equal(getattr(block, name), getattr(direct, name))


# --- one analysis pass per model ----------------------------------------------------

COUNTED = [("linalg", "jacobi_eigh"), ("model", "validate")]


@pytest.fixture
def calls(monkeypatch):
    """Count calls of COUNTED wherever a cho module binds the function."""
    counts = Counter()
    modules = [m for key, m in list(sys.modules.items())
               if key == "cho" or key.startswith("cho.")]
    for home, name in COUNTED:
        original = getattr(sys.modules[f"cho.{home}"], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


TRIPLE = str(DATA / "identical_triple.json")


@pytest.mark.parametrize("argv,jacobi,validate", [
    (["analyze", TRIPLE], 1, 1),
    (["analyze", TRIPLE, "--mass-norm", "geometric"], 1, 1),
    (["check", TRIPLE], 1, 1),
    (["sweep", TRIPLE, "--param", "D:1,2", "--from", "0", "--to", "1", "--steps", "5"],
     5, 6),
], ids=["analyze", "analyze-geometric", "check", "sweep"])
def test_one_analysis_pass_per_model(calls, capsys, argv, jacobi, validate):
    # validate: once per model built, the file's and each sweep step's
    assert main(argv) == 0
    assert [calls[name] for _, name in COUNTED] == [jacobi, validate]


def test_explicit_kinetic_matrix_adds_one_eigensolve(tmp_path, calls, capsys):
    path = write_model(tmp_path, {
        "masses": [1, 1, 1], "omegas": [1, 1, 1],
        "kinetic": [[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.0]],
    })
    assert main(["analyze", path, "--mass-norm", "geometric"]) == 0
    # one eigensolve for T^(1/2), one for S
    assert calls["jacobi_eigh"] == 2


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
