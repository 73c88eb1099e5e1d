"""Command-line front end and the JSON model/report formats.

Model files are JSON objects: {"hbar"?, "masses": [...], exactly one of
"omegas" / "stiffness_diag" / "c" (the two-oscillator [C1, C2, C3]
shorthand), "couplings"?: [[i, j, D], ...] with 1-based indices, and
"kinetic"? as a full matrix}.  Reports serialize floats with 17
significant digits so they parse back bit-exact.

Exit codes: 0 bound, 1 unbound, 2 marginal, 3 error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .boundstate import BOUND, MARGINAL, UNBOUND, BoundStateReport, bound_state, classify
from .diagonalize import (
    MassNormalizedDecomposition,
    ModeDecomposition,
    analyse,
    compute_A,
    mass_normalize,
    modes,
)
from .errors import ChoError, ParseError, ValidationError
from .linalg import SymMatrix
from .model import OscillatorModel
from .spectrum import EnergyLevel, ground_state_energy, lowest_levels

__all__ = [
    "AnalysisReport",
    "parse_model_file",
    "parse_model_dict",
    "run_analysis",
    "render_text",
    "report_to_dict",
    "dumps_json",
    "main",
]

_EXIT_BY_VERDICT = {BOUND: 0, UNBOUND: 1, MARGINAL: 2}
_MODEL_KEYS = {"hbar", "masses", "omegas", "stiffness_diag", "c", "couplings", "kinetic"}


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def _number_list(raw, key: str) -> list[float]:
    if not isinstance(raw, list) or not raw or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
    ):
        raise ParseError(f'"{key}" must be a non-empty array of numbers')
    return [float(x) for x in raw]


def parse_model_dict(doc) -> OscillatorModel:
    """Build a model from an already-decoded JSON object."""
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(sorted(unknown))}")
    if "masses" not in doc:
        raise ParseError('"masses" is required')
    masses = _number_list(doc["masses"], "masses")
    n = len(masses)

    violations: list[str] = []
    given = [key for key in ("omegas", "stiffness_diag", "c") if key in doc]
    if len(given) != 1:
        violations.append(
            'exactly one of "omegas", "stiffness_diag" or "c" is required'
            + (f" (got {', '.join(given)})" if given else "")
        )

    stiffness = [0.0] * n
    couplings: dict[tuple[int, int], float] = {}
    if "omegas" in doc:
        omegas = _number_list(doc["omegas"], "omegas")
        if len(omegas) != n:
            violations.append('"omegas" must match "masses" in length')
        else:
            stiffness = [m * (w * w) for m, w in zip(masses, omegas)]  # as from_frequencies
            for i, (m, w) in enumerate(zip(masses, omegas)):
                if not math.isfinite(stiffness[i]):  # named here, not as stiffness_diag
                    stiffness[i] = 0.0
                    if math.isfinite(m):
                        violations.append(f"omegas[{i}] = {w:.3g}: m*w^2 must be finite")
    elif "stiffness_diag" in doc:
        stiffness = _number_list(doc["stiffness_diag"], "stiffness_diag")
        if len(stiffness) != n:
            violations.append('"stiffness_diag" must match "masses" in length')
            stiffness = [0.0] * n
    elif "c" in doc:
        c = _number_list(doc["c"], "c")
        if len(c) != 3:
            violations.append('"c" must be [C1, C2, C3]')
        elif n != 2:
            violations.append('"c" shorthand requires exactly 2 masses')
        else:
            stiffness = [c[0], c[1]]
            couplings[(0, 1)] = c[2]
        if "couplings" in doc:
            violations.append('"c" already fixes the coupling; "couplings" not allowed')

    if "couplings" in doc and "c" not in doc:
        raw = doc["couplings"]
        if not isinstance(raw, list):
            raise ParseError('"couplings" must be an array of [i, j, D] triplets')
        for pos, item in enumerate(raw):
            if (
                not isinstance(item, list)
                or len(item) != 3
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in item)
            ):
                raise ParseError(f"couplings[{pos}] must be [i, j, D]")
            i, j, d = item
            if not all(isinstance(x, int) or x.is_integer() for x in (i, j)):
                raise ParseError(f"couplings[{pos}]: indices must be integers")
            i, j = int(i), int(j)
            problem = ("indices are 1-based" if min(i, j) < 1
                       else f"indices must be <= n={n}" if max(i, j) > n
                       else "self-coupling forbidden" if i == j else None)
            if problem:
                violations.append(f"couplings[{pos}]: {problem}, got ({i}, {j})")
                continue
            pair = (min(i, j) - 1, max(i, j) - 1)
            if pair in couplings:
                violations.append(f"duplicate coupling ({i}, {j})")
                continue
            couplings[pair] = float(d)

    kinetic = None
    if "kinetic" in doc:
        raw = doc["kinetic"]
        if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
            raise ParseError('"kinetic" must be a matrix (array of arrays)')
        try:
            kinetic = SymMatrix(np.array(raw, dtype=float))
        except ValueError as exc:
            violations.append(f"kinetic: {exc}")

    hbar = doc.get("hbar", 1.0)
    if isinstance(hbar, bool) or not isinstance(hbar, (int, float)):
        raise ParseError('"hbar" must be a number')

    try:
        model = OscillatorModel(
            masses=masses,
            stiffness_diag=stiffness,
            couplings=couplings,
            hbar=float(hbar),
            kinetic_override=kinetic,
        )
    except ValidationError as exc:
        violations.extend(exc.violations)
    if violations:
        raise ValidationError(violations)
    return model


def parse_model_file(path: str) -> OscillatorModel:
    """Read one model JSON file and build its (valid) model.

    Raises ParseError for unreadable files, JSON syntax problems (with
    line and column) and schema-shape mistakes; raises ValidationError
    listing every violation found, the file's own before those the
    model's constructor finds.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_model_dict(doc)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    model: OscillatorModel
    t: np.ndarray
    v: np.ndarray
    a: np.ndarray
    s: np.ndarray
    decomposition: ModeDecomposition
    mass_normalized: MassNormalizedDecomposition | None
    bound: BoundStateReport
    ground_energy: float | None
    levels: list[EnergyLevel] | None
    warnings: tuple[str, ...]


def run_analysis(model: OscillatorModel, levels: int = 10,
                 mass_norm: str | float = "none") -> AnalysisReport:
    """Model -> modes -> verdict -> (spectrum if bound), without panicking
    on unbound systems.

    ``mass_norm`` is "none", "geometric" or an explicit reference mass,
    which ``mass_normalize`` checks.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if isinstance(mass_norm, str) and mass_norm not in ("none", "geometric"):
        raise ValueError('mass_norm must be "none", "geometric" or a number')
    an = analyse(model)
    dec = modes(an)  # a failed residual check is reported before the verdict's
    bound = bound_state(an)

    warnings: list[str] = []
    mass_normalized = None
    if mass_norm != "none":
        m_ref = None if mass_norm == "geometric" else mass_norm
        mass_normalized = mass_normalize(an, dec, m_ref)

    ground = None
    spectrum = None
    if bound.verdict == BOUND:
        if levels > 0:
            ground = ground_state_energy(dec, model.hbar)
            spectrum = lowest_levels(dec, model.hbar, levels)
    else:
        failed = next(
            m for m in bound.per_minor if m.status in ("negative", "marginal")
        )
        warnings.append(
            f"no discrete spectrum: verdict is {bound.verdict} because leading "
            f"principal minor k={failed.k} of S is {failed.status} "
            f"({failed.value:.6g})"
        )
    return AnalysisReport(
        model=model,
        t=an.t.mat,
        v=an.v.mat,
        a=compute_A(an.t.mat, an.v.mat),
        s=an.s.mat,
        decomposition=dec,
        mass_normalized=mass_normalized,
        bound=bound,
        ground_energy=ground,
        levels=spectrum,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def dumps_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits; a non-finite float
    is null."""
    # Plain floats and ints are most of a report's leaves (levels, matrix
    # entries), so they skip the isinstance ladder here and in the list
    # loop; bool is a subclass of int and numpy scalars are not these exact
    # types, so both take the ladder.
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is int:
        return str(obj)
    pad = " " * indent
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        lead = pad + "  "
        items = []
        for x in obj:
            kind = type(x)
            if kind is float:
                items.append(lead + _fmt_float(x))
            elif kind is int:
                items.append(lead + str(x))
            else:
                items.append(lead + dumps_json(x, indent + 2))
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + encode_basestring_ascii(str(key)) + ": "
            + dumps_json(value, indent + 2)
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def model_to_dict(model: OscillatorModel) -> dict:
    doc = {
        "hbar": model.hbar,
        "masses": list(model.masses),
        "stiffness_diag": list(model.stiffness_diag),
        "couplings": [
            [i + 1, j + 1, d] for (i, j), d in sorted(model.couplings.items())
        ],
    }
    if model.kinetic_override is not None:
        doc["kinetic"] = model.kinetic_override.mat
    return doc


def _freq_or_none(lam: float):
    return math.sqrt(lam) if lam > 0.0 else None


def report_to_dict(report: AnalysisReport) -> dict:
    dec = report.decomposition
    modes = {
        "lambdas": dec.lambdas,
        "frequencies": [_freq_or_none(x) for x in dec.lambdas],
        "u": dec.u,
        "c": dec.c,
        "residuals": {
            "orthogonality": dec.residual_orth,
            "kinetic": dec.residual_kinetic,
            "potential": dec.residual_potential,
        },
    }
    if report.mass_normalized is not None:
        mn = report.mass_normalized
        modes["mass_normalized"] = {
            "m_ref": mn.m_ref,
            "k": mn.k,
            "c": mn.c,
            "lambdas": mn.lambdas,
        }
    bound = {
        "verdict": report.bound.verdict,
        "minors": report.bound.minors,
        "per_minor": [
            {"k": m.k, "value": m.value, "margin": m.margin, "status": m.status}
            for m in report.bound.per_minor
        ],
        "closed_form_checks": [
            {"name": c.name, "value": c.value, "reference": c.reference,
             "passed": c.passed}
            for c in report.bound.closed_form_checks
        ],
    }
    if report.bound.discriminant is not None:
        bound["discriminant"] = report.bound.discriminant

    doc = {
        "model": model_to_dict(report.model),
        "matrices": {"T": report.t, "V": report.v, "A": report.a, "S": report.s},
        "modes": modes,
        "bound_state": bound,
    }
    if report.levels is not None or report.ground_energy is not None:
        doc["spectrum"] = {
            "ground_state_energy": report.ground_energy,
            "levels": [
                {"occupations": list(lv.occupations), "energy": lv.energy}
                for lv in (report.levels or [])
            ],
        }
    doc["warnings"] = list(report.warnings)
    return doc


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _matrix_lines(a: np.ndarray, label: str) -> list[str]:
    cells = [[_fmt(x) for x in row] for row in np.atleast_2d(a)]
    width = max(len(c) for row in cells for c in row)
    lines = [f"  {label} ="]
    for row in cells:
        lines.append("      " + "  ".join(c.rjust(width) for c in row))
    return lines


def render_text(report: AnalysisReport) -> str:
    model = report.model
    dec = report.decomposition
    lines: list[str] = []

    lines.append("MODEL")
    lines.append(f"  n       {model.n}")
    lines.append(f"  hbar    {_fmt(model.hbar)}")
    lines.append("  masses          " + "  ".join(_fmt(m) for m in model.masses))
    lines.append(
        "  stiffness_diag  " + "  ".join(_fmt(s) for s in model.stiffness_diag)
    )
    if model.couplings:
        parts = [
            f"D{i + 1}{j + 1} = {_fmt(d)}"
            for (i, j), d in sorted(model.couplings.items())
        ]
        lines.append("  couplings       " + "   ".join(parts))
    else:
        lines.append("  couplings       none")

    lines.append("")
    lines.append("MATRICES")
    lines.extend(_matrix_lines(report.t, "T"))
    lines.extend(_matrix_lines(report.v, "V"))
    lines.extend(_matrix_lines(report.a, "A = T V"))
    lines.extend(_matrix_lines(report.s, "S = T^(1/2) V T^(1/2)"))

    lines.append("")
    lines.append("NORMAL MODES")
    lines.append("    i  lambda          sqrt(lambda)")
    for i, lam in enumerate(dec.lambdas, start=1):
        freq = _freq_or_none(float(lam))
        freq_text = _fmt(freq) if freq is not None else "-"
        lines.append(f"    {i}  {_fmt(lam):<14}  {freq_text}")
    lines.extend(_matrix_lines(dec.c, "C"))
    lines.append(
        "  residuals: orthogonality {:.3e}, kinetic {:.3e}, potential {:.3e}".format(
            dec.residual_orth, dec.residual_kinetic, dec.residual_potential
        )
    )
    if report.mass_normalized is not None:
        mn = report.mass_normalized
        lines.append("")
        lines.append("MASS-NORMALIZED")
        lines.append(f"  m_ref   {_fmt(mn.m_ref)}")
        lines.append("  k        " + "  ".join(_fmt(x) for x in mn.k))
        lines.append("  lambdas  " + "  ".join(_fmt(x) for x in mn.lambdas))
        lines.extend(_matrix_lines(mn.c, "C"))

    lines.append("")
    lines.append("BOUND STATE")
    lines.append(f"  verdict  {report.bound.verdict}")
    lines.append("    k  minor           margin      status")
    for m in report.bound.per_minor:
        lines.append(
            f"    {m.k}  {_fmt(m.value):<14}  {m.margin:.3e}  {m.status}"
        )
    if report.bound.closed_form_checks:
        lines.append("  closed-form cross-checks")
        name_width = max(len(c.name) for c in report.bound.closed_form_checks)
        for c in report.bound.closed_form_checks:
            lines.append(
                f"    {c.name.ljust(name_width)}  value {_fmt(c.value):<14}  "
                f"reference {_fmt(c.reference):<14}  "
                f"{'ok' if c.passed else 'MISMATCH'}"
            )
    if report.bound.discriminant is not None:
        lines.append(f"  discriminant  {_fmt(report.bound.discriminant)}")

    if report.ground_energy is not None:
        lines.append("")
        lines.append("SPECTRUM")
        lines.append(f"  ground state energy  {_fmt(report.ground_energy)}")
        if report.levels:
            lines.append("    #  energy          occupations")
            for idx, lv in enumerate(report.levels, start=1):
                occ = "(" + ", ".join(str(x) for x in lv.occupations) + ")"
                lines.append(f"    {idx}  {_fmt(lv.energy):<14}  {occ}")

    if report.warnings:
        lines.append("")
        lines.append("WARNINGS")
        for w in report.warnings:
            lines.append(f"  - {w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    model = parse_model_file(args.model)
    mass_norm: str | float = args.mass_norm
    if mass_norm not in ("none", "geometric"):
        try:
            mass_norm = float(mass_norm)
        except ValueError:
            raise ParseError(
                f'--mass-norm must be "none", "geometric" or a number, '
                f"got {mass_norm!r}"
            ) from None
    report = run_analysis(model, args.levels, mass_norm)
    if args.format == "json":
        print(dumps_json(report_to_dict(report)))
    else:
        print(render_text(report), end="")
    return _EXIT_BY_VERDICT[report.bound.verdict]


def _cmd_check(args) -> int:
    verdict = classify(parse_model_file(args.model)).verdict
    print(verdict)
    return _EXIT_BY_VERDICT[verdict]


def _parse_sweep_param(text: str) -> tuple[int, int]:
    head, _, tail = text.partition(":")
    if head.strip() != "D":
        raise ParseError(f'--param must look like "D:i,j", got {text!r}')
    try:
        i_text, j_text = tail.split(",")
        i, j = int(i_text), int(j_text)
    except ValueError:
        raise ParseError(f'--param must look like "D:i,j", got {text!r}') from None
    if i < 1 or j < 1 or i == j:
        raise ParseError(f"--param indices must be distinct and 1-based, got {text!r}")
    return (min(i, j) - 1, max(i, j) - 1)


def _cmd_sweep(args) -> int:
    model = parse_model_file(args.model)
    pair = _parse_sweep_param(args.param)
    if not max(pair) < model.n:
        raise ParseError(
            f"--param D:{pair[0] + 1},{pair[1] + 1} out of range for n={model.n}"
        )
    if args.steps < 2:
        raise ParseError("--steps must be >= 2")
    if not math.isfinite(args.stop - args.start):  # also an inf or nan end
        raise ParseError(f"--from {args.start!r} --to {args.stop!r}: the range must be "
                         "finite and no wider than the largest float")
    values = np.linspace(args.start, args.stop, args.steps)
    rows = []
    for value in values:
        an = analyse(model.with_coupling(pair[0], pair[1], float(value)))
        # a failed check of the verdict is reported before a residual check
        rows.append((float(value), bound_state(an).verdict, modes(an).lambdas))

    if args.format == "json":
        doc = {
            "param": [pair[0] + 1, pair[1] + 1],
            "from": float(args.start),
            "to": float(args.stop),
            "steps": [
                {"value": value, "verdict": verdict, "lambdas": lambdas}
                for value, verdict, lambdas in rows
            ],
        }
        print(dumps_json(doc))
    else:
        print(
            f"SWEEP D{pair[0] + 1}{pair[1] + 1} "
            f"from {_fmt(args.start)} to {_fmt(args.stop)} ({args.steps} steps)"
        )
        header = "        value    verdict   " + "  ".join(
            f"lambda_{i + 1}".rjust(12) for i in range(model.n)
        )
        print(header)
        for value, verdict, lambdas in rows:
            lam_text = "  ".join(f"{_fmt(x):>12}" for x in lambdas)
            print(f"  {_fmt(value):>11}  {verdict:>9}   {lam_text}")
    return 0


# argparse reads a negative number only in plain form as a value and takes
# "-2.6e-06" for an option; this pattern also admits the exponent form.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """A bad command line raises ParseError, so that it exits 3 like any
    other bad input rather than 2, which means Marginal."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cho",
        description="Normal modes, bound-state conditions and energy spectra "
        "of coupled harmonic oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full report for one model file")
    analyze.add_argument("model", help="model JSON file")
    analyze.add_argument("--levels", type=int, default=10,
                         help="energy levels to list (0 disables the spectrum)")
    analyze.add_argument("--mass-norm", default="none",
                         help='"none", "geometric" or an explicit reference mass')
    analyze.add_argument("--format", choices=("text", "json"), default="text")

    check = sub.add_parser("check", help="print the verdict only")
    check.add_argument("model", help="model JSON file")

    sweep = sub.add_parser("sweep", help="vary one coupling over a range")
    sweep.add_argument("model", help="model JSON file")
    sweep.add_argument("--param", required=True, help='coupling to vary, e.g. "D:1,2"')
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--format", choices=("text", "json"), default="text")

    for command in (analyze, check, sweep):
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    handlers = {"analyze": _cmd_analyze, "check": _cmd_check, "sweep": _cmd_sweep}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ChoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
