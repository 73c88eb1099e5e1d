"""Differential properties of the command line over generated model files.

Models are drawn over the whole float range, subnormals included: random
ones, exactly singular ones with V = 2^e B B^T for an integer B of rank
at most n - 1, and those moved by +-1e-6 * 2^e on the diagonal.  Each
model file runs through ``cho.cli.main`` in-process, and three properties
must hold:

- P1: no exception escapes, and every exit code is in {0, 1, 2, 3};
- P2: no warning is raised, and stderr holds only ``error:`` lines;
- P3: ``analyze --format json`` exits as text ``analyze`` does.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cho.cli import main

SIZES = [1, 2, 3, 4, 5, 8, 16]


def _scaled(draw, lo, hi, exponent):
    return math.ldexp(draw(st.floats(lo, hi)), exponent)


@st.composite
def model_docs(draw):
    n = draw(st.sampled_from(SIZES))
    mass_exp = draw(st.integers(-1054, 1023))
    masses = [math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)),
                         mass_exp - draw(st.integers(0, 20))) for _ in range(n)]
    kind = draw(st.sampled_from(["random", "singular", "nudged"]))
    # the unit of V: anywhere, or near the masses' so that S is in range
    exp = draw(st.one_of(st.integers(-1074, 1010),
                         st.integers(-40, 40).map(lambda d: min(max(mass_exp + d, -1074), 1010))))
    couplings = []
    if kind == "random":
        stiffness = [_scaled(draw, -0.5, 1.0, exp) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    couplings.append([i + 1, j + 1, _scaled(draw, -1.0, 1.0, exp)])
    else:
        b = [[draw(st.integers(-2, 2)) for _ in range(n - 1)] for _ in range(n)]
        v = [[sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b]
        nudge = [draw(st.sampled_from([-1e-6, 1e-6])) if kind == "nudged" else 0.0
                 for _ in range(n)]
        stiffness = [math.ldexp(v[i][i] + nudge[i], exp) for i in range(n)]
        couplings = [[i + 1, j + 1, math.ldexp(2 * v[i][j], exp)]
                     for i in range(n) for j in range(i + 1, n) if v[i][j]]
    return {"masses": masses, "stiffness_diag": stiffness, "couplings": couplings}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "model.json"


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(doc=model_docs())
def test_cli_exits_cleanly_and_json_exits_as_text(model_path, doc):
    model_path.write_text(json.dumps(doc))
    path = str(model_path)
    codes = {}
    for name, argv in (("check", ["check", path]),
                       ("text", ["analyze", path]),
                       ("json", ["analyze", path, "--format", "json"])):
        code, out, err, caught = _run(argv)
        assert code in (0, 1, 2, 3), (name, code)  # P1
        assert not caught, (name, [str(w.message) for w in caught])  # P2
        assert all(line.startswith("error: ") for line in err.splitlines()), (name, err)
        if name == "json" and code != 3:
            json.loads(out)
        codes[name] = code
    assert codes["json"] == codes["text"]  # P3
