"""SHA-256 over stdout, stderr and exit code of seeded cho CLI runs.

Usage: PYTHONPATH=<tree>/src python outhash.py [N_MODELS]
"""
import contextlib, hashlib, io, json, random, sys, tempfile, warnings
from pathlib import Path
from cho.cli import main

N = int(sys.argv[1]) if len(sys.argv) > 1 else 60
rng = random.Random(20261020)
h = hashlib.sha256()
tmp = Path(tempfile.mkdtemp())
runs = 0
for case in range(N):
    n = rng.choice([1, 2, 3, 4, 5, 8, 16])
    mu, ku = 2.0 ** rng.randint(-1000, 1000), 2.0 ** rng.randint(-1000, 1000)
    if rng.random() < 0.5:
        mu = ku = 1.0
    doc = {"masses": [mu * rng.uniform(0.5, 2) for _ in range(n)],
           "stiffness_diag": [ku * rng.uniform(0.5, 3) for _ in range(n)],
           "couplings": [[i + 1, j + 1, ku * rng.uniform(-1.5, 1.5)]
                         for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]}
    if rng.random() < 0.15:
        doc["kinetic"] = [[(1.0 if i == j else 0.1 * rng.uniform(-1, 1)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                doc["kinetic"][i][j] = doc["kinetic"][j][i]
    path = tmp / f"m{case}.json"
    path.write_text(json.dumps(doc))
    cmds = [["analyze", str(path)], ["analyze", str(path), "--format", "json", "--levels", "20"],
            ["analyze", str(path), "--mass-norm", "geometric"], ["check", str(path)]]
    if n > 1:
        cmds.append(["sweep", str(path), "--param", "D:1,2", "--from", str(-2 * ku),
                     "--to", str(3 * ku), "--steps", "7"])
        cmds.append(cmds[-1] + ["--format", "json"])
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = main(cmd)
            except BaseException as e:
                code = f"raised {type(e).__name__}: {e}"
        h.update(json.dumps([cmd[0], cmd[2:], out.getvalue(), err.getvalue(), str(code)]).encode())
        runs += 1
print(runs, h.hexdigest())
