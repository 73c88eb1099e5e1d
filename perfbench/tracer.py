"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every ``cho`` module
namespace that binds it (``jacobi_eigh`` is bound in linalg, diagonalize,
boundstate and the package), so calls between modules are caught too.
A span is (name, start, end, parent span, request id); spans stay in
memory and are written out by ``write``.  Self time is a span's duration
minus the time its child spans cover, so the self times of one request
add up to the request's root span exactly.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs that are timed; the layers are the modules.
TRACED = [
    ("cli", "main"), ("cli", "_build_parser"), ("cli", "parse_model_file"),
    ("cli", "run_analysis"), ("cli", "render_text"), ("cli", "report_to_dict"),
    ("cli", "dumps_json"),
    ("model", "validate"), ("model", "build_T"), ("model", "build_V"),
    ("diagonalize", "compute_S"), ("diagonalize", "decompose"),
    ("diagonalize", "decompose_mass_normalized"),
    ("linalg", "jacobi_eigh"), ("linalg", "spd_sqrt"),
    ("linalg", "leading_principal_minors"), ("linalg", "inverse"),
    ("boundstate", "classify"), ("boundstate", "_closed_form_checks"),
    ("spectrum", "lowest_levels"), ("spectrum", "ground_state_energy"),
]
MODULES = ["cli", "model", "diagonalize", "linalg", "boundstate", "spectrum"]
# recursive: only the outermost call is a span; calls inside it are not wrapped
OUTERMOST_ONLY = {"cli.dumps_json"}
# useful-work ratio: distinct inputs over calls, keyed on the leading
# matrix arguments (S for jacobi_eigh, T and V for compute_S)
DISTINCT = {"linalg.jacobi_eigh": 1, "diagonalize.compute_S": 2}
ROOT = "request"


def _input_key(args) -> bytes:
    return b"|".join(np.asarray(getattr(a, "mat", a)).tobytes() for a in args)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request_id = -1
        self.inputs: dict[str, set] = {name: set() for name in DISTINCT}
        self._bindings: dict[str, list] = {}  # name -> [(module, attribute)]
        self._originals: dict = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        distinct = self.inputs.get(name)
        n_keyed = DISTINCT.get(name, 0)
        outermost_only = name in OUTERMOST_ONLY

        def traced(*args, **kwargs):
            if distinct is not None:
                distinct.add(_input_key(args[:n_keyed]))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if outermost_only:
                self._bind(name, fn)  # recursive calls go straight to fn
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if outermost_only:
                    self._bind(name, traced)
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.request_id)

        return traced

    def _bind(self, name: str, value) -> None:
        for mod, attr in self._bindings[name]:
            setattr(mod, attr, value)

    def install(self) -> None:
        """Wrap every traced function wherever a cho module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cho" or key.startswith("cho."))]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"cho.{mod_name}"], fn_name)
            self._bindings[name] = [(mod, attr) for mod in modules
                                    for attr, value in vars(mod).items()
                                    if value is original]
            self._originals[name] = original
            self._bind(name, self._wrap(name, original))

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            self._bind(name, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def request(self, call, request_id: int):
        """Run ``call()`` as one request under a root span; returns its
        result and the root span's duration in seconds."""
        self.request_id = request_id
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            result = call()
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[idx] = (ROOT, t0, t1, -1, request_id)
        return result, t1 - t0

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def layer_metrics(self, requests: int, overhead_ratio: float) -> dict:
        """Per-request calls and self time per function, each module's
        share of request time, useful-work ratios and tracing overhead."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
        total = sum(self_s.values())
        per_req = 1.0 / requests
        out = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = (calls[name] * per_req, "count/req")
            out[f"{name}.self_ms"] = (self_s[name] * 1e3 * per_req, "ms/req")
        for mod_name in MODULES:
            share = sum(v for k, v in self_s.items() if k.startswith(mod_name + "."))
            out[f"{mod_name}.self_share"] = (share / total, "ratio")
        for name in sorted(DISTINCT):
            ratio = len(self.inputs[name]) / calls[name] if calls[name] else 0.0
            out[f"{name}.distinct_ratio"] = (ratio, "ratio")
        out["trace.request_ms"] = (total * 1e3 * per_req, "ms/req")
        out["trace.remainder_ms"] = (self_s[ROOT] * 1e3 * per_req, "ms/req")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request,name,start_us,end_us,parent\n")
            for i, (name, t0, t1, parent, rid) in enumerate(self.spans):
                fh.write(f"{rid},{name},{t0 * 1e6:.3f},{t1 * 1e6:.3f},{parent}\n")
