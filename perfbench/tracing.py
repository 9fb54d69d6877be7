"""Span tracing from outside the program, and the per-layer metrics.

Each traced function is replaced, for the length of one pass, under the name
its caller uses to look it up: a wrapper installed on ``battery_dynamics``
catches the calls ``power_trace`` makes to ``hermitian_eig`` but not the ones
``state_prep`` makes, which get their own wrapper.  A span records its name
(``<module>.<function>`` of the wrapped function), start, end, parent span
and op id; spans stay in memory and are written out once the pass ends.
The bookkeeping some wrappers do before their span opens (matrix norms,
hashes) runs in a span of its own, ``trace.bookkeeping``, so that its cost is
charged to no layer of the program.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("experiment_cli", "battery_dynamics", "dense_linalg", "model_builders", "state_prep", "tensor_core")
ROOT = "bench.pass"
BOOKKEEPING = "trace.bookkeeping"
_THETA13 = 5.371920351148152  # Pade-13 scaling threshold of dense_linalg


def _expm_info(tracer, a, *args, **kwargs):
    """Matrix count, dimension and the squarings the 1-norms imply."""
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    big = norms > _THETA13
    squarings = int(np.ceil(np.log2(norms[big] / _THETA13)).sum()) if big.any() else 0
    return {"m": int(a.shape[0]), "d": int(a.shape[-1]), "squarings": squarings}


def _eig_info(tracer, m, compute_vectors=True):
    a = np.ascontiguousarray(getattr(m, "matrix", m))
    key = (tracer.op, a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest())
    repeat = key in tracer.seen
    tracer.seen.add(key)
    return {"d": int(a.shape[0]), "vectors": bool(compute_vectors), "repeat": repeat}


def _new_op(tracer, *args, **kwargs):
    tracer.op += 1


# (module, attribute, span name, info).  The benchmark calls the public
# entry points through ``qbattery`` and ``qbattery.experiment_cli``, looked up
# at call time, so wrappers on those two catch its calls.
TARGETS = (
    ("qbattery.experiment_cli", "run_experiment", "experiment_cli.run_experiment", None),
    ("qbattery.experiment_cli", "emit_outputs", "experiment_cli.emit_outputs", None),
    ("qbattery", "build_battery_xyz", "model_builders.build_battery_xyz", _new_op),
    ("qbattery", "normalize_spectrum", "model_builders.normalize_spectrum", None),
    ("qbattery", "ground_state", "state_prep.ground_state", None),
    ("qbattery.experiment_cli", "delta_p_max", "battery_dynamics.delta_p_max", _new_op),
    ("qbattery.battery_dynamics", "build_battery_xyz", "model_builders.build_battery_xyz", None),
    ("qbattery.battery_dynamics", "build_noninteracting_battery", "model_builders.build_noninteracting_battery", None),
    ("qbattery.battery_dynamics", "build_charger", "model_builders.build_charger", None),
    ("qbattery.battery_dynamics", "normalize_spectrum", "model_builders.normalize_spectrum", None),
    ("qbattery.battery_dynamics", "ground_state", "state_prep.ground_state", None),
    ("qbattery.battery_dynamics", "power_trace", "battery_dynamics.power_trace", None),
    ("qbattery.battery_dynamics", "_batch_propagators", "battery_dynamics._batch_propagators", None),
    ("qbattery.battery_dynamics", "_golden_max", "battery_dynamics._golden_max", None),
    ("qbattery.battery_dynamics", "evolve_normalized", "battery_dynamics.evolve_normalized", None),
    ("qbattery.battery_dynamics", "expm_array", "dense_linalg.expm_array", None),
    ("qbattery.battery_dynamics", "hermitian_eig", "dense_linalg.hermitian_eig", _eig_info),
    ("qbattery.dense_linalg", "_expm_chunk", "dense_linalg._expm_chunk", _expm_info),
    ("qbattery.dense_linalg", "_solve_batch", "dense_linalg._solve_batch", None),
    ("qbattery.model_builders", "embed_site", "tensor_core.embed_site", None),
    ("qbattery.model_builders", "hermitian_eig", "dense_linalg.hermitian_eig", _eig_info),
    ("qbattery.state_prep", "hermitian_eig", "dense_linalg.hermitian_eig", _eig_info),
)


class Tracer:
    """In-memory span list: [name, start, end, parent index, op id, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.seen: set = set()
        self.missing: list[str] = []

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = None
            if info:
                with self.span(BOOKKEEPING):
                    extra = info(self, *args, **kwargs)
            with self.span(name, extra):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals after.
        A target the program no longer has is listed in ``missing``; the
        metrics built on it then read 0."""
        saved = []
        try:
            for module, attr, name, info in TARGETS:
                try:
                    obj = importlib.import_module(module)
                except ImportError:
                    obj = None
                if not hasattr(obj, attr):
                    self.missing.append(f"{module}.{attr}")
                    continue
                original = getattr(obj, attr)
                saved.append((obj, attr, original))
                setattr(obj, attr, self.wrap(name, original, info))
            with self.span(ROOT):
                yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    @contextmanager
    def span(self, name, info=None):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, info]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def _eig_gflop(d: int, vectors: bool) -> float:
    # Golub & Van Loan symmetric-eigensolver counts (4/3 n^3 values only,
    # 9 n^3 with vectors), times 4 for complex Hermitian arithmetic.
    return (36.0 if vectors else 16.0 / 3.0) * d**3 / 1e9


def _expm_gflop(m: int, d: int, squarings: int) -> float:
    # Per matrix: six Pade-13 matmuls, an LU (d^3/3 multiply-adds), a solve
    # with d right-hand sides (d^3) and one matmul per squaring; a complex
    # multiply-add is 8 real flops.
    return 8.0 * d**3 * (m * (6.0 + 1.0 / 3.0 + 1.0) + squarings) / 1e9


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer counts and times from one traced pass."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]
    names = [s[0] for s in spans]
    parent_name = [names[s[3]] if s[3] >= 0 else "" for s in spans]

    def pick(name, parent=None):
        return [i for i in range(n) if names[i] == name and (parent is None or parent_name[i] == parent)]

    def total(idx, of=dur):
        return float(sum(of[i] for i in idx))

    wall = total(pick(ROOT))
    grid = pick("dense_linalg._expm_chunk", "battery_dynamics._batch_propagators")
    refine_chunks = pick("dense_linalg._expm_chunk", "dense_linalg.expm_array")
    chunks = grid + refine_chunks
    eig = pick("dense_linalg.hermitian_eig")
    traces = pick("battery_dynamics.power_trace")
    expm_s = total(grid) + total(refine_chunks)
    gflop = sum(_expm_gflop(**spans[i][5]) for i in chunks)
    metrics = {
        "experiment_cli.engine.self_s": total(pick("experiment_cli.run_experiment"), self_t),
        "experiment_cli.emit_outputs.s": total(pick("experiment_cli.emit_outputs")),
        "battery_dynamics.power_trace.calls": len(traces),
        "battery_dynamics.power_trace.self_s": total(traces, self_t),
        "battery_dynamics.refine.evals": len(pick("battery_dynamics.evolve_normalized", "battery_dynamics._golden_max")) / max(1, len(traces)),
        "battery_dynamics.refine.s": total(pick("battery_dynamics._golden_max")),
        "dense_linalg.expm.grid.matrices": sum(spans[i][5]["m"] for i in grid),
        "dense_linalg.expm.grid.s": total(grid),
        "dense_linalg.expm.refine.calls": len(refine_chunks),
        "dense_linalg.expm.refine.s": total(refine_chunks),
        "dense_linalg.expm.solve_s": total(pick("dense_linalg._solve_batch")),
        "dense_linalg.expm.squarings": sum(spans[i][5]["squarings"] for i in chunks),
        "dense_linalg.expm.gflop": gflop,
        "dense_linalg.expm.gflop_per_s": gflop / expm_s if expm_s > 0 else 0.0,
        "dense_linalg.hermitian_eig.calls": len(eig),
        "dense_linalg.hermitian_eig.vector_calls": sum(spans[i][5]["vectors"] for i in eig),
        "dense_linalg.hermitian_eig.s": total(eig),
        "dense_linalg.hermitian_eig.gflop": sum(_eig_gflop(spans[i][5]["d"], spans[i][5]["vectors"]) for i in eig),
        "dense_linalg.hermitian_eig.repeat_frac": sum(spans[i][5]["repeat"] for i in eig) / max(1, len(eig)),
        "model_builders.build.s": total(
            pick("model_builders.build_battery_xyz")
            + pick("model_builders.build_noninteracting_battery")
            + pick("model_builders.build_charger")
        ),
        "model_builders.normalize_spectrum.s": total(pick("model_builders.normalize_spectrum")),
        "state_prep.ground_state.s": total(pick("state_prep.ground_state")),
        "tensor_core.embed_site.calls": len(pick("tensor_core.embed_site")),
        "tensor_core.embed_site.s": total(pick("tensor_core.embed_site")),
        "trace.bookkeeping_s": total(pick(BOOKKEEPING)),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = float(sum(self_t[i] for i in range(n) if names[i].split(".")[0] == module))
    metrics["trace.unattributed_frac"] = total(pick(ROOT), self_t) / wall if wall > 0 else math.nan
    return metrics
