"""Outside-in layer trace: spans around the public functions of each layer.

The benchmark wraps, from outside the package, the public functions of
``cli``, ``disc``, ``rpoly``, ``witness``, ``schatten``, ``model`` and
``linalg`` plus the three ``numpy.linalg`` kernels they call. Module
functions are replaced as module attributes, which are the modules' global
namespaces, so calls between functions of one module are traced as well.
Spans stay in memory until :meth:`LayerTrace.write` at the end of the run.

Nothing in the program queues or waits on another worker, so the trace
records busy time only; waiting time is zero by construction.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import time

import numpy as np

from matdisc import cli, disc, linalg, model, rpoly, schatten, witness

LAYERS = ("cli", "disc", "rpoly", "witness", "schatten", "model", "linalg")

# (traced name, object holding the attribute, attribute, counts matrices)
TARGETS = (
    ("cli.verify_thm13", cli, "verify_thm13", False),
    ("cli.verify_interlacing", cli, "verify_interlacing", False),
    ("cli.verify_thm41", cli, "verify_thm41", False),
    ("cli.verify_schatten", cli, "verify_schatten", False),
    ("cli.main", cli, "main", False),
    ("cli.report_bytes", cli, "report_bytes", False),
    ("disc.disc_bruteforce", disc, "disc_bruteforce", False),
    ("disc.greedy_interlacing_solve", disc, "greedy_interlacing_solve", False),
    ("disc.expected_charpoly", disc, "expected_charpoly", False),
    ("disc.expected_charpoly_operator", disc, "expected_charpoly_operator", False),
    ("disc.bound_menu", disc, "bound_menu", False),
    ("rpoly.is_real_rooted", rpoly, "is_real_rooted", False),
    ("rpoly.has_common_interlacing", rpoly, "has_common_interlacing", False),
    ("rpoly.real_roots", rpoly, "real_roots", False),
    ("rpoly.lambda_max", rpoly, "lambda_max", False),
    ("rpoly.trim", rpoly, "trim", False),
    ("rpoly.deflate_zero_roots", rpoly, "deflate_zero_roots", False),
    ("witness.replay_barrier_walk", witness, "replay_barrier_walk", False),
    ("witness.certify_above_roots", witness, "certify_above_roots", False),
    ("witness.QEvaluator.eval_many", witness.QEvaluator, "eval_many", False),
    ("schatten.khintchine_bounds", schatten, "khintchine_bounds", False),
    ("schatten.disc_p", schatten, "disc_p", False),
    ("model.sigma", model, "sigma", False),
    ("model.normalize", model, "normalize", False),
    ("model.load_instance", model, "load_instance", False),
    ("linalg.residual_norm", linalg, "residual_norm", False),
    ("linalg.spectral_norm", linalg, "spectral_norm", False),
    ("linalg.kernel_eigvalsh", np.linalg, "eigvalsh", True),
    ("linalg.kernel_det", np.linalg, "det", True),
    ("linalg.kernel_eigvals", np.linalg, "eigvals", True),
)


class LayerTrace:
    """Spans (name, start, end, parent span, item id) of the traced passes.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions. It may be entered again; spans and
    counts accumulate.
    """

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.spans: list = []
        self.matrices = {i: 0 for i, t in enumerate(TARGETS) if t[3]}
        self.item = -1
        self._stack: list = []
        self._saved: list = []

    def __enter__(self) -> "LayerTrace":
        for idx, (_, owner, attr, kernel) in enumerate(TARGETS):
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(idx, fn, kernel))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, idx: int, fn, kernel: bool):
        spans, stack, matrices = self.spans, self._stack, self.matrices

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernel:
                matrices[idx] += math.prod(np.shape(args[0])[:-2])
            pos = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(pos)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[pos] = (idx, start, end, parent, self.item)

        return wrapper

    def metrics(self, overhead_ratio: float) -> dict:
        """Calls, self seconds and kernel matrix counts per name and layer.

        A span's self time is its duration minus the durations of its
        direct children. In ``<layer>.self_s`` a kernel's self time counts
        toward the layer of the function that called it, since the caller
        chose the kernel and the batch; the kernel's own ``self_s`` still
        reports it alone.
        """
        layer_of = [name.split(".", 1)[0] for name in self.names]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for pos, (idx, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child[pos]
            calls[idx] += 1
            self_s[idx] += own
            if idx in self.matrices and parent >= 0:
                layer_s[layer_of[self.spans[parent][0]]] += own
            else:
                layer_s[layer_of[idx]] += own

        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = {"value": calls[idx], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s[idx], "unit": "s"}
            if idx in self.matrices:
                out[f"{name}.matrices"] = {"value": self.matrices[idx], "unit": "count"}
        for layer, value in layer_s.items():
            out[f"{layer}.self_s"] = {"value": value, "unit": "s"}
        out["trace_overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header naming the span kinds, then
        one ``[name, start_s, end_s, parent, item]`` row per span, with times
        relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for idx, start, end, parent, item in self.spans:
                fh.write(json.dumps([idx, round(start - origin, 9), round(end - origin, 9), parent, item]) + "\n")
