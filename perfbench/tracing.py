"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each heatent module and records a
span (request, layer, function, start, duration, self time, parent) around
every call.  A wrapped name is replaced in every heatent module that holds
it, so ``from .quadrature import integrate_shifted_gaussian`` in
``h3entropy`` is traced too; a name the program no longer has is skipped.
Nothing under ``src/`` is edited, and uninstalling restores every name.

``specfun`` and ``logscale`` are called once per scalar integrand evaluation
and are not wrapped: their cost falls in the self time of the enclosing
quadrature or h3entropy span.  ``numpy.fft`` and ``leggauss`` calls made
under a spectral span are counted and timed, not recorded as spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions wrapped per layer.  Functions slated for removal
# (evolve_drift, stable_drift_dt, cli._csv) are deliberately absent.
LAYERS = {
    "cli": ("main",),
    "verify": ("run_checks",),
    "fixtures": ("get_fixture", "circle_fixture", "torus_fixture", "sphere_fixture",
                 "drift_fixture", "random_positive_torus_field", "random_torus_potential"),
    # The closed forms (xi, I1, envelopes, band) are cheap and called per row;
    # left unwrapped, they count in their caller's self time.
    "h3entropy": ("evaluate_records", "evaluate_record", "entropy", "entropy_rate",
                  "entropy_rate_fd", "entropy_quadrature", "eta", "eta_prime",
                  "I1_quadrature", "normalization_quadrature"),
    "quadrature": ("integrate_semi_infinite", "integrate_shifted_gaussian"),
    "spectral": ("entropy_trace", "entropy_and_fisher", "evolve", "project_initial",
                 "project_potential", "resolve", "mass", "eigenvalues", "spectral_gap",
                 "bochner_residual", "hessian_trace_gap", "cauchy_step_values",
                 "laplacian_l2_norm", "grid_extrema", "circle", "torus2", "sphere2",
                 "torus2_drift"),
    "bounds": ("check_bounds", "ricci_bound_rhs", "ricci_bound_asymptote",
               "hamilton_bound_rhs", "spectral_gap_bound_rhs", "euclidean_rate_reference"),
}
IDENTITY_FUNCTIONS = ("bochner_residual", "hessian_trace_gap", "cauchy_step_values")
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn")

# Per-layer metrics: name -> unit.  All are per request of the traced run.
METRIC_UNITS = {
    "quadrature.calls": "count/req",
    "quadrature.evaluations": "count/req",
    "quadrature.evals_per_call": "count",
    "quadrature.busy_ms": "ms/req",
    "quadrature.evals_per_ms": "1/ms",
    "quadrature.nonconverged": "count/req",
    "h3entropy.records": "count/req",
    "h3entropy.eta_calls": "count/req",
    "h3entropy.busy_ms": "ms/req",
    "h3entropy.self_ms": "ms/req",
    "spectral.functional_calls": "count/req",
    "spectral.functional_ms": "ms/req",
    "spectral.leggauss_calls": "count/req",
    "spectral.leggauss_ms": "ms/req",
    "spectral.identity_ms": "ms/req",
    "spectral.trace_ms": "ms/req",
    "spectral.propagate_ms": "ms/req",
    "spectral.fft_calls": "count/req",
    "spectral.fft_ms": "ms/req",
    "spectral.fft_mbytes_computed": "MB/req",
    "bounds.calls": "count/req",
    "bounds.self_ms": "ms/req",
    "bounds.violations": "count/req",
    "fixtures.calls": "count/req",
    "fixtures.busy_ms": "ms/req",
    "cli.requests": "count/req",
    "cli.self_ms": "ms/req",
    "cli.bytes_out": "bytes/req",
    "verify.checks": "count/req",
    "verify.self_ms": "ms/req",
    "verify.failed": "count/req",
    "trace.overhead_ms": "ms/req",
    "trace.overhead_share": "%",
}


class Tracer:
    """Span recorder; ``install`` patches heatent and numpy, ``uninstall``
    restores them.  Spans stay in memory until ``write_spans``."""

    def __init__(self):
        self.request = -1
        self.spans: list[tuple] = []  # (request, layer, fn, start, duration, self, parent)
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span index, start, child time]
        self._layer_depth: defaultdict = defaultdict(int)
        self._trace_depth = 0  # open entropy_trace spans
        self._outer: list[bool] = []  # per span: outermost span of its layer
        self._under_trace: list[bool] = []  # per span: inside entropy_trace
        self._patched: list[tuple] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import heatent  # noqa: F401 - ensure the package is loaded
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "heatent" or name.startswith("heatent."))]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"heatent.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, original, wrapper)
        for name in FFT_FUNCTIONS:
            original = getattr(np.fft, name, None)
            if callable(original):
                self._replace(np.fft, name, original, self._wrap_numpy("fft", original))
        legendre = np.polynomial.legendre
        self._replace(legendre, "leggauss", legendre.leggauss,
                      self._wrap_numpy("leggauss", legendre.leggauss))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        is_trace = name == "entropy_trace"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._layer_depth[layer] == 0
            self._outer.append(outer)
            self._under_trace.append(self._trace_depth > 0)
            index = len(self.spans)
            self.spans.append(None)
            self._layer_depth[layer] += 1
            self._trace_depth += is_trace
            frame = [index, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._layer_depth[layer] -= 1
                self._trace_depth -= is_trace
                duration = end - frame[1]
                parent = self._stack[-1][0] if self._stack else -1
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (self.request, layer, name, frame[1], duration,
                                     duration - frame[2], parent)
            if outer:
                self._count_result(layer, name, result)
            return result

        return wrapper

    def _wrap_numpy(self, kind: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._layer_depth["spectral"] == 0:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.counts[f"{kind}_seconds"] += time.perf_counter() - start
            self.counts[f"{kind}_calls"] += 1
            if kind == "fft":
                # computed, not measured: input plus output array bytes
                self.counts["fft_bytes"] += np.asarray(args[0]).nbytes + result.nbytes
            return result

        return wrapper

    def _count_result(self, layer: str, name: str, result) -> None:
        """Counts read from the return values of public functions."""
        if layer == "quadrature":
            self.counts["evaluations"] += getattr(result, "evaluations", 0)
            self.counts["nonconverged"] += not getattr(result, "converged", True)
        elif name == "evaluate_records":
            self.counts["records"] += len(result)
        elif name == "run_checks":
            self.counts["checks"] += len(result)
            self.counts["checks_failed"] += sum(not r.passed for r in result.values())
        elif name == "check_bounds":
            self.counts["violations"] += sum(
                int(np.size(r.satisfied) - np.count_nonzero(r.satisfied)) for r in result)

    # -- metrics -------------------------------------------------------------

    def metrics(self, requests: int, bytes_out: int) -> dict:
        """Per-layer metrics, normalised per request (without trace.*)."""
        busy = defaultdict(float)
        selftime = defaultdict(float)
        calls = defaultdict(int)
        fn_calls = defaultdict(int)
        fn_busy = defaultdict(float)
        functional_under_trace = 0.0
        for i, (_, layer, fn, _, duration, self_s, parent) in enumerate(self.spans):
            selftime[layer] += self_s
            fn_calls[fn] += 1
            if self._outer[i]:
                busy[layer] += duration
                calls[layer] += 1
            # busy time of a function: its spans with no ancestor of the same name
            while parent >= 0 and self.spans[parent][2] != fn:
                parent = self.spans[parent][6]
            if parent < 0:
                fn_busy[fn] += duration
                if fn == "entropy_and_fisher" and self._under_trace[i]:
                    functional_under_trace += duration

        n = max(requests, 1)
        c = self.counts
        ms = 1000.0 / n
        identity_s = sum(fn_busy[f] for f in IDENTITY_FUNCTIONS)
        q_busy_ms = busy["quadrature"] * 1000.0
        return {
            "quadrature.calls": calls["quadrature"] / n,
            "quadrature.evaluations": c["evaluations"] / n,
            "quadrature.evals_per_call": c["evaluations"] / max(calls["quadrature"], 1),
            "quadrature.busy_ms": busy["quadrature"] * ms,
            "quadrature.evals_per_ms": c["evaluations"] / q_busy_ms if q_busy_ms else 0.0,
            "quadrature.nonconverged": c["nonconverged"] / n,
            "h3entropy.records": c["records"] / n,
            "h3entropy.eta_calls": (fn_calls["eta"] + fn_calls["eta_prime"]) / n,
            "h3entropy.busy_ms": busy["h3entropy"] * ms,
            "h3entropy.self_ms": selftime["h3entropy"] * ms,
            "spectral.functional_calls": fn_calls["entropy_and_fisher"] / n,
            "spectral.functional_ms": fn_busy["entropy_and_fisher"] * ms,
            "spectral.leggauss_calls": c["leggauss_calls"] / n,
            "spectral.leggauss_ms": c["leggauss_seconds"] * ms,
            "spectral.identity_ms": identity_s * ms,
            "spectral.trace_ms": fn_busy["entropy_trace"] * ms,
            "spectral.propagate_ms": (fn_busy["entropy_trace"] - functional_under_trace) * ms,
            "spectral.fft_calls": c["fft_calls"] / n,
            "spectral.fft_ms": c["fft_seconds"] * ms,
            "spectral.fft_mbytes_computed": c["fft_bytes"] / 1e6 / n,
            "bounds.calls": calls["bounds"] / n,
            "bounds.self_ms": selftime["bounds"] * ms,
            "bounds.violations": c["violations"] / n,
            "fixtures.calls": calls["fixtures"] / n,
            "fixtures.busy_ms": busy["fixtures"] * ms,
            "cli.requests": fn_calls["main"] / n,
            "cli.self_ms": selftime["cli"] * ms,
            "cli.bytes_out": bytes_out / n,
            "verify.checks": c["checks"] / n,
            "verify.self_ms": selftime["verify"] * ms,
            "verify.failed": c["checks_failed"] / n,
        }

    def write_spans(self, path) -> None:
        """Spans as JSON lines: request, layer, fn, start_s, duration_s, self_s, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
