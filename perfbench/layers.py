"""Traced run: spans at the public-call boundary of each package layer.

The benchmark measures from the outside. While a ``Tracer`` is installed,
each public function listed in ``TARGETS`` is replaced, in every package
module that refers to it, by a wrapper that records a span: name, start,
end, parent span, operation id and counts taken from the call's arguments
and result. Spans stay in memory until the run writes them out. Nothing in
the package itself is changed.

A layer that the workload does not call is measured by the guard sweep
(one in-process pass over the CLI commands plus a smoke-size pass of each
in-process workload), so every per-layer metric exists on every workload.
``payoff`` is absent: no workload calls it, and only its ``DiscountSign``
enum sits on a hot path.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
import warnings

import numpy as np

import bachelier_lab
from bachelier_lab import cli, model, ode, spectrum, verify

import workloads

MODULES = (bachelier_lab, model, ode, spectrum, verify, cli)


def _simulate_counts(a, result):
    return {"draws": a["n_paths"] * (a["grid"].n_times - 1), "bytes_out": result.values.nbytes}


def _hit_counts(a, result):
    return {"steps": a["n_paths"] * (a["grid"].n_times - 1), "substreams": a["n_paths"]}


def _sample_counts(a, result):
    return {"samples": a["n_samples"]}


def _normalize_counts(a, result):
    return {"est_error": result.estimated_error}


# (span name, owner, attribute, counter); a class owner marks a classmethod.
TARGETS = (
    ("model.simulate", model, "simulate_paths", _simulate_counts),
    ("model.hit", model, "hitting_frequency", _hit_counts),
    ("model.oracle", model, "hitting_probability", None),
    ("model.oracle", model, "exact_marginal", None),
    ("verify.drift", verify, "drift_estimate", _sample_counts),
    ("verify.integrability", verify, "integrability_check", _sample_counts),
    ("ode.roots", ode, "characteristic_roots_full", None),
    ("ode.roots", ode, "characteristic_roots_hedged", None),
    ("spectrum.ladder", spectrum.RateSpectrum, "build", None),
    ("spectrum.normalize", spectrum, "normalization_constant", _normalize_counts),
    ("spectrum.surface", spectrum, "payoff_surface", None),
    ("cli.run", cli, "run", None),
)
LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS))


class Tracer:
    """In-memory span recorder; ``phase`` tags spans as "loop" or "sweep"."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "loop"
        self._stack: list[int] = []
        self._op = 0

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        if name == "op":
            self._op += 1
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op": self._op,
               "phase": self.phase, "counts": counts}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            rec["counts"]["warnings"] = len(caught)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["counts"].update(counter(bound.arguments, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        for name, owner, attr, counter in TARGETS:
            if isinstance(owner, type):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, classmethod(self.wrap(name, original.__func__, counter)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            for module in MODULES:
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def finish(self) -> None:
        """Attach duration and self time (duration minus direct children) to every span."""
        for rec in self.spans:
            rec["dur"] = rec["end"] - rec["start"]
            rec["self"] = rec["dur"]
        for rec in self.spans:
            if rec["parent"] is not None:
                self.spans[rec["parent"]]["self"] -= rec["dur"]


# --- probes ---------------------------------------------------------------


def rng_probes(smoke: bool) -> dict:
    """Per-substream reset cost and bulk draw cost of ``SeedStreams``."""
    n_resets, n_draws = (2_000, 200_000) if smoke else (20_000, 4_000_000)
    streams = model.SeedStreams(20240917)
    reset_us, draw_ns = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(n_resets):
            streams.generator(i).standard_normal(1)
        reset_us.append((time.perf_counter() - t0) / n_resets * 1e6)
        gen = streams.generator(n_resets)
        t0 = time.perf_counter()
        gen.standard_normal(n_draws)
        draw_ns.append((time.perf_counter() - t0) / n_draws * 1e9)
    return {"model.rng.reset_us": statistics.median(reset_us),
            "model.rng.ns_per_draw": statistics.median(draw_ns)}


def ode_eval_probe(smoke: bool) -> dict:
    """Profile evaluation on ``verify``'s 8192-sample chunks: drift_lab's sine and full forms."""
    x = np.linspace(0.3, 0.7, 8192)
    profiles = [workloads.sine_profile(n, 0.2, 1.0)[1]() for n in (1, 2, 3)]
    profiles += [workloads.full_profile(r, 0.2)() for r in workloads.DriftLab.FULL.values()]
    reps = 4 if smoke else 40
    per_point = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            for v in profiles:
                v(x)
        per_point.append((time.perf_counter() - t0) / (reps * len(profiles) * x.size) * 1e9)
    return {"ode.eval.ns_per_point": statistics.median(per_point)}


def sweep(tracer: Tracer, seed: int, smoke: bool) -> None:
    """Guard sweep: every CLI command in-process, then a smoke pass of each
    in-process workload. Its outcomes feed layer metrics only."""
    tracer.phase = "sweep"
    commands = workloads.SMOKE_ARGV if smoke else workloads.README_ARGV + workloads.HEAVY_ARGV
    for argv in commands:
        with tracer.span("cli.parse"):
            cli.build_parser().parse_args(argv)
        with tracer.span("op", kind="cli") as rec:
            code, out, err = workloads.run_in_process(argv)
        rec["counts"].update(bytes_out=len(out), stderr_lines=len(err.splitlines()),
                             exit_nonzero=int(code != 0), ok=int(code == 0))
    rng = np.random.default_rng([seed, 2])
    for cls in (workloads.PathsWide, workloads.PassageDeep, workloads.DriftLab):
        for op in cls(smoke=True).pass_ops(rng):
            workloads.execute(op, tracer)


def import_times(stderr: str) -> dict:
    """Cumulative import seconds of the package and of ``scipy.stats`` from ``-X importtime``."""
    found = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                found.setdefault(name.strip(), int(cumulative) * 1e-6)
    return {"cli.import_s": found.get("bachelier_lab", 0.0),
            "cli.import_scipy_stats_s": found.get("scipy.stats", 0.0)}


# --- per-layer metrics ----------------------------------------------------


def _select(spans, match):
    """Spans of the timed loop that match, or the sweep's when the loop has none."""
    loop = [s for s in spans if s["phase"] == "loop" and match(s)]
    return loop or [s for s in spans if s["phase"] == "sweep" and match(s)]


def _seconds(spans, field="dur"):
    return sum(s[field] for s in spans)


def _count(spans, key):
    return sum(s["counts"].get(key, 0) for s in spans)


def _mean(spans, key):
    return _count(spans, key) / len(spans) if spans else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    m = {}
    by_layer = {layer: _select(spans, lambda s, n=layer: s["name"] == n) for layer in LAYERS}
    for layer, sel in by_layer.items():
        m[f"{layer}.busy_s"] = _seconds(sel)
        m[f"{layer}.self_s"] = _seconds(sel, "self")
        m[f"{layer}.calls"] = len(sel)

    def per_unit(layer, key, scale):
        work = _count(by_layer[layer], key)
        return m[f"{layer}.busy_s"] * scale / work if work else 0.0

    hits = by_layer["model.hit"]
    m["model.simulate.ns_per_draw"] = per_unit("model.simulate", "draws", 1e9)
    m["model.simulate.bytes_out"] = _mean(by_layer["model.simulate"], "bytes_out")
    m["model.hit.ns_per_step"] = per_unit("model.hit", "steps", 1e9)
    m["model.hit.draws_per_substream"] = (
        _count(hits, "steps") / _count(hits, "substreams") if hits else 0.0)
    m["verify.drift.ns_per_sample"] = per_unit("verify.drift", "samples", 1e9)
    m["verify.integrability.ns_per_sample"] = per_unit("verify.integrability", "samples", 1e9)
    verify_ops = _select(spans, lambda s: s["name"] == "op"
                         and s["counts"].get("kind") in ("drift", "integrability"))
    m["verify.verdict_ok_ratio"] = _mean(verify_ops, "ok")
    norm = by_layer["spectrum.normalize"]
    m["spectrum.normalize.us_per_call"] = (
        m["spectrum.normalize.busy_s"] * 1e6 / len(norm) if norm else 0.0)
    m["spectrum.normalize.max_est_error"] = max((s["counts"]["est_error"] for s in norm),
                                                default=0.0)
    m["spectrum.normalize.warnings"] = _count(norm, "warnings")

    # CLI stages come from the sweep's in-process runs; render is derived as
    # the self time of cli.run (everything but its compute spans) minus parse.
    swept = [s for s in spans if s["phase"] == "sweep"]
    m["cli.parse_s"] = _seconds([s for s in swept if s["name"] == "cli.parse"])
    runs = [s for s in swept if s["name"] == "cli.run"]
    m["cli.run_s"] = _seconds(runs)
    m["cli.render_s"] = _seconds(runs, "self") - m["cli.parse_s"]
    cli_ops = _select(spans, lambda s: s["name"] == "op" and s["counts"].get("kind") == "cli")
    m["cli.bytes_out"] = _mean(cli_ops, "bytes_out")
    m["cli.stderr_lines"] = _mean(cli_ops, "stderr_lines")
    m["cli.exit_nonzero"] = _count(cli_ops, "exit_nonzero")
    m["op.self_s"] = _seconds([s for s in spans if s["phase"] == "loop" and s["name"] == "op"],
                              "self")
    m["trace.spans"] = len(spans)
    return m
