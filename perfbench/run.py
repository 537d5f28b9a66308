"""bachelier-lab benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload paths_wide --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory and from nowhere else. The run sets up several times (a cold
``import bachelier_lab`` in a fresh interpreter, input generation and a
smoke-size warm-up pass) and reports the median as ``setup_s``. It then
repeats the workload's pass of operations until ``--seconds`` would be
exceeded, always finishing at least one pass, and checks every operation's
output against an oracle. After the loop it measures the known O(dt) bias
of ``drift_estimate`` on the sine probes that carry it (see
``workloads.DriftLab``); those probes are reported, not counted as
operations.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json. With ``--trace 1`` the same loop
runs untraced for half of ``--seconds`` and traced for the other half,
followed by the probes and the guard sweep, and the JSON carries the
per-layer metrics instead. A human-readable
report, the environment and the tracing overhead precede the JSON line; the
result and the spans are also written under ``perfbench/out/``.

``--smoke`` shrinks every size and keeps every check, for tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5


def _import_package():
    init = SRC / "bachelier_lab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: package sources not found at {init}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bachelier_lab

    if Path(bachelier_lab.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported bachelier_lab from {bachelier_lab.__file__}, not {init}")
    return bachelier_lab


def _environment(package, seed: int) -> dict:
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "bachelier_lab": package.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed}


def _set_up(workload, seed: int, reps: int) -> tuple[list[float], list[dict]]:
    """Time ``reps`` set-ups: cold import in a child interpreter, inputs and warm-up."""
    import layers
    import workloads

    times, imports = [], []
    for rep in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bachelier_lab"],
                              cwd=ROOT, env=workloads.child_env(), capture_output=True,
                              text=True, timeout=workloads.CLI_TIMEOUT_S, check=True)
        workload.setup(np.random.default_rng([seed, 100 + rep]))
        times.append(time.perf_counter() - t0)
        imports.append(layers.import_times(proc.stderr))
    return times, imports


def closed_loop(workload, seed: int, seconds: float, tracer=None) -> list[tuple[float, list]]:
    """Passes of (wall seconds, [(op, outcome)]); a new pass starts only if it
    is expected to end within ``seconds``."""
    import workloads

    rng = np.random.default_rng([seed, 1])
    passes = []
    start = time.perf_counter()
    while True:
        ops = workload.pass_ops(rng)
        t0 = time.perf_counter()
        results = [(op, workloads.execute(op, tracer)) for op in ops]
        passes.append((time.perf_counter() - t0, results))
        expected = statistics.median(wall for wall, _ in passes)
        if time.perf_counter() - start + expected > seconds:
            return passes


def _outcomes(passes):
    return [(op, out) for _, results in passes for op, out in results]


def end_to_end(workload, passes, setup_times, rss_mb: float,
               units: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics and the report lines that explain them."""
    outcomes = [out for _, out in _outcomes(passes)]
    # Work-normalised variance per estimator operation: the median over its
    # repeats, so a burst of fast or slow seconds does not move it.
    per_label = {}
    for op, out in _outcomes(passes):
        if out.se2 is not None:
            per_label.setdefault(op.label, []).append(out.se2 * out.seconds)
    op_s = np.array([out.seconds for out in outcomes])
    wall = statistics.median(w for w, _ in passes)
    tail = float(np.percentile(op_s, workload.tail_q))
    beyond = int((op_s > tail).sum())
    draws = sum(out.draws for _, out in passes[0][1])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "op_p50_s": float(np.median(op_s)),
        "op_tail_s": tail,
        "draws_per_s": draws / wall,
        "var_x_time": statistics.geometric_mean(statistics.median(v)
                                                for v in per_label.values()),
        "peak_rss_mb": rss_mb,
    }
    tail_name = "max" if workload.tail_q == 100 else f"p{workload.tail_q:g}"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": f"median of {len(passes)} passes of {len(passes[0][1])} operations",
        "op_p50_s": f"n={op_s.size}",
        "op_tail_s": f"{tail_name}, n={op_s.size}, {beyond} beyond",
        "draws_per_s": f"{draws} draws per pass",
        "var_x_time": f"SE^2 x op seconds, geometric mean over {len(per_label)} estimator "
                      f"operations of each one's median",
    }
    lines = [f"{k:<14} {v:<14.6g} {units[k]:<4} {notes.get(k, '')}" for k, v in metrics.items()]
    failed = sum(not out.ok for out in outcomes)
    lines.append(f"{'failed_ratio':<14} {failed / len(outcomes):<14.6g} 1    "
                 f"{failed}/{len(outcomes)} operations missed their oracle")
    biased = [out.bias for out in outcomes if out.bias is not None]
    if workload.reports_grid_bias and biased:
        bias = float(np.mean([b for b, _ in biased]))
        se = math.sqrt(sum(s * s for _, s in biased)) / len(biased)
        lines.append(f"{'grid_bias':<14} {bias:<14.6g} 1    oracle minus frequency, "
                     f"SE {se:.2g}, pooled over {len(biased)} operations")
    return metrics, lines


def _cli_stderr_report(passes) -> list[str]:
    lines = []
    for op, out in passes[0][1]:
        if op.kind == "cli" and "--n-max" in op.label and out.counts:
            lines.append(f"stderr of '{op.label}': {out.counts['integration_warnings']} "
                         f"IntegrationWarning, {out.counts['stderr_lines']} lines in all")
    return lines


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    package = _import_package()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    env = _environment(package, args.seed)
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup_times, imports = _set_up(workload, args.seed, 1 if args.smoke else SETUP_REPS)
    # A traced run splits its time between the untraced and the traced loop.
    loop_seconds = args.seconds / 2 if args.trace else args.seconds
    passes = closed_loop(workload, args.seed, loop_seconds)
    metrics, lines = end_to_end(workload, passes, setup_times,
                                _peak_rss_mb(children=workload.name == "cli_cold"),
                                {m["name"]: m["unit"] for m in spec["end_to_end"]})
    lines += _cli_stderr_report(passes)
    # The known drift_estimate defect, measured outside the timed loop in every run.
    bias = workloads.DriftLab(smoke=args.smoke).bias_probes(np.random.default_rng([args.seed, 3]))
    lines.append("known defect, drift_estimate O(dt) bias (z against analytic_drift, "
                 "predicted in brackets): "
                 + "; ".join(f"{b['probe']} {b['z']:+.1f} [{b['predicted_z']:+.1f}]"
                             for b in bias))
    all_passes = list(passes)
    spans = []
    if args.trace:
        tracer = layers.Tracer()
        with tracer.installed():
            traced = closed_loop(workload, args.seed, loop_seconds, tracer)
            layers.sweep(tracer, args.seed, args.smoke)
        tracer.finish()
        probes = {**layers.rng_probes(args.smoke), **layers.ode_eval_probe(args.smoke)}
        spans = tracer.spans
        traced_wall = statistics.median(w for w, _ in traced)
        overhead = traced_wall - metrics["wall_s"]
        metrics = {**layers.layer_metrics(spans), **probes,
                   **{k: statistics.median(d[k] for d in imports) for k in imports[0]},
                   "verify.dt_bias_max_z": max(abs(b["z"]) for b in bias),
                   "trace.overhead_s": overhead}
        all_passes += traced
        lines.append(f"tracing overhead: traced wall_s {traced_wall:.6g} s - untraced "
                     f"{traced_wall - overhead:.6g} s = {overhead:+.6g} s "
                     f"({len(spans)} spans)")
        lines += [f"{k:<40} {v:.6g}" for k, v in metrics.items()]

    outcomes = _outcomes(all_passes)
    failed_ops = {}
    for op, out in outcomes:
        if not out.ok:
            failed_ops.setdefault(op.label, out.detail)
    op_seconds = {}
    for op, out in _outcomes(passes):
        op_seconds.setdefault(op.label, []).append(out.seconds)
    if failed_ops:
        lines.append("operations that missed their oracle (first miss): "
                     + "; ".join(f"{k} [{v}]" for k, v in sorted(failed_ops.items())))
    for line in lines:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {}
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            sys.exit(f"error: metric {entry['name']} was not measured (got {value!r})")
        result[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    failed = sum(not out.ok for _, out in outcomes)
    doc = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
           "metrics": result}

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**doc, "environment": env, "failed_operations": failed_ops, "bias_probes": bias,
         "report": lines,
         "all_metrics": metrics, "pass_walls_s": [w for w, _ in passes],
         "op_seconds": [[op.label, out.seconds] for op, out in _outcomes(passes)],
         "op_median_s": {k: statistics.median(v) for k, v in sorted(op_seconds.items())}},
        indent=1))
    if spans:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
