"""fbpaths benchmark: one command, three workloads, exact output checks.

    python3 perfbench/run.py --workload char-large-L --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones, each with its
unit.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # before and again after the measured passes
HARD_LIMIT_S = 170  # the whole run must end within 180 s


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def setup_seconds(workloads, name: str, seed: int, deadline: float) -> list[float]:
    """Fresh interpreter + import fbpaths + the workload's task list, timed."""
    argv = [str(HERE / "setup_probe.py"), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        wall, code, _ = workloads.run_child(argv, deadline)
        if code:
            raise RuntimeError("setup probe failed")
        times.append(wall)
    return times


def end_to_end(res, setup: list[float], scale: float) -> dict[str, float]:
    """Metrics of an untraced run; times are multiplied by `scale`."""
    return {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": statistics.median(res.pass_s) * scale,
        "op_p50_s": statistics.median(res.op_s) * scale,
        "op_p90_s": quantile(res.op_s, 0.9) * scale,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1 - res.failed / res.attempted,
    }


def per_layer(t: dict, n_ops: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics from merged span totals (tracing.merge)."""
    calls, busy, self_s = t["calls"], t["busy"], t["self"]
    gen, cache, lengths = t["gen"], t["cache"], t["lengths"]

    def ratio(x, y):
        return x / y if y else 0.0

    g_hit, g_miss = cache["qpoly.gaussian"]
    s_hit, s_miss = cache["characters.build_system"]
    visited = gen["characters.mvec"][0]
    kept = lengths["characters.summands_kept"]
    out = {
        "qpoly.gaussian.calls": calls["qpoly.gaussian"],
        "qpoly.gaussian.busy_s": busy["qpoly.gaussian"],
        "qpoly.gaussian.hit_ratio": ratio(g_hit, g_hit + g_miss),
        "qpoly.div_exact.calls": calls["qpoly.div_exact"],
        "qpoly.div_exact.busy_s": busy["qpoly.div_exact"],
        "qpoly.mul.calls": calls["qpoly.mul"],
        "qpoly.mul.busy_s": busy["qpoly.mul"],
        "characters.bosonic.busy_s": busy["characters.bosonic"],
        "characters.fermionic.busy_s": busy["characters.fermionic"],
        "characters.fermionic.self_s": self_s["characters.fermionic"],
        "characters.build_system.calls": calls["characters.build_system"],
        "characters.build_system.hit_ratio": ratio(s_hit, s_hit + s_miss),
        "characters.mvec_visited": visited,
        "characters.summands_kept": kept,
        "characters.summand_yield": ratio(kept, visited),
        "paths.chi.calls": calls["paths.chi"],
        "paths.chi.busy_s": busy["paths.chi"],
        "paths.seqs_visited": gen["paths.seqs"][0],
        "paths.chi_tilde.busy_s": busy["paths.chi_tilde"],
        "paths.path_objects": calls["paths.path_init"],
        "paths.striking.calls": calls["paths.striking"],
        "paths.stats.calls": calls["paths.stats"],
        "paths.kernel.busy_s": busy["paths.kernel"],
        "paths.striking_per_op": ratio(calls["paths.striking"], n_ops),
        "paths.path_objects_per_op": ratio(calls["paths.path_init"], n_ops),
        "transforms.b1.busy_s": busy["transforms.b1"],
        "transforms.b3.busy_s": busy["transforms.b3"],
        "transforms.decompose.busy_s": busy["transforms.decompose"],
        "transforms.moves": calls["transforms.move"],
        "transforms.verify.busy_s": busy["transforms.verify"],
        "model.continued_fraction.calls": calls["model.continued_fraction"],
        "model.continued_fraction.busy_s": busy["model.continued_fraction"],
        "cli.tasks_s": gen["cli.tasks"][1],
        "cli.report_bytes": 0,
        "cli.pool_efficiency": 0.0,
        "trace.overhead_frac": 0.0,
    }
    shares = tracing.layer_shares(t)
    for layer in ("qpoly", "model", "paths", "transforms", "characters", "cli"):
        out[f"layer.{layer}.self_frac"] = shares.get(layer, 0.0)
    for model in ("m3_8", "m11_38"):
        for layer in ("qpoly", "characters"):
            out[f"char.{model}.{layer}.self_frac"] = 0.0
    out.update(extra)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    if not (ROOT / "src" / "fbpaths" / "__init__.py").is_file():
        print(f"error: no fbpaths sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            tasks = wl.build(args.seed)
            totals, n_ops, attempted, failed, extra = wl.run_traced(tasks, deadline)
            values = per_layer(totals, n_ops, extra)
            wanted = spec["per_layer"]
        else:
            jobs = getattr(wl, "JOBS", 1)
            if jobs == 1:  # the work and the calibration then share one CPU
                os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
            speed = workloads.Speed(jobs)
            speed.sample()
            setup = setup_seconds(workloads, args.workload, args.seed, deadline)
            tasks = wl.build(args.seed)
            res = wl.run(tasks, args.seconds, deadline, speed)
            setup += setup_seconds(workloads, args.workload, args.seed, deadline)
            speed.sample()
            values = end_to_end(res, setup, speed.factor())
            attempted, failed = res.attempted, res.failed
            unscaled = end_to_end(res, setup, 1.0)
            print(json.dumps({"speed_factor": speed.factor(), "samples": len(speed.samples),
                              "unscaled": {k: unscaled[k] for k in ("setup_s", "wall_s")}}))
            wanted = spec["end_to_end"]
    except workloads.Deadline:
        print(f"error: run did not finish within {HARD_LIMIT_S} s", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
