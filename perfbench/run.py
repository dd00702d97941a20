"""gfusion benchmark: per-command CLI latency on two workloads.

    python3 perfbench/run.py --workload cli_large --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

One run sets up the workload's input files several times, each time in a
fresh interpreter (``setup_s`` is the median), half before and half after one
worker process that drives ``gfusion.cli.main`` in a closed loop for
``--seconds`` and checks every payload.  The BLAS thread count is set here,
not inherited.  A report goes to stdout; its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``--smoke`` runs one pass of every workload, untraced then traced, and checks
the outputs but no timings.

This script imports neither numpy nor gfusion: it only starts and times the
processes that do.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

BLAS_THREADS = 1
SETUP_REPS = 3
# Every time is read at the host speed where the part of the probe (probe.py)
# it is scaled by takes this many ms: it is multiplied by the part's entry
# here over the part's time next to it.  Set-up is scaled by "interp".
PROBE_REF_MS = {"interp": 9.0, "lapack": 8.0}
# A run, set-up included, must end well inside this many seconds.
RUN_BUDGET_S = 170.0

# Workload and metric names and units, in report order, come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def blas_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # gfusion comes from this checkout's src/, nothing else
    return env


class RunFailed(Exception):
    pass


def _child(args, deadline, env):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("run budget exhausted")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise RunFailed(f"{args[0]} timed out") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def set_up(workload, seed, inputs, reps, deadline, env, plan=False):
    """Write the inputs ``reps`` times, each in a fresh interpreter.

    With ``plan`` the last repetition also writes the request plan.  Returns
    the seconds of each repetition, the seconds within it to reach
    ``import gfusion`` (both scaled to the reference host speed by the
    probe's interpreted part, run right after the repetition), and the
    digests of the files each one wrote.
    """
    times, imports, digests = [], [], []
    for rep in range(reps):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        args = [str(HERE / "setup_inputs.py"), "--workload", workload, "--seed", str(seed), "--dir", str(inputs)]
        if plan and rep == reps - 1:
            args.append("--plan")
        t_spawn = time.monotonic()
        line = json.loads(_child(args, deadline, env).strip().splitlines()[-1])
        scale = PROBE_REF_MS["interp"] / (1e3 * line["probe_s"])
        times.append(scale * (line["t_done"] - t_spawn))
        imports.append(scale * (line["t_import"] - t_spawn))
        digests.append(line["digests"])
    return times, imports, digests


def percentile_label(samples):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def samples_by_request(res, traced):
    """Per distinct request (argv): its latencies in ms over the run's traced or
    untraced passes, raw and scaled to the reference host speed."""
    raw, scaled = {}, {}
    for latencies, probes, t in zip(res["latency_ms"], res["probe_ms"], res["traced"]):
        if t == traced:
            for (_, argv), part, ms, probe_ms in zip(res["request_keys"], res["request_probes"], latencies, probes):
                raw.setdefault(argv, []).append(ms)
                scaled.setdefault(argv, []).append(ms * PROBE_REF_MS[part] / probe_ms[res["probe_parts"].index(part)])
    return raw, scaled


def trimmed_mean(samples):
    """Mean of the middle 60% of the samples (all of them when fewer than five)."""
    cut = len(samples) // 5
    return statistics.fmean(sorted(samples)[cut:len(samples) - cut])


def pass_ms(res, traced):
    """One pass at each request's latency in the run (see e2e_metrics)."""
    _, scaled = samples_by_request(res, traced)
    return sum(trimmed_mean(scaled[argv]) for _, argv in res["request_keys"])


def e2e_metrics(res, setup_times):
    """End-to-end metrics of an untraced run, and per command (sample count, median, high percentile).

    The host's speed swings up to 2x, in streaks of seconds to minutes, so
    each latency is scaled to the reference host speed by the probes run
    around it, and a request's latency in a run is the trimmed mean of its
    scaled latencies (identical argv within a pass and across passes).  A
    command's metric is the mean of those over its distinct requests, so a
    fixed mix of sizes stays a fixed mix, and ``pass_s`` is their sum over
    the request list.  The sample count, median and high percentile of the raw latencies,
    what a user waits on this machine, are reported beside each metric.
    """
    keys = res["request_keys"]
    raw, scaled = samples_by_request(res, traced=False)
    mean = {argv: trimmed_mean(v) for argv, v in scaled.items()}
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": pass_ms(res, traced=False) / 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {}
    for key in E2E_UNITS:
        if key.startswith("cmd_ms."):
            argvs = list(dict.fromkeys(argv for metric, argv in keys if metric == key))
            if not argvs:
                raise RunFailed(f"workload issued no request for {key}")
            values[key] = statistics.fmean(mean[argv] for argv in argvs)
            samples = [ms for argv in argvs for ms in raw[argv]]
            detail[key] = (len(samples), statistics.median(samples), percentile_label(samples))
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in E2E_UNITS.items()}
    return metrics, detail


def layer_metrics(res):
    layers = res["layers"]
    calls = sum(layers.get(f"perturb.mode.{m}", 0.0) for m in ("certified_sufficient", "exact", "sampled", "none"))
    decided = layers.get("perturb.mode.certified_sufficient", 0.0) + layers.get("perturb.mode.exact", 0.0)
    traced, untraced = pass_ms(res, traced=True), pass_ms(res, traced=False)
    derived = {
        "perturb.certifier_calls": calls,
        "perturb.decided_ratio": decided / calls if calls else 0.0,
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
        "trace.spans": res["spans"] / sum(res["traced"]),
    }
    values = {**layers, **derived}
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in LAYER_UNITS.items()}


def report(res, detail):
    m = res["machine"]
    print(f"# gfusion benchmark  workload={res['workload']} seed={res['seed']} seconds={res['seconds']} "
          f"trace={res['trace']}")
    print(f"# machine: nproc={m['nproc']} usable_cpus={m['cpus_usable']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']} blas_threads={m['blas_threads']} ({m['platform']})")
    print(f"# closed loop, 1 client, {res['requests_per_pass']} requests per pass, {res['attempted']} requests in "
          f"{len(res['pass_s'])} passes ({sum(res['traced'])} traced)")
    for k, part in enumerate(res["probe_parts"]):
        probes = [ms[k] for row in res["probe_ms"] for ms in row]
        print(f"# host-speed probe, {part} part: median {statistics.median(probes):.2f} ms, range "
              f"{min(probes):.2f}-{max(probes):.2f} ms; times below are scaled to {PROBE_REF_MS[part]} ms")
    print("# set-up repetitions: " + ", ".join(f"{t:.3f}s" for t in res["setup_s"])
          + "; of which start-up to import gfusion: " + ", ".join(f"{t:.3f}s" for t in res["import_s"]))
    ratio = res["failed"] / res["attempted"]
    print(f"# failed_ratio = {ratio:.4f}  ({res['failed']} failed / {res['attempted']} attempted)")
    for f in res["failures"]:
        print(f"#   FAILED {' '.join(f['argv'])}: {'; '.join(f['problems'])[:300]}")
    for name, v in res["metrics"].items():
        extra = ""
        if name in detail:
            count, median, pct = detail[name]
            extra = f"  (raw: n={count}, median={median:.3f} ms" + (f", p{pct[0]}={pct[1]:.3f} ms" if pct else "") + ")"
        print(f"{name:<52} {v['value']:>14.4f} {v['unit']}{extra}")


def measure(workload, seed, seconds, trace, passes=None):
    """One run; returns (correct, attempted, failed, metrics)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    env = blas_env()
    tag = f"{workload}-seed{seed}-trace{trace}"
    inputs = WORK / f"{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    # Half the set-up repetitions run before the worker and half after it, so
    # that their median does not hang on the machine's speed at one moment.
    reps = 1 if passes else SETUP_REPS
    try:
        setup_times, import_times, digests = set_up(workload, seed, inputs, (reps + 1) // 2, deadline, env, plan=True)
        out = OUT / f"{tag}.json"
        args = [str(HERE / "worker.py"), "--dir", str(inputs), "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(out)]
        if passes:
            args += ["--passes", str(passes)]
        if trace:
            args += ["--spans", str(OUT / f"{tag}.spans.jsonl")]
        _child(args, deadline, env)
        res = json.loads(out.read_text(encoding="utf-8"))
        more_times, more_imports, more_digests = set_up(workload, seed, inputs, reps // 2, deadline, env)
        setup_times += more_times
        import_times += more_imports
        digests += more_digests
        if any(d != digests[0] for d in digests):
            raise RunFailed("set-up repetitions wrote different input files for the same seed")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if trace:
        metrics, detail = layer_metrics(res), {}
    else:
        metrics, detail = e2e_metrics(res, setup_times)
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace, setup_s=setup_times,
               import_s=import_times, metrics=metrics)
    report(res, detail)
    out.write_text(json.dumps(res, indent=1), encoding="utf-8")
    correct = res["failed"] == 0
    return correct, res["attempted"], res["failed"], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one pass of every workload; checks outputs, not timings")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gfusion" / "__init__.py").is_file():
        print(f"error: no gfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        if args.smoke:
            ok = True
            for w in WORKLOADS:
                correct, attempted, failed, _ = measure(w, args.seed, 0, 1, passes=2)
                print(f"smoke {w}: {'ok' if correct else 'FAILED'} ({failed} failed / {attempted} attempted)")
                ok &= correct
            return 0 if ok else 1
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        correct, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
