"""The measured process: one client driving ``gfusion.cli.main(argv)`` in a closed loop.

Each request is issued only after the previous one returned, in this one
process, on the files written by ``setup_inputs.py``.  A pass is one run
through the fixed request list; passes repeat until ``--seconds`` have
passed, the last one cut short (see ``main``).  The host-speed probe
(``probe.py``) runs between requests.  With ``--trace 1`` untraced and
traced passes alternate; every traced payload must match the untraced one
byte for byte.

Writes a JSON result file; ``run.py`` turns it into metrics.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import gfusion  # noqa: E402
import gfusion.cli as cli  # noqa: E402

import checks  # noqa: E402
from probe import PARTS, probe  # noqa: E402
from tracing import Tracer  # noqa: E402

# A traced run may overshoot --seconds by this factor to finish the pass it
# started; an untraced run stops at --seconds, within a pass.
OVERRUN = 1.15
# The host-speed probe runs once this many seconds of requests have passed
# since the last probe (see run_pass).
PROBE_EVERY_S = 0.2


def issue(argv):
    """Run one request; (exit code, stdout text, seconds, error).

    Garbage the previous request left is collected first, untimed: each
    request starts from the same collector state, as a command of the CLI
    does in its own process.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    t0 = perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
        error = err.getvalue()
    except Exception:  # a request that raises is a failed request
        code = -1
        error = traceback.format_exc(limit=3)
    finally:
        dt = perf_counter() - t0
        sys.stdout, sys.stderr = saved
    if code == 2 and error is None:
        error = err.getvalue()
    return code, out.getvalue(), dt, error


def run_pass(requests, tracer=None, pass_index=0, spill=None, deadline=None):
    """Issue every request once; (seconds, [(code, payload sha256, seconds, probe parts' seconds, error)]).

    The probe runs before the first request, after the last, and after any
    request that brings the request time since the last probe to
    ``PROBE_EVERY_S``.  A request's probe times are the means of the probes'
    parts just before and just after it.  Only each payload's hash is kept,
    so memory does not grow with the pass count; with ``spill`` the payload
    text is first written to that directory.  The pass time is the sum of the request
    latencies, so the probes and this bookkeeping are not counted.  With
    ``deadline`` (a ``perf_counter`` reading) the pass stops at the first
    request due after it; the first request is always issued.
    """
    results, pending = [], []
    before, since = probe(), 0.0
    for i, req in enumerate(requests):
        if i and deadline is not None and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.request = (pass_index, i)
        code, text, dt, error = issue(req["argv"])
        if spill is not None:
            (spill / f"{i}.json").write_text(text, encoding="utf-8")
        results.append([code, hashlib.sha256(text.encode()).hexdigest(), dt, None, error])
        del text  # not held while the next request runs
        pending.append(results[-1])
        since += dt
        last = i == len(requests) - 1 or (deadline is not None and perf_counter() >= deadline)
        if since >= PROBE_EVERY_S or last:
            after = probe()
            for r in pending:
                r[3] = [(b + a) / 2 for b, a in zip(before, after)]
            pending, before, since = [], after, 0.0
    return sum(r[2] for r in results), results


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=None, help="fixed pass count (smoke mode)")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    if Path(gfusion.__file__).resolve().parent != (ROOT / "src" / "gfusion").resolve():
        raise SystemExit(f"gfusion imported from {gfusion.__file__}, not from {ROOT / 'src'}")
    workdir = Path(args.dir).resolve()
    plan = json.loads((workdir / "requests.json").read_text(encoding="utf-8"))
    requests = plan["requests"]
    os.chdir(workdir)  # argv names files relative to the input directory

    for argv in plan["warmup"]:
        issue(argv)
    for _ in range(5):
        probe()
    # What is alive now lives for the whole run; the collections before each
    # request need not walk it again.
    gc.collect()
    gc.freeze()

    # The first pass's payloads are checked after the loop; park them on disk.
    payloads = workdir / "payloads"
    payloads.mkdir()
    t_start = perf_counter()
    passes = [run_pass(requests, spill=payloads)]
    last_wall = perf_counter() - t_start
    # Peak memory of warm-up plus one pass, which does not grow with the pass count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # With tracing, passes alternate untraced and traced, so that both kinds
    # see the same machine and their difference is the tracing overhead.
    tracer = Tracer() if args.trace else None
    least = 2 if args.trace else 1  # passes that run whatever the time
    traced = [False]
    deadline = t_start + args.seconds
    while True:
        if args.passes is not None:
            if len(passes) >= args.passes:
                break
        elif len(passes) >= least:
            # An untraced run stops at the deadline, its last pass cut short:
            # latencies are kept per request, so a partial pass still counts.
            # Traced passes are whole, so the per-pass span counts are too:
            # another starts only if it is expected to end within the overrun.
            now = perf_counter()
            if now >= deadline or (tracer is not None and now - t_start + last_wall > OVERRUN * args.seconds):
                break
        traced.append(tracer is not None and len(passes) % 2 == 1)
        if traced[-1]:
            tracer.install()
        t_pass = perf_counter()
        try:
            cut = deadline if tracer is None and args.passes is None else None
            passes.append(run_pass(requests, tracer if traced[-1] else None, len(passes), deadline=cut))
            last_wall = perf_counter() - t_pass
        finally:
            if traced[-1]:
                tracer.uninstall()

    # Check the first pass against the reference facts; later passes (traced
    # or not) must repeat its exit codes and payload bytes exactly.
    failures = []
    for i, (req, (code, _, _, _, error)) in enumerate(zip(requests, passes[0][1])):
        problems = [f"raised or rejected: {error}"] if error else []
        if not problems:
            text = (payloads / f"{i}.json").read_text(encoding="utf-8")
            try:
                problems = checks.check(req, code, text, workdir)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"payload misses an expected field: {exc!r}"]
        if problems:
            failures.append({"request": i, "argv": req["argv"], "problems": problems})
    wrong = {f["request"] for f in failures}
    failed = 0
    for p, (_, results) in enumerate(passes):
        for i, (code, h, *_) in enumerate(results):
            same = [code, h] == passes[0][1][i][:2]
            if not same:
                failures.append({"request": i, "pass": p, "argv": requests[i]["argv"],
                                 "problems": ["payload differs from the first pass"]})
            failed += i in wrong or not same

    result = {
        "machine": machine_info(),
        "attempted": sum(len(results) for _, results in passes),
        "failed": failed,
        "failures": failures[:20],
        "requests_per_pass": len(requests),
        "pass_s": [s for s, _ in passes],
        "traced": traced,
        "request_keys": [[req["metric"], " ".join(req["argv"])] for req in requests],
        "request_probes": [req["probe"] for req in requests],
        "latency_ms": [[r[2] * 1e3 for r in results] for _, results in passes],
        "probe_parts": PARTS,
        "probe_ms": [[[t * 1e3 for t in r[3]] for r in results] for _, results in passes],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        n = sum(traced)
        agg = tracer.aggregate()
        result["layers"] = {k: (v if k.endswith((".max_order", ".max_elems")) else v / n) for k, v in agg.items()}
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
