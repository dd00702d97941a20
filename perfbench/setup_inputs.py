"""One set-up repetition in a fresh interpreter: import gfusion, write the inputs.

Prints one JSON line with the monotonic clock read after ``import gfusion``
and after the last input file is written, and the median time of the
host-speed probe's interpreted part, run right after that; the caller
subtracts the clock it read before starting this process.  With ``--plan`` it then, untimed, writes
``requests.json``: the request list with the reference facts for each check.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gfusion  # noqa: E402

t_import = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402

import workloads  # noqa: E402
from probe import probe  # noqa: E402

# Host-speed probes run right after the inputs are written (untimed).
PROBES = 3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--plan", action="store_true")
    args = ap.parse_args()
    if Path(gfusion.__file__).resolve().parent != (ROOT / "src" / "gfusion").resolve():
        raise SystemExit(f"gfusion imported from {gfusion.__file__}, not from {ROOT / 'src'}")
    d = Path(args.dir)
    meta = workloads.WORKLOADS[args.workload][0](args.seed, d)
    t_done = time.monotonic()
    probe_s = statistics.median(probe()[0] for _ in range(PROBES))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.glob("*.json"))}
    if args.plan:
        plan = {
            "warmup": workloads.warmup_requests(args.seed),
            "requests": workloads.plan(args.workload, args.seed, d, meta),
        }
        (d / "requests.json").write_text(json.dumps(plan), encoding="utf-8")
    print(json.dumps({
        "t_import": t_import,
        "t_done": t_done,
        "probe_s": probe_s,
        "digests": digests,
    }))


if __name__ == "__main__":
    main()
