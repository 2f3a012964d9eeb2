"""Time two checkouts against each other on one benchmark workload, pass by pass.

    python3 tools/ab_timing.py OLD NEW --workload sweep --passes 30

OLD and NEW are the roots of two source checkouts.  One persistent worker
process per checkout imports that checkout's `src/qesolve` and
`perfbench/workloads.py` (read-only, as `output_digest.py` does), builds the
workload's operations in their seed-0 order and warms up with one untimed
pass.  The two workers then take turns, each running and timing one full
pass of every operation; the side that runs first alternates from pair to
pair.  Two passes run close together in time see nearly the same host
speed, so their ratio holds still where one perfbench run, with its few
host-speed samples, spreads widely.  Both workers run one BLAS thread.

Prints one line per pair (the OLD and NEW pass times in ms and the speedup
OLD/NEW), then the median of the per-pair speedups, the minimum and the
number of pairs in which NEW was faster.  Then the claim rule on the pass
times: OLD's median, quartiles and spread (q3 - q1 over the median), NEW's
median, and `claimable: yes` only when NEW was faster in at least nine
tenths of the pairs and its median is lower than OLD's by more than that
spread (of OLD's median), else `claimable: no`.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("sweep", "match_ell", "verify")


def worker(root: str, name: str) -> None:
    """Serve passes of the workload over stdin/stdout: "ready" once set up,
    then one pass time (s) per "run" line, until "quit"."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    proto, sys.stdout = sys.stdout, sys.stderr  # keep the protocol clear of stray prints
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Verify(Path(tmp)) if name == "verify" else {"sweep": workloads.Sweep, "match_ell": workloads.MatchEll}[name]()
        ops = wl.setup(0, False)

        def one_pass() -> float:
            start = time.perf_counter()
            for op in ops:
                wl.run(op)
            return time.perf_counter() - start

        one_pass()
        print("ready", file=proto, flush=True)
        for line in sys.stdin:
            if line.strip() != "run":
                break
            print(repr(one_pass()), file=proto, flush=True)


def quartiles(xs: list) -> tuple:
    """q1, median and q3 of xs, interpolated linearly (numpy.percentile's default)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", choices=WORKLOADS, default="sweep")
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sides = {}
    for side, root in (("old", args.old), ("new", args.new)):
        sides[side] = subprocess.Popen(
            [sys.executable, __file__, "--worker", root, args.workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
    try:
        for proc in sides.values():
            if proc.stdout.readline().strip() != "ready":
                raise SystemExit("a worker failed to set up")
        speedups, passes = [], {"old": [], "new": []}
        for i in range(args.passes):
            times = {}
            for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                sides[side].stdin.write("run\n")
                sides[side].stdin.flush()
                times[side] = float(sides[side].stdout.readline())
            speedups.append(times["old"] / times["new"])
            for side in passes:
                passes[side].append(times[side])
            print(f"pair {i:2d}: old {times['old'] * 1e3:8.1f} ms  new {times['new'] * 1e3:8.1f} ms  speedup {speedups[-1]:.3f}")
    finally:
        for proc in sides.values():
            proc.stdin.close()
            proc.wait()
    wins = sum(s > 1.0 for s in speedups)
    print(f"{args.workload}: median speedup {statistics.median(speedups):.3f}, "
          f"minimum {min(speedups):.3f}, new faster in {wins} of {len(speedups)} pairs")
    q1, old_median, q3 = quartiles(passes["old"])
    spread = (q3 - q1) / old_median
    new_median = statistics.median(passes["new"])
    print(f"old passes: median {old_median * 1e3:.1f} ms, q1 {q1 * 1e3:.1f} ms, q3 {q3 * 1e3:.1f} ms, "
          f"spread {spread:.3f} (q3 - q1 over the median)")
    gain = (old_median - new_median) / old_median
    print(f"new passes: median {new_median * 1e3:.1f} ms ({gain:+.3f} of the old median)")
    claimable = 10 * wins >= 9 * len(speedups) and gain > spread
    print(f"claimable: {'yes' if claimable else 'no'} (needs new faster in 9/10 of the pairs "
          f"and a median gain above the spread)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"] and len(sys.argv) == 4:
        worker(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main())
