"""qesolve benchmark: three workloads, a fixed list of operations per run.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Runs in one single-threaded process from the root of a source checkout
(it imports `src/qesolve`).  `--trace 0` prints the end-to-end metrics,
`--trace 1` runs the same operations with module-boundary wrappers and
prints the per-layer metrics.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
provenance and details, which are also written to perfbench/out/.
`--seconds` is recorded but does not size the run: every run does the same
operations.  `--smoke` runs each workload at a minimal size and the negative
controls, and exits 1 if any of them does not behave.  See README.md.
"""

import os

# Before numpy is imported: one BLAS/OpenMP thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
SAMPLE_INTERVAL_S = 0.25  # host-speed samples inside operations (speed.py)
P90_MIN_OPS = 100  # a p90 with at least 10 samples beyond it


def _import_program():
    src = ROOT / "src"
    if not (src / "qesolve" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'qesolve'} not found; run from the root of a qesolve checkout")
    sys.path.insert(0, str(src))
    import qesolve  # noqa: F401


def provenance() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "loadavg": list(os.getloadavg()),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def make_workload(name: str):
    """The workload object; imports qesolve, so call after _import_program."""
    import workloads

    if name == "verify":
        return workloads.Verify(OUT / f"verify-{os.getpid()}")
    return {"sweep": workloads.Sweep, "match_ell": workloads.MatchEll}[name]()


def timed_ops(wl, ops, sampler, tracer=None) -> list[float]:
    """Run every operation once; wall time of each (s)."""
    times = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        op.result, error, wall = sampler.measure(lambda: wl.run(op))
        if error is not None:  # an operation that raises counts as failed
            op.error = "".join(traceback.format_exception(error, limit=-3))
        times.append(wall)
    return times


def run(name: str, seed: int, trace: bool, seconds: int, smoke: bool = False) -> dict:
    wl = make_workload(name)
    import_s = time.perf_counter() - _T0
    try:
        with speed.Sampler(SAMPLE_INTERVAL_S) as setup_sampler:
            setups = []
            for _ in range(1 if smoke else SETUP_REPEATS):
                ops, error, wall = setup_sampler.measure(lambda: wl.setup(seed, smoke))
                if error is not None:
                    raise error
                setups.append(wall)
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            # The handler's kernel runs would land inside spans: a traced run
            # samples only before and after the operations.
            with speed.Sampler(1e6 if trace else SAMPLE_INTERVAL_S) as sampler:
                times = timed_ops(wl, ops, sampler, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome = wl.check(ops)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    scaled = sampler.scaled(times)
    setups_ref = setup_sampler.scaled(setups)
    import_ref_s = import_s * speed.REF_MS / statistics.median(ms for _, ms in setup_sampler.samples)
    timed_s = sum(times)
    setup_s = import_s + statistics.median(setups)
    scaled_setup_s = import_ref_s + statistics.median(setups_ref)
    if trace:
        metrics = tracer.metrics(outcome.branches, outcome.unmatched)
    else:
        metrics = {
            "setup_s": (scaled_setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "branches_per_s": (outcome.branches / sum(scaled), "branches/s"),
            "op_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
            "branches": (outcome.branches, "count"),
        }
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds_requested": seconds,
        "ops": len(ops),
        "timed_s": timed_s,
        "scaled_timed_s": sum(scaled),
        "kernel_samples": len(sampler.samples),
        "kernel_ms_median": statistics.median(ms for _, ms in sampler.samples),
        "raw": {"setup_s": setup_s, "branches_per_s": outcome.branches / timed_s,
                "op_ms_p50": statistics.median(times) * 1e3},
        "import_s": import_s,
        "setup_runs_s": setups,
        "failed_ops": outcome.failed,
        "problems": outcome.problems[:20],
        "problem_count": len(outcome.problems),
        "unmatched_branches": outcome.unmatched,
        "errors": [op.error for op in ops if op.error is not None][:5],
        "provenance": provenance(),
    }
    if len(times) >= P90_MIN_OPS:
        details["op_ms_p90"] = statistics.quantiles(scaled, n=10)[-1] * 1e3
    if trace:
        by_name, by_layer = tracer.summary()
        details["span_ms"] = {k: {"calls": v[0], "ms": v[1], "self_ms": v[2]} for k, v in sorted(by_name.items())}
        details["layer_self_ms"] = by_layer
    result = {
        "correct": not outcome.problems,
        "attempted": len(ops),
        "failed": len(outcome.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not smoke:
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-s{seed}-t{int(trace)}"
        op_ms = {op.label: (t * 1e3, u * 1e3) for op, t, u in zip(ops, times, scaled)}
        (OUT / f"{stem}.json").write_text(json.dumps({"details": details, "result": result, "op_ms": op_ms}, indent=1))
        if trace:
            (OUT / f"trace-{name}-s{seed}.json").write_text(json.dumps(tracer.spans))
    return {"details": details, "result": result}


def smoke() -> int:
    """Each workload at a minimal size, then the negative controls."""
    import negative

    ok = True
    for name in ("sweep", "match_ell", "verify"):
        res = run(name, 0, False, 0, smoke=True)
        r = res["result"]
        good = r["correct"] and (r["failed"] == (1 if name == "sweep" else 0))
        ok &= good
        print(json.dumps({"smoke": name, "ok": good, "attempted": r["attempted"], "failed": r["failed"],
                          "problems": res["details"]["problems"]}))
    for label, fired in negative.controls(OUT / f"negative-{os.getpid()}"):
        ok &= fired
        print(json.dumps({"negative_control": label, "fired": fired}))
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "match_ell", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    _import_program()
    if args.smoke:
        return smoke()
    res = run(args.workload, args.seed, bool(args.trace), args.seconds)
    print(json.dumps(res["details"]))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
