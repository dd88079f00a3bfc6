"""scenecast benchmark: desk_demo, paper_fuse and kitti_warp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root. The program is imported from ./src, so the
benchmark measures the checkout it sits in. One workload runs in this
process as a closed loop: one caller, one iteration after another, no worker
pool. The first iteration is a warm-up; input building and output checks sit
outside the timed calls.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the per-layer
metrics, from spans recorded around each layer's public functions. The line
before it is the run record: environment, per-iteration times, output
digests keyed by seed, and input-generation time. `--all` runs every workload
in a fresh process and prints a table; `--selftest` shows that each output
checker rejects corrupted outputs and that the paper-scale scene generator
agrees with `synth.render_frame`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SETUP_REPEATS = 7
# a workload's one-time work before its first iteration, timed with the import
SETUP_CODE = {
    "desk_demo": "from scenecast import cli; cli.build_parser()",
    "paper_fuse": "from scenecast import fusion; fusion.SceneRange.default()",
    "kitti_warp": "from scenecast import dataio, forecast, warp",
}


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload: str) -> float:
    """Seconds to import scenecast plus the workload's one-time work, in a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); import scenecast; "
        f"{SETUP_CODE[workload]}; print(repr(time.perf_counter() - t0))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr.strip()[-300:]}")
    return float(out.stdout.strip().splitlines()[-1])


def reference_kernel_ms() -> float:
    """Median time of a fixed numpy and Python kernel that no program change touches.

    Recorded next to every setup probe, so a reader comparing two runs can
    tell a change in the host's speed from a change in the program.
    """
    import numpy

    # single-threaded on purpose: a BLAS call would time thread hand-offs
    a = numpy.random.default_rng(0).random(1 << 18)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        x = 0
        for k in range(100000):
            x += k
        numpy.sort(a)
        numpy.sqrt(a * a + 1.0).sum()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "git_sha": sha,
        "seed": seed,
        "machine": platform.machine(),
    }


def openblas_threads():
    import ctypes
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(handle, fn, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    setup, ref_ms = [setup_probe(name)], [reference_kernel_ms()]
    sys.path.insert(0, str(SRC))
    import workloads

    # quality figures come from the first iterations only, so that they do
    # not depend on how many iterations fit in the timed window
    quality_n = workloads.WORKLOADS[name].QUALITY_ITERATIONS

    tracer = alloc_tracer = None
    if trace:
        import tracer as tracing

        tracer, alloc_tracer = tracing.Tracer(), tracing.Tracer()

    workdir = SCRATCH / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t = time.perf_counter()
        w = workloads.WORKLOADS[name](seed, workdir)
        gen_s = time.perf_counter() - t
        plain, traced, quality, digests, errors = [], [], [], {}, []
        measured = 0.0
        i = 0
        while measured < seconds or i < quality_n:
            # the setup probes are spread over the run, so the machine's
            # slow and fast spells weigh on them as on the iterations
            if not trace and len(setup) < SETUP_REPEATS and measured >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(setup_probe(name))
                ref_ms.append(reference_kernel_ms())
            t = time.perf_counter()
            inp = w.inputs(i)
            gen_s += time.perf_counter() - t
            on = trace and i % 2 == 1
            if on:
                tracer.install()
                tracer.begin()
            t0 = time.perf_counter()
            try:
                out, err = w.run(inp), None
            except Exception as exc:  # a raising iteration counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if on:
                tracer.end()
                tracer.uninstall()
            if i == 0:
                # warm-up: checked and counted as attempted, not timed
                warmup_s, first_rss = dt, max_rss_mb()
            else:
                measured += dt
                (traced if on else plain).append(dt)
            if err is None:
                try:
                    outcome = w.check(inp, out)
                    err = "; ".join(outcome.errors) or None
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is None:
                if i < quality_n:
                    quality.append(outcome.quality)
                digests[f"{seed}/{i}"] = outcome.digest
            else:
                errors.append(f"iteration {i}: {err}")
            i += 1
        attempted = i
        while not trace and len(setup) < SETUP_REPEATS:
            setup.append(setup_probe(name))
            ref_ms.append(reference_kernel_ms())
        if trace:
            # one more iteration under tracemalloc, for the fusion allocation peak
            import tracemalloc

            inp = w.inputs(i)
            alloc_tracer.install()
            tracemalloc.start()
            try:
                w.run(inp)
            finally:
                tracemalloc.stop()
                alloc_tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    failed = len(errors)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "samples": len(plain),
        "warmup_s": warmup_s,
        "iteration_s": plain,
        "setup_probe_s": setup,
        "reference_kernel_ms": ref_ms,
        "quality_iterations": quality_n,
        "input_gen_s": gen_s,
        "peak_rss_end_mb": max_rss_mb(),
        "digests": digests,
        "errors": errors[:10],
    }
    if not trace:
        means = {}
        for key, owners in workloads.QUALITY.items():
            vals = [q[key] for q in quality if key in q]
            # reported as 1 where the workload's outputs do not define the metric
            means[key] = statistics.fmean(vals) if name in owners and vals else 1.0
        record["reported_as_1"] = [k for k, owners in workloads.QUALITY.items() if name not in owners]
        metrics = {
            "wall_s_p50": statistics.median(plain),
            "throughput_per_s": len(plain) / measured,
            "peak_rss_mb": first_rss,
            "setup_s": statistics.median(setup),
            "pass_frac": (attempted - failed) / attempted,
            **means,
        }
    else:
        wall = sum(traced)
        untraced_p50 = statistics.median(plain) if plain else 0.0
        traced_p50 = statistics.median(traced) if traced else 0.0
        metrics = tracer.per_layer(wall, untraced_p50, traced_p50, alloc_tracer.peak_alloc_mb())
        record["traced_iteration_s"] = traced
        record["functions"] = tracer.function_table()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record, result


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process; one table of every metric."""
    rc = 0
    print(f"{'workload':<11} {'metric':<38} {'value':>14}  unit")
    for name in SETUP_CODE:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
            rc = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:<11} {'correct':<38} {str(result['correct']):>14}  "
              f"({result['attempted']} attempted, {result['failed']} failed)")
        rc |= not result["correct"]
        for key, m in result["metrics"].items():
            print(f"{name:<11} {key:<38} {m['value']:>14.6g}  {m['unit']}")
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=tuple(SETUP_CODE))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, print a table")
    p.add_argument("--selftest", action="store_true", help="check the checkers and the scene generator")
    args = p.parse_args(argv)
    if not (SRC / "scenecast" / "__init__.py").is_file():
        print(f"error: no scenecast package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.selftest:
        sys.path.insert(0, str(SRC))
        import selftest

        return selftest.main()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        p.error("--workload, --all or --selftest is required")
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
