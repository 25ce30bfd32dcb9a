"""maup benchmark: one command per workload, untraced or traced.

Run from the root of a maup checkout:

    python3 perfbench/run.py --workload episode-vit --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs every workload at a tiny size in both modes and checks the
metric names against BENCHMARK.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"  # scratch space inside the checkout; listed in .gitignore
DEFAULT_SEED = 0
SETUP_REPS = 3
DIGEST_OPS = 4  # the digest covers the outputs of the first operations; every run does them
TAIL_BEYOND = 10

E2E_UNITS = {
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_per_s": "1/s",
    "mean_dice": "dice",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_maup() -> None:
    """Import maup from this checkout's src/; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "maup" / "__init__.py").is_file():
        sys.exit(f"perfbench: no maup package under {src}; run from the root of a maup checkout")
    sys.path.insert(0, str(src))
    import maup

    if Path(maup.__file__).resolve().parent != (src / "maup").resolve():
        sys.exit(f"perfbench: imported maup from {maup.__file__}, not from {src}")


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer there is no such percentile; the maximum is
    reported as p100.
    """
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND
    if k < 1:
        return s[-1], 100.0
    return s[k - 1], 100.0 * k / len(s)


def blas_threads() -> str:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return str(fn())
    return "unknown"


def machine(working_set: dict) -> dict:
    """The machine and library versions a result was measured on."""
    import numpy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for i in range(6):
        index = f"/sys/devices/system/cpu/cpu0/cache/index{i}/"
        level = read(index + "level")
        if level == "unknown":
            break
        if read(index + "type") != "Instruction":
            caches[f"L{level}"] = f"{read(index + 'size')} shared by cpus {read(index + 'shared_cpu_list')}"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "caches": caches,
        "working_set": working_set,
    }


class HostSpeed:
    """Fixed kernels timed between operations: a record of how fast the host ran them.

    It is printed with every run, so that a later comparison can check for
    host drift before it blames a change of maup. The kernels are a BLAS
    matmul small enough to stay on one thread, a 4 MB memory stream into a
    buffer allocated once (so the allocator's state does not enter it) and
    a pure-Python loop.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a, v = rng.standard_normal((64, 64)), rng.standard_normal(1 << 19)
        out = np.empty_like(v)
        self.kernels = {
            "matmul": lambda: a @ a,
            "stream": lambda: np.multiply(v, 1.0001, out=out),
            "python": lambda: sum(range(50_000)),
        }
        self.samples = {name: [] for name in self.kernels}

    def sample(self) -> None:
        for name, kernel in self.kernels.items():
            start = time.perf_counter()
            kernel()
            self.samples[name].append((time.perf_counter() - start) * 1e3)

    def report(self) -> str:
        medians = " ".join(f"{k}_ms {statistics.median(v):.4f}" for k, v in self.samples.items())
        n = len(self.samples["matmul"])
        return f"{medians} (medians of {n} samples between operations)"


def attempt(wl, i: int, inp, tracer, stages):
    """Time one operation, then check it outside the timing.

    Returns (seconds, minor page faults, Outcome). An operation that raises,
    or whose check raises, counts as failed; the run goes on.
    """
    import workloads

    def failure(problem):
        return workloads.Outcome(wl.units_per_op, wl.units_per_op, [], b"", [problem])

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception:
        return time.perf_counter() - start, 0, failure(traceback.format_exc())
    dt = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    try:
        outcome = wl.check(inp, out, tracer)
        if stages is not None and any(a != b for a, b in wl.trace(i, inp, out, tracer, stages)):
            outcome = outcome._replace(
                failed=outcome.units,
                problems=outcome.problems + ["stage-by-stage output differs from execute_episode"],
            )
    except Exception:
        outcome = failure(traceback.format_exc())
    return dt, faults, outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    """Set up, run and check one workload; return the result object."""
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[name](seed, small, work)
        tracer = tracing.Tracer() if trace else None
        stages = None
        if trace:
            stages, missing = tracing.resolve_stages()
            for m in missing:
                print(f"trace: stage {m} is missing; the stage-by-stage episode is skipped")
            if missing:
                stages = None

        setup_times = []
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.begin(("setup", rep))
            start = time.perf_counter()
            wl.setup(rep, tracer)
            setup_times.append(workloads.import_seconds() + time.perf_counter() - start)

        latencies, dices = [], []
        attempted = failed = 0
        timed = 0.0
        digest = hashlib.sha256()
        reported = 0
        host = HostSpeed()
        page_faults = []
        min_ops = max(DIGEST_OPS, wl.quality_ops)
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < seconds:
            host.sample()
            if tracer:
                tracer.begin(i)
            # drop the last inputs first: holding two sets alive while generating
            # makes the allocator alternate between heap layouts, and latency with it
            inp = None
            inp = wl.make(i, tracer)
            dt, faults, outcome = attempt(wl, i, inp, tracer, stages)
            page_faults.append(faults)
            timed += dt
            attempted += outcome.units
            failed += outcome.failed
            if i < wl.quality_ops:
                dices += outcome.dices
            if outcome.failed < outcome.units:
                latencies.append(dt * 1e3 / wl.units_per_op)
            if i < DIGEST_OPS:
                digest.update(outcome.output)
            for p in outcome.problems[: max(0, 5 - reported)]:
                print(f"{name} op {i}: {p}", file=sys.stderr)
            reported += len(outcome.problems)
            i += 1

        computed = digest.hexdigest()
        print(f"{name}: digest of the first {DIGEST_OPS} operations' output {computed}")
        if seed == DEFAULT_SEED and not small:
            stored = json.loads((HERE / "digests.json").read_text()).get(name)
            if stored != computed:
                print(f"{name}: digest does not match the stored {stored}", file=sys.stderr)
                failed = max(failed, min(attempted, DIGEST_OPS * wl.units_per_op))

        print(f"{name}: host speed {host.report()}")
        print(f"{name}: minor page faults per operation in this process, median "
              f"{statistics.median(page_faults):.0f} (high when freed temporaries go back "
              f"to the kernel and are faulted in again)")
        if trace:
            workloads.measure_cli(tracer, work, small)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in tracer.metrics().items()}
        else:
            value, pct = tail(latencies) if latencies else (0.0, 100.0)
            per = (f"a timed call of {wl.units_per_op} {wl.unit} / {wl.units_per_op}"
                   if wl.units_per_op > 1 else "one operation")
            print(f"{name}: latency_ms_tail is p{pct:.1f} of {len(latencies)} samples ({per})")
            if name == "cli-run":
                rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            e2e = {
                "latency_ms_p50": statistics.median(latencies) if latencies else 0.0,
                "latency_ms_tail": value,
                "throughput_per_s": (attempted - failed) / timed,
                "mean_dice": statistics.fmean(dices) if dices else 0.0,
                "ok_share": (attempted - failed) / attempted,
                "peak_rss_mb": rss / 1024.0,
                "setup_s": statistics.median(setup_times),
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        print("machine: " + json.dumps(machine(wl.working_set()), sort_keys=True))
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "Gmadd/s"
    if name.endswith("_share"):
        return "share"
    return "count"


def smoke() -> int:
    """Every workload at a tiny size in both modes; names must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    bad = 0
    for name in names:
        for trace in (False, True):
            res = run_workload(name, 1, 0.2, trace, True)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok = res["correct"] and got == expected[trace]
            bad += not ok
            print(f"smoke {name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"({res['attempted']} attempted, {res['failed']} failed)")
            if got != expected[trace]:
                print(f"  metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
                      f"expected {sorted(expected[trace].items())}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["episode-vit", "sweep-toy", "cli-run"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    import_maup()
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
