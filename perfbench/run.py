"""Benchmark of torus-phi4: four seeded experiment workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is one of equilibrium, inviscid, smoothing, tensor_bounds.  The run
repeats the workload's call in whole rounds for about T seconds, checks
every report, and prints one JSON object as its last line of output:
end-to-end metrics with --trace 0 (times at the reference host speed, see
hostspeed.py), per-layer metrics with --trace 1 (untraced and traced rounds
alternate; the spans are written to perfbench/out/).  The package is imported from ./src; without it the run
exits with an error and prints no result.
"""

import os

# one thread for every numerical library, fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("equilibrium", "inviscid", "smoothing", "tensor_bounds")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def import_package() -> None:
    """Put ./src first on the path; refuse any other copy of the package."""
    pkg = SRC / "torus_phi4"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import torus_phi4
    if Path(torus_phi4.__file__).resolve().parent != pkg:
        sys.exit(f"error: imported torus_phi4 from {torus_phi4.__file__}")


def setup_probe(name: str, seed: int) -> None:
    """Child process of setup_seconds: import, build inputs, print the
    clock and the host-speed samples."""
    with hostspeed.HostSpeed() as speed:
        import_package()
        import workloads
        workloads.make(name, seed)
        ready = time.perf_counter()
    print(json.dumps({"ready": ready, "samples": speed.samples,
                      "overhead": speed.overhead + speed.warmup}))


def setup_seconds(name: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until the package is
    imported and the workload's inputs are built, at the reference host
    speed.  perf_counter is CLOCK_MONOTONIC on Linux, so parent and child
    clocks agree."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(hostspeed.scale(probe["ready"] - t0, probe["overhead"],
                                     probe["samples"]))
    return statistics.median(times)


def measure(wl, seconds: float, tracer=None) -> list:
    """Whole rounds of the workload's call while the next one fits in
    `seconds`.  Without a tracer every round is also timed at the reference
    host speed; with one, odd rounds are traced, and there is at least one
    round of each kind."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        speed = hostspeed.HostSpeed() if tracer is None else None
        if traced:
            tracer.install()
        with speed or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                report = tracer.call(wl.top_span, wl.call) if traced else wl.call()
            except Exception:
                traceback.print_exc()
                report = None
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
        rounds.append({"wall": wall, "report": report, "traced": traced,
                       "scaled": speed.scaled(wall) if speed else None,
                       "spans": (first_span, len(tracer.spans)) if traced else None})
        if tracer is not None and len(rounds) < 2:
            continue
        if time.perf_counter() - start + wall > seconds:
            return rounds


def check(wl, reports: list) -> list:
    """Check the first report; every later round must repeat it exactly."""
    if not reports:
        return ["no round completed"]
    problems = wl.check(reports[0])
    first = json.dumps(reports[0], sort_keys=True, default=str)
    if any(json.dumps(r, sort_keys=True, default=str) != first for r in reports[1:]):
        problems.append("a repeated round with the same seed gave another report")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    import_package()
    import workloads
    wl = workloads.make(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    rounds = measure(wl, args.seconds, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = [r for r in rounds if r["report"] is not None]
    problems = check(wl, [r["report"] for r in done])
    for p in problems:
        print(f"check failed: {args.workload}: {p}", file=sys.stderr)

    if args.trace:
        plain = [r["wall"] for r in done if not r["traced"]]
        traced = [r for r in done if r["traced"]]
        per_round = [tracing.round_metrics(tracer.spans[slice(*r["spans"])],
                                           r["spans"][0], wl.top_span)
                     for r in traced]
        metrics = tracing.combine(per_round) if per_round else {}
        if plain and traced:
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall"] for r in traced)
                - statistics.median(plain))
        OUT.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed,
                "rounds": [{"wall_s": r["wall"], "traced": r["traced"],
                            "failed": r["report"] is None} for r in rounds],
                "spans": tracer.spans}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(dump, default=str))
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]}
                   for k, v in metrics.items()}
    else:
        wall = statistics.median(r["scaled"] for r in (done or rounds))
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": wl.items / wall, "unit": "items/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": bool(done) and not problems,
                      "attempted": len(rounds),
                      "failed": len(rounds) - len(done),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
