#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` instead runs a fixed number of units untraced, then the same
units again with every layer's public calls wrapped in spans, and prints the
per-layer metrics (see ``perfbench/README.md``).  Either way the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it stamps the result with its provenance.
"""

import time

# Set-up time counts from here, so it includes every import below.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

#: The seed whose simulated outputs are pinned by ``digests.json``.
DEFAULT_SEED = 1
#: Set-up time is the median of this many set-ups, each in a fresh process.
SETUP_SAMPLES = 7
#: Units each traced run measures, untraced and then traced.
TRACED_UNITS = {"replay": 10, "tune": 1, "fleet-sweep": 1, "fleet-sweep-warm": 2, "twin": 1}
#: Units of the untraced pooled sweep pass that supplies the pool counters.
POOLED_UNITS = 2



def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACED_UNITS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up in this fresh process, print the seconds, exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> Any:
    """Import the workloads, which import the program from ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# --------------------------------------------------------------------------- #
# Provenance


def git_rev() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head_file = ROOT / ".git" / "HEAD"
    if not head_file.is_file():
        return None
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over every source file of the program, path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    """The ``model name`` the kernel reports for the first CPU."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
    }


# --------------------------------------------------------------------------- #


def output_digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(workload: str, seed: int, digest: str) -> Optional[bool]:
    """Compare with the pinned digest; None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return stored.get(workload) == digest


def setup_samples(args: argparse.Namespace, first: float) -> List[float]:
    """``first`` plus set-up times measured in fresh child processes, all in
    reference seconds."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def setup_speed_scale() -> float:
    """The factor that turns this process's set-up seconds into reference
    seconds, from slices timed right after the set-up."""
    calibrator = calibrate.Calibrator()
    calibrator.run(calibrate.FIRST_SLICES)
    return calibrate.REFERENCE_SLICE_S / calibrator.median_s()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(durations: List[float], pct: float) -> float:
    import numpy

    return float(numpy.percentile(durations, pct)) * 1e3


def run_untraced(bench: Any, args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    workload = bench.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        setup_scale = setup_speed_scale()
        calibrator = workload.calibrator()
        workload.prime()
        measurement = workload.measure(args.seconds, calibrator=calibrator)
        rss = peak_rss_mb()
        attempted, failed = workload.verify(measurement)
    finally:
        workload.close()
    digest = output_digest(workload.digest_payload(measurement))
    # Every time is scaled to the reference host speed (see calibrate.py).
    samples = setup_samples(args, setup_s * setup_scale)
    durations = measurement.durations_s
    scaled = calibrator.scaled(durations, measurement.starts_s, measurement.ends_s)
    metrics = {
        "setup_s": statistics.median(samples),
        "peak_rss_mb": rss,
        "op_p50_ms": percentile_ms(scaled, 50),
        "op_p75_ms": percentile_ms(scaled, 75),
    }
    unscaled = {
        "setup_s": setup_s,
        "op_p50_ms": percentile_ms(durations, 50),
        "op_p75_ms": percentile_ms(durations, 75),
    }
    info = {key: statistics.median(values) for key, values in measurement.info.items()}
    info.update(units=measurement.units, operations=len(durations), setup_samples_s=samples,
                unscaled=unscaled, calibration_slices=len(calibrator.starts),
                calibration_slice_median_s=calibrator.median_s())
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "digest": digest, "info": info}


def run_traced(bench: Any, args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    import layers
    from tracer import Tracer

    cls = bench.WORKLOADS[args.workload]
    swept = issubclass(cls, bench.FleetSweep)
    serial = {"jobs": 1} if swept else {}
    units = TRACED_UNITS[args.workload]
    checked = []

    baseline_run = cls(args.seed, args.seconds, workdir / "baseline", **serial)
    try:
        baseline_run.setup()
        baseline_run.prime()
        baseline = baseline_run.measure(0.0, units)
        checked.append((baseline_run, baseline))
    finally:
        baseline_run.close()

    pool: Dict[str, float] = {}
    if swept:
        # Worker-side work is invisible to the parent's tracer, so the spans
        # come from the serial runs; the pool's own numbers come from here.
        pooled_run = cls(args.seed, args.seconds, workdir / "pooled")
        pool_tracer = Tracer()
        try:
            pooled_run.setup()
            pooled_run.prime()
            layers.install_pool_wait(pool_tracer)
            with pool_tracer.span("pooled"):
                pooled = pooled_run.measure(0.0, POOLED_UNITS)
            checked.append((pooled_run, pooled))
            pool = {key: value for key, value in pooled_run.counters().items()
                    if key.startswith("pool.")}
        finally:
            pool_tracer.restore()
            pooled_run.close()
        pool["wait_s"] = pool_tracer.self_seconds().get("pool", 0.0) / POOLED_UNITS

    tracer = Tracer()
    traced_run = cls(args.seed, args.seconds, workdir / "traced", **serial)
    traced_run.tracer = tracer
    layers.install(tracer)
    try:
        with tracer.span("setup"):
            traced_run.setup()
        with tracer.paused():
            traced_run.prime()
        with tracer.span("ops"):
            traced = traced_run.measure(0.0, units)
    finally:
        tracer.restore()
        traced_run.close()
    checked.append((traced_run, traced))

    metrics = layers.layer_metrics(tracer, traced_run.counters(), pool)
    metrics["trace.overhead_frac"] = traced.busy_s / baseline.busy_s - 1.0
    partition = sum(metrics[name] for name in layers.PARTITION.values())
    balanced = abs(partition - metrics["trace.wall_s"]) <= 1e-9 + 1e-9 * partition
    unloaded = [name for name in layers.LOADED[args.workload] if not metrics[name]]
    if unloaded:
        sys.stderr.write(f"perfbench: no work recorded in {unloaded}\n")
    attempted = failed = 0
    for workload, measurement in checked:
        ops, bad = workload.verify(measurement)
        attempted += ops
        failed += bad
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "units": units,
                              "serial_for_attribution": bool(serial)})
    info = {"units": units, "spans_file": str(spans_path.relative_to(ROOT)),
            "partition_balanced": balanced, "unloaded_layers": unloaded,
            "serial_for_attribution": bool(serial)}
    return {"metrics": metrics, "attempted": attempted,
            "failed": failed + (not balanced) + len(unloaded),
            "digest": output_digest(checked[0][0].digest_payload(checked[0][1])),
            "info": info}


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def as_number(value: float) -> Any:
    return int(value) if float(value).is_integer() else value


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    bench = load_program()
    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_probe:
        workload = bench.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        try:
            workload.setup()
            setup_s = time.perf_counter() - _STARTED
            setup_s *= setup_speed_scale()
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        run = run_traced if args.trace else run_untraced
        outcome = run(bench, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest_ok = check_digest(args.workload, args.seed, outcome["digest"])
    failed = outcome["failed"] + (digest_ok is False)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "host": host_fingerprint(),
        "output_digest": outcome["digest"],
        "digest_matches": digest_ok,
        "counters": {"attempted": outcome["attempted"], "failed": failed, **outcome["info"]},
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    units = declared_units(args.trace)
    if set(units) != set(outcome["metrics"]):
        raise RuntimeError(
            f"metrics {sorted(outcome['metrics'])} differ from BENCHMARK.json {sorted(units)}"
        )
    metrics = {
        name: {"value": as_number(value) if units[name] == "count" else value,
               "unit": units[name]}
        for name, value in outcome["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": outcome["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
