"""Benchmark runner for textwifi-slam.

    python3 perfbench/run.py --workload scene01-map --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
src/ directory. With --trace 0 it measures the end-to-end metrics; with
--trace 1 it alternates untraced and traced runs and reports the per-layer
metrics of the traced ones, plus the tracing overhead. Every run's output is
checked. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with the
environment, every sample and the spans of the last traced run, goes to
perfbench/out/. See perfbench/README.md.
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
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# The scene every run of every workload generates: seed 0 is the documented
# operating point. Across scene seeds the share of pairs needing the ICP
# heading sweep swings run time by about 2.5x, so the run seed (--seed) does
# not pick the scene; see perfbench/README.md.
SCENARIO_SEED = 0
PROBE_TIMEOUT_S = 60.0


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scenario-seed", type=int, default=SCENARIO_SEED,
        help="seed of the generated scene; fixed per workload so that every run "
        "does identical work (default %(default)s); change it to rerun on a second scene",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: do the set-up only, print 'ready' and exit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.scenario_seed < 0:
        parser.error("seeds must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_package():
    """Import textwifi_slam from this checkout's src/, never from elsewhere."""
    if not (SRC / "textwifi_slam" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'textwifi_slam'}")
    sys.path.insert(0, str(SRC))
    import textwifi_slam

    origin = Path(textwifi_slam.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: textwifi_slam imported from {origin}, not {SRC}")
    return textwifi_slam


def setup(workload_name: str, scenario_seed: int):
    """Everything before the first timed run: import, config, warm-up."""
    _import_package()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    cfg = workloads.config_for(workload, scenario_seed)
    workloads.warm_up()
    return workload, cfg


def measure_setup(workload: str, scenario_seed: int) -> list[float]:
    """Fresh interpreter to ready, several times, one process at a time."""
    times = []
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", workload, "--seed", "0", "--scenario-seed", str(scenario_seed),
    ]
    for _ in range(SETUP_PROBES):
        begin = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - begin
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def _blas_threads():
    """OpenBLAS's own thread count, asked through its C API when loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and ".so" in line.split()[-1]
    })
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _one_run(workload, cfg, scenario_seed, out_dir, tracer=None):
    """One timed run plus its output check."""
    import workloads

    workloads.reset_dir(out_dir)
    record = {"traced": tracer is not None}
    root = None
    cpu0 = _cpu_now()
    begin = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
            root = tracer.begin("bench.iteration")
        output = workloads.run(workload, cfg, scenario_seed, out_dir)
    except Exception:  # noqa: BLE001 - a crashed run is a failed run, not a crash
        record.update(run_s=time.perf_counter() - begin, problems=[traceback.format_exc()])
        return record
    finally:
        if tracer is not None:
            if root is not None:
                tracer.end(root)
            tracer.active = False
    record["run_s"] = time.perf_counter() - begin
    record["cpu_s"] = _cpu_now() - cpu0
    try:
        problems, facts = workloads.check(workload, cfg, output)
    except Exception:  # noqa: BLE001 - an unreadable output fails the check
        problems, facts = [traceback.format_exc()], None
    record["problems"] = problems
    if facts is not None:
        record["facts"] = vars(facts)
    return record


def _summarise_e2e(records, setup_times):
    """End-to-end metrics over the runs whose output passed its check.

    Timings are those of the fastest run. The runs of one invocation do
    identical work, so their spread is the host's doing: on a shared host the
    same code runs slower for seconds to minutes at a time, and the fastest
    run is the most repeatable estimate of the program's own cost. Medians
    are kept in the extras. Set-up time is the median of its probes.
    """
    good = [r for r in records if not r["problems"]]

    def fact(key):
        return _median([r["facts"][key] for r in good])

    run_times = [r["run_s"] for r in good]
    cpu_times = [r["cpu_s"] for r in good]
    rates = [r["facts"]["keyframes"] / r["run_s"] for r in good]
    metrics = {
        "run_s": (min(run_times, default=0.0), "s"),
        "keyframes_per_s": (max(rates, default=0.0), "1/s"),
        "cpu_s": (min(cpu_times, default=0.0), "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "fused_precision": (fact("fused_precision"), "ratio"),
        "fused_recall": (fact("fused_recall"), "ratio"),
    }
    # Reported here but not in BENCHMARK.json: each is absent or zero on
    # some workload (see perfbench/README.md).
    extras = {
        "failed_fraction": ((len(records) - len(good)) / len(records), "ratio"),
        "run_s_median": (_median(run_times), "s"),
        "cpu_s_median": (_median(cpu_times), "s"),
    }
    epe = [r["facts"]["epe_reduction"] for r in good if r["facts"]["epe_reduction"] is not None]
    if epe:
        extras["epe_reduction"] = (_median(epe), "ratio")
    sizes = [r["facts"]["artifact_bytes"] for r in good if r["facts"]["artifact_bytes"]]
    if sizes:
        extras["artifact_mb"] = (_median(sizes) / 1e6, "MB")
    return metrics, extras


def _summarise_layers(records, layer_samples):
    """Median of each per-layer metric over the traced runs, plus overhead."""
    import tracing

    if not layer_samples:
        layer_samples = [tracing.layer_metrics(tracing.Tracer().summary())]
    metrics = {
        name: (_median([s[name][0] for s in layer_samples]), unit)
        for name, (_, unit) in layer_samples[0].items()
    }
    untraced = [r["run_s"] for r in records if not r["traced"] and not r["problems"]]
    traced = [r["run_s"] for r in records if r["traced"] and not r["problems"]]
    metrics["trace.run_s"] = (_median(traced), "s")
    metrics["trace.overhead_s"] = (_median(traced) - _median(untraced), "s")
    return metrics


def measure(
    workload_name: str, seed: int, scenario_seed: int, seconds: float, trace: bool
) -> dict:
    started = time.time()
    setup_times = measure_setup(workload_name, scenario_seed)
    workload, cfg = setup(workload_name, scenario_seed)
    import tracing

    env = environment()
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"work-{workload_name}-{os.getpid()}"
    records, layer_samples, last_spans = [], [], None
    try:
        window_start = time.perf_counter()
        shortest = float("inf")
        while True:
            began = time.perf_counter()
            # With --trace 1, untraced and traced runs alternate; the wrappers
            # are only in place during traced runs.
            if trace and len(records) % 2 == 1:
                tracer = tracing.Tracer()
                installation = tracing.install(tracer)
                try:
                    record = _one_run(workload, cfg, scenario_seed, out_dir, tracer)
                finally:
                    installation.uninstall()
                if not record["problems"]:
                    summary = tracer.summary()
                    layer_samples.append(tracing.layer_metrics(summary))
                    record["trace_summary"] = summary
                    last_spans = tracer.spans_table()
            else:
                record = _one_run(workload, cfg, scenario_seed, out_dir)
            records.append(record)
            now = time.perf_counter()
            shortest = min(shortest, now - began)
            # Start no run that cannot end inside the window, but make at
            # least one (two when tracing: one untraced, one traced).
            if now + shortest - window_start > seconds and len(records) >= 1 + trace:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    if trace:
        metrics, extras = _summarise_layers(records, layer_samples), {}
    else:
        metrics, extras = _summarise_e2e(records, setup_times)
    result = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "scenario_seed": scenario_seed,
        "seconds": seconds,
        "trace": int(trace),
        "started_unix": started,
        "environment": env,
        "setup_samples_s": setup_times,
        "records": records,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "attempted": len(records),
        "failed": failed,
    }
    stem = f"{workload_name}-seed{seed}-scene{scenario_seed}-trace{int(trace)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    if last_spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(last_spans))
    return result


def _report(result: dict) -> None:
    """Human-readable lines before the final JSON line."""
    env = result["environment"]
    print(
        f"workload {result['workload']} seed {result['seed']} scenario seed "
        f"{result['scenario_seed']} trace {result['trace']}: "
        f"{result['attempted']} runs, {result['failed']} failed; timings are the "
        "fastest run, other figures the median over runs"
    )
    print(
        f"env: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']} "
        f"({env['blas_threads']} threads), load {env['loadavg_at_start']}"
    )
    for kind in ("metrics", "extras"):
        for name, m in result[kind].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for r in result["records"]:
        for problem in r["problems"][:3]:
            print(f"  problem: {problem.strip()}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.scenario_seed)
        print("ready", flush=True)
        return 0
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = measure(
        args.workload, args.seed, args.scenario_seed, args.seconds, bool(args.trace)
    )
    _report(result)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
