"""Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the runner agree on workloads and metric
names, that a real run emits exactly the end-to-end metrics untraced and
exactly the per-layer metrics traced, and that the output check catches a
corrupted output. Metric emission does not depend on the workload (every
metric is emitted on every workload), so one real workload covers it: the
cheapest, scene02-recognize.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def test_benchmark_json(spec: dict, workloads) -> None:
    expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json names exactly the runner's workloads",
    )
    expect(spec["command"][1] == "perfbench/run.py", "command runs perfbench/run.py")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "metric names are unique")
    expect(
        any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"]),
        "setup_s is an end-to-end metric",
    )


def test_emitted_metrics(spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure("scene02-recognize", 0, run.SCENARIO_SEED, 0.1, trace)
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        expect(emitted == wanted, f"trace {int(trace)} emits exactly the {key} metrics")
        expect(result["failed"] == 0, f"trace {int(trace)} runs pass their checks")
        if not trace:
            expect(
                all(m["value"] > 0 for m in result["metrics"].values()),
                "every end-to-end metric is non-zero",
            )


def test_check_catches_corruption(workloads) -> None:
    workload = workloads.WORKLOADS["scene02-recognize"]
    cfg = workloads.config_for(workload, run.SCENARIO_SEED)
    out_dir = run.OUT / "selftest"
    workloads.reset_dir(out_dir)
    try:
        output = workloads.run(workload, cfg, run.SCENARIO_SEED, out_dir)
        problems, _ = workloads.check(workload, cfg, output)
        expect(problems == [], "an intact output passes the check")

        report_path = out_dir / "match_report.json"
        intact = report_path.read_text()
        report = json.loads(intact)
        row = next(r for r in report["candidates"] if r["verdict"] == "accepted")
        row["verdict"] = "rejected_rss"
        report_path.write_text(json.dumps(report))
        problems, _ = workloads.check(workload, cfg, output)
        expect(any("verdict" in p for p in problems), "a flipped verdict is caught")

        report_path.write_text(intact[: len(intact) // 2])
        problems, _ = workloads.check(workload, cfg, output)
        expect(any("does not parse" in p for p in problems), "a truncated artifact is caught")

        report_path.unlink()
        problems, _ = workloads.check(workload, cfg, output)
        expect(any("missing" in p for p in problems), "a missing artifact is caught")

        output.return_codes[-1] = 2
        problems, _ = workloads.check(workload, cfg, output)
        expect(any("exited 2" in p for p in problems), "a failing stage is caught")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    rows = [
        {"a": ("a0", 0), "b": ("a1", 0), "text_score": 1.0, "mac_similarity": 1.0,
         "rss_similarity": 1.0},
        {"a": ("a0", 0), "b": ("a1", 1), "text_score": 1.0, "mac_similarity": 0.1,
         "rss_similarity": 0.0},
    ]
    truth = {("a0", 0): "s1", ("a1", 0): "s1", ("a1", 1): "s2"}
    scored = workloads.score(rows, truth, {"alpha": 0.8, "beta": 0.8, "gamma": 0.8})
    expect(
        scored == {"text_only": {"precision": 0.5, "recall": 1.0},
                   "fused": {"precision": 1.0, "recall": 1.0}},
        "independent scoring counts a lookalike as a text-only false positive",
    )
    reported = {k: dict(v) for k, v in scored.items()}
    reported["fused"]["recall"] = 0.9
    expect(
        len(workloads.check_reported_quality(reported, scored)) == 1,
        "a reported recall that disagrees with the scoring is caught",
    )

    q = workloads.check_quality
    expect(q(1.0, 0.3, 10, 9, 1, 5.0, 1.0) == [], "consistent map figures pass")
    expect(len(q(0.2, 0.3, 10, None, None, None, None)) == 1, "fused below text precision is caught")
    expect(len(q(1.0, 0.3, 10, 9, 1, 1.0, 5.0)) == 1, "a rising objective is caught")
    expect(len(q(1.0, 0.3, 10, 8, 1, 5.0, 1.0)) == 1, "lost loop closures are caught")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run._import_package()
    import workloads

    test_benchmark_json(spec, workloads)
    test_check_catches_corruption(workloads)
    test_emitted_metrics(spec)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
