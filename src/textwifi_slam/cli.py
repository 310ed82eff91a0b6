"""Command-line front end for the mapping pipeline.

generate, simulate and run-all write the artifact directory's config.json
and take the settings flags (flags beat config file, which is --config or
else that config.json, beats defaults). match, align and evaluate run with
that config.json as it stands and take only --out, plus evaluate's --sweep.
Each command makes one pipeline call and prints a summary line; what a
stage reads and writes in the directory is the pipeline module's business.

Exit codes: 0 success, 1 usage or configuration error, 2 pipeline failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import pipeline
from .config import RunConfig, build_config
from .scenarios import scenario_names

log = logging.getLogger(__name__)

USAGE_ERROR = 1
PIPELINE_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here says 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="textwifi-slam",
        description="Multi-agent mapping with text and WiFi place recognition.",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--sweep", action="store_true", help="add a threshold sweep to metrics")
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", type=Path, default=None, help="config file (JSON)")
    settings.add_argument("--seed", type=int, default=None, help="master random seed")
    settings.add_argument("--alpha", type=float, default=None, help="text gate threshold")
    settings.add_argument("--beta", type=float, default=None, help="MAC overlap threshold")
    settings.add_argument("--gamma", type=float, default=None, help="RSS similarity threshold")
    settings.add_argument(
        "--scenario", choices=scenario_names(), default=None, help="scripted scenario"
    )
    writer = [out, settings, sweep]
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, parents, desc in (
        ("generate", _cmd_generate, writer, "write the floorplan for the chosen scenario"),
        ("simulate", _cmd_simulate, writer, "write per-agent sensor recordings"),
        ("match", _cmd_match, [out], "run place recognition over recorded text events"),
        ("align", _cmd_align, [out], "register matches, optimize, merge the map"),
        ("evaluate", _cmd_evaluate, [out, sweep], "score matches and trajectory error"),
        ("run-all", _cmd_run_all, writer, "all of the above in one go"),
    ):
        p = sub.add_parser(name, parents=parents, help=desc)
        p.set_defaults(fn=fn)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    # A command without a flag reads None (or False for --sweep): not given.
    flag_overrides = {
        name: getattr(args, name, None) for name in ("seed", "alpha", "beta", "gamma", "scenario")
    }
    flag_overrides["sweep"] = True if getattr(args, "sweep", False) else None
    config_path = getattr(args, "config", None)
    if config_path is None:
        # The settings an earlier stage dropped next to its artifacts.
        candidate = args.out / pipeline.CONFIG_FILE
        if candidate.is_file():
            config_path = candidate
    return build_config(config_path=config_path, flag_overrides=flag_overrides)


def _cmd_generate(cfg: RunConfig, out_dir: Path) -> None:
    plan = pipeline.run_generate(cfg, out_dir).plan
    contents = f"{len(plan.signs)} signs, {len(plan.aps)} APs"
    print(f"wrote {pipeline.FLOORPLAN_FILE} ({contents}) to {out_dir}")


def _cmd_simulate(cfg: RunConfig, out_dir: Path) -> None:
    recordings = pipeline.run_simulate(cfg, out_dir).recordings
    events = sum(
        len(r.odometry) + len(r.scans) + len(r.texts) + len(r.wifi) + len(r.truth)
        for r in recordings.values()
    )
    print(f"wrote {len(recordings)} recordings ({events} events) to {out_dir}")


def _cmd_match(cfg: RunConfig, out_dir: Path) -> None:
    result = pipeline.run_match(cfg, out_dir)
    accepted = sum(1 for c in result.candidates if c.verdict.value == "accepted")
    print(
        f"{len(result.keyframes)} keyframes, {len(result.candidates)} candidates, "
        f"{accepted} accepted, {len(result.verified)} verified locations"
    )


def _cmd_align(cfg: RunConfig, out_dir: Path) -> None:
    result = pipeline.run_align(cfg, out_dir)
    graph = result.graph
    print(
        f"{len(graph.nodes)} nodes, {len(graph.loop_edges)} loop edges "
        f"({graph.dropped_loop_count} dropped), merged map {len(result.merged)} points"
    )


def _map_accuracy(trajectory: dict) -> str:
    """The map's ATE and end-point error, each when the metrics hold it."""
    return "".join(
        f"; {name} {trajectory[key]:.3f} m"
        for name, key in (
            ("absolute trajectory error", "ate_optimized_m"),
            ("end-point error", "epe_optimized_m"),
        )
        if key in trajectory
    )


def _cmd_evaluate(cfg: RunConfig, out_dir: Path) -> None:
    metrics = pipeline.run_evaluate(cfg, out_dir).metrics
    pr = metrics["precision_recall"]
    print(
        "precision/recall: "
        + ", ".join(
            f"{kind} {pr[kind]['precision']:.3f}/{pr[kind]['recall']:.3f}"
            for kind in ("text_only", "wifi_only", "fused")
        )
        + _map_accuracy(metrics["trajectory"])
    )


def _cmd_run_all(cfg: RunConfig, out_dir: Path) -> None:
    result = pipeline.run_all(cfg, out_dir=out_dir)
    pr = result.metrics["precision_recall"]["fused"]
    traj = result.metrics["trajectory"]
    print(
        f"fused precision {pr['precision']:.3f} recall {pr['recall']:.3f}; "
        f"{traj['loop_edge_count']} loop edges" + _map_accuracy(traj)
    )
    print(f"artifacts in {out_dir}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        args.fn(cfg, args.out)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        log.debug("stage failed", exc_info=True)
        print(f"pipeline error: {exc}", file=sys.stderr)
        return PIPELINE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
