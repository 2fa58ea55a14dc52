"""Command-line entry points: offline zone optimization, simulation runs,
batch seed-by-method comparisons, replay verification, and report tables.

Every run writes a manifest (input digests, config hash, seed, method,
output paths, tool version) recorded before the run starts, so any artifact
can be re-derived from the manifest plus the original inputs.

Exit codes: 0 success, 2 validation failure, 3 infeasibility,
4 deadlock (the partial event log path is printed).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import operator
import os
import random
import sys
from pathlib import Path

from . import __version__
from .baselines import PartHistoryWindow
from .datafiles import data_text
from .errors import (
    DeadlockDetected,
    DynzoneError,
    InfeasibleStart,
    LayoutError,
    NoFeasiblePath,
    NoNeighbors,
    OrphanPart,
    UnknownWorkstation,
)
from .floorgraph import FloorGraph
from .simengine import (
    MetricsReport,
    SimConfig,
    Simulation,
    compute_metrics,
    expand_scenario,
    log_from_jsonl,
    log_to_jsonl,
)
from .zoning import partition_from_json, partition_to_json, validate_partition

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_DEADLOCK = 4

MANIFEST_SCHEMA = 1
INFEASIBLE_ERRORS = (InfeasibleStart, NoFeasiblePath, OrphanPart, NoNeighbors)


class CliError(Exception):
    """Carries an exit code alongside the user-facing message."""

    def __init__(self, message: str, code: int = EXIT_VALIDATION) -> None:
        super().__init__(message)
        self.code = code


# ── Input resolution ─────────────────────────────────────────────────


def _read_input(source: str) -> tuple[dict, str, str]:
    """Resolve a shipped data-file name or a file path.

    Returns (parsed JSON, sha256 digest of the raw text, display label).
    The digest is taken before any run so manifests pin exact inputs.
    """
    path = Path(source)
    if path.is_file():
        text = path.read_text()
        label = str(path)
    else:
        try:
            text = data_text(source)
        except FileNotFoundError:
            raise CliError(f"{source!r} is neither a file nor a shipped data set")
        label = f"builtin:{source}"
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{label}: invalid JSON at line {exc.lineno}: {exc.msg}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return data, digest, label


def _load_graph(source: str) -> tuple[FloorGraph, str, str]:
    data, digest, label = _read_input(source)
    return FloorGraph.from_json(data), digest, label


def _config_hash(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _scenario_window(scenario: dict) -> PartHistoryWindow:
    """A history of one loaded trip per route hop of a scenario, so the
    searches train on the known part mix."""
    window = PartHistoryWindow(window_minutes=float("inf"))
    for pid, (_, route) in enumerate(expand_scenario(scenario), start=1):
        for src, dst in zip(route, route[1:]):
            if src != dst:
                window.add(pid, src, dst, 0.0)
    return window


# ── optimize ─────────────────────────────────────────────────────────


def cmd_optimize(args: argparse.Namespace) -> int:
    graph, layout_digest, layout_label = _load_graph(args.layout)
    scenario, scenario_digest, _ = _read_input(args.scenario)
    config, _, _ = _read_input(args.config)
    sim_cfg = SimConfig.from_json(config, args.method, args.seed)

    result = sim_cfg.centralized_search(
        graph, _scenario_window(scenario), args.nz, random.Random(args.seed)
    )

    violations = validate_partition(result.partition)
    if violations:
        raise CliError("optimizer produced an invalid partition:\n  " + "\n  ".join(violations))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(partition_to_json(result.partition), indent=2) + "\n")
    progress_path = out.with_name(out.stem + "_progress.csv")
    with progress_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "best_objective"])
        writer.writerows(result.progress)

    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "command": "optimize",
        "method": args.method,
        "seed": args.seed,
        "nz": args.nz,
        "layout": layout_label,
        "layout_digest": layout_digest,
        "scenario_digest": scenario_digest,
        "config_hash": _config_hash(config),
        "outputs": {"partition": str(out), "progress": str(progress_path)},
    }
    out.with_name(out.stem + "_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"optimize method={args.method} nz={args.nz} seed={args.seed} "
        f"objective={result.objective:.6f} partition={out}"
    )
    return EXIT_OK


# ── simulate ─────────────────────────────────────────────────────────


def _summary_line(method: str, seed: int, report: MetricsReport) -> str:
    balance = (
        "NA" if report.balance_not_comparable else f"{report.pct_time_in_balance:.1f}%"
    )
    return (
        f"simulate method={method} seed={seed} "
        f"completed={report.completed}/{report.total_parts} "
        f"time={report.time_to_complete_minutes:.1f}min "
        f"balance={balance} travel_sigma={report.std_travel:.1f}ft"
    )


def _run_one(
    layout_src: str,
    scenario_src: str,
    config_src: str,
    method: str,
    seed: int,
    outdir: Path,
    partition_src: str | None,
) -> MetricsReport:
    """Execute one simulation and write events, metrics, and manifest."""
    graph, layout_digest, layout_label = _load_graph(layout_src)
    scenario, scenario_digest, scenario_label = _read_input(scenario_src)
    config, _, config_label = _read_input(config_src)
    cfg = SimConfig.from_json(config, method, seed)
    parts = expand_scenario(scenario)

    start = None
    if partition_src is not None:
        pdata, _, plabel = _read_input(partition_src)
        start = partition_from_json(graph, pdata)
        violations = validate_partition(start)
        if violations:
            raise CliError(f"{plabel}: invalid partition:\n  " + "\n  ".join(violations))

    outdir.mkdir(parents=True, exist_ok=True)
    events_path = outdir / "events.jsonl"
    metrics_path = outdir / "metrics.json"
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "command": "simulate",
        "method": method,
        "seed": seed,
        "layout": layout_label,
        "layout_digest": layout_digest,
        "scenario": scenario_label,
        "scenario_digest": scenario_digest,
        "config": config_label,
        "config_hash": _config_hash(config),
        "initial_partition": partition_src if partition_src else "builtin-balanced",
        "outputs": {"events": str(events_path), "metrics": str(metrics_path)},
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )

    sim = Simulation(graph, parts, cfg, start)
    try:
        events = sim.run()
    except DeadlockDetected as exc:
        events_path.write_text(log_to_jsonl(sim.events))
        raise CliError(f"{exc} (partial event log: {events_path})", EXIT_DEADLOCK)
    events_path.write_text(log_to_jsonl(events))
    report = compute_metrics(events, method, cfg.n_robots, len(parts))
    metrics_path.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return report


def _matrix_worker(job: tuple) -> tuple[str, int, dict]:
    layout_src, scenario_src, config_src, method, seed, outdir, partition_src = job
    report = _run_one(
        layout_src, scenario_src, config_src, method, seed, Path(outdir), partition_src
    )
    return method, seed, report.to_json()


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.replay:
        return _replay(Path(args.replay))
    outdir = Path(args.out)
    if args.matrix:
        try:
            seeds = [int(s) for s in args.matrix.split(",") if s.strip()]
        except ValueError:
            raise CliError("--matrix expects a comma-separated list of integer seeds")
        if not seeds:
            raise CliError("--matrix expects at least one seed")
        jobs = [
            (
                args.layout, args.scenario, args.config, method, seed,
                str(outdir / f"{method}-seed{seed}"), args.partition,
            )
            for method in ("sa", "ga", "ddz")
            for seed in seeds
        ]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
            results = list(pool.map(_matrix_worker, jobs))
        results.sort(key=lambda r: (r[0], r[1]))
        csv_path = outdir / "comparison.csv"
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["method", "seed", "completed", "time_to_complete_minutes",
                 "pct_time_in_balance", "avg_travel_feet", "std_travel_feet"]
            )
            for method, seed, rep in results:
                report = MetricsReport.from_json(rep)
                writer.writerow([
                    method, seed, report.completed,
                    f"{report.time_to_complete_minutes:.6f}",
                    "NA" if report.balance_not_comparable
                    else f"{report.pct_time_in_balance:.6f}",
                    f"{report.avg_travel:.6f}", f"{report.std_travel:.6f}",
                ])
        for method, seed, rep in results:
            print(_summary_line(method, seed, MetricsReport.from_json(rep)))
        print(f"matrix comparison written to {csv_path}")
        return EXIT_OK

    report = _run_one(
        args.layout, args.scenario, args.config, args.method, args.seed,
        outdir, args.partition,
    )
    print(_summary_line(args.method, args.seed, report))
    return EXIT_OK


def _run_file(path: Path, parse):
    """One parsed file of a run directory; a missing or unreadable one (a
    deadlocked run writes no metrics) is a validation failure naming it."""
    try:
        return parse(path.read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot read {path}: {type(exc).__name__}: {exc}")


def _load_run(run_dir: Path) -> tuple[str, str, int, MetricsReport]:
    """A finished run's scenario digest, method, seed and stored metrics."""
    keys = operator.itemgetter("scenario_digest", "method", "seed")
    return (
        *_run_file(run_dir / "manifest.json", lambda text: keys(json.loads(text))),
        _run_file(run_dir / "metrics.json", lambda text: MetricsReport.from_json(json.loads(text))),
    )


def _replay(run_dir: Path) -> int:
    """Recompute metrics from a stored event log and verify they match."""
    _, method, seed, stored = _load_run(run_dir)
    events = _run_file(run_dir / "events.jsonl", log_from_jsonl)
    replayed = compute_metrics(events, method, len(stored.travel_by_robot), stored.total_parts)
    if replayed.to_json() != stored.to_json():
        raise CliError(f"replay mismatch: recomputed metrics differ from {run_dir}/metrics.json")
    print(f"replay ok: {run_dir} metrics reproduced exactly")
    print(_summary_line(method, seed, replayed))
    return EXIT_OK


# ── report ───────────────────────────────────────────────────────────


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    scenario_digest = None
    for run_dir in map(Path, args.run_dirs):
        digest, method, seed, report = _load_run(run_dir)
        if scenario_digest is None:
            scenario_digest = digest
        elif digest != scenario_digest:
            raise CliError(
                f"{run_dir} was run on a different scenario; refusing to compare"
            )
        rows.append((method, seed, report))

    header = (
        f"{'method':<8}{'seed':>6}{'time (h)':>12}{'in balance':>12}"
        f"{'avg travel':>14}{'sigma travel':>14}"
    )
    print(header)
    print("-" * len(header))
    for method, seed, report in rows:
        balance = (
            "NA" if report.balance_not_comparable
            else f"{report.pct_time_in_balance:.1f}%"
        )
        print(
            f"{method:<8}{seed:>6}{report.time_to_complete_hours:>12.2f}"
            f"{balance:>12}{report.avg_travel:>14.1f}{report.std_travel:>14.1f}"
        )

    if args.throughput_csv:
        path = Path(args.throughput_csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "seed", "t_minutes", "parts_completed"])
            for method, seed, report in rows:
                for t, n in report.throughput:
                    writer.writerow([method, seed, t, n])
        print(f"throughput curves written to {path}")
    return EXIT_OK


# ── argument parsing ─────────────────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynzone",
        description="Multi-robot zone-delivery simulator and zone-design optimizers.",
    )
    parser.add_argument("--version", action="version", version=f"dynzone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="train a zone design offline")
    opt.add_argument("--layout", required=True, help="layout file or shipped name")
    opt.add_argument("--scenario", required=True, help="scenario file or shipped name")
    opt.add_argument("--config", default="config_default")
    opt.add_argument("--method", choices=("sa", "ga"), required=True)
    opt.add_argument("--nz", type=int, required=True, help="number of zones")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", required=True, help="partition output file")
    opt.set_defaults(func=cmd_optimize)

    simp = sub.add_parser("simulate", help="run the delivery simulation")
    simp.add_argument("--layout", default="layout18")
    simp.add_argument("--scenario", default="scenario100")
    simp.add_argument("--config", default="config_default")
    simp.add_argument("--method", choices=("sa", "ga", "ddz"), default="ddz")
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--out", default="runs/run", help="output directory")
    simp.add_argument("--partition", help="initial partition file (default: built-in balanced design)")
    simp.add_argument("--matrix", metavar="SEEDS",
                      help="comma-separated seeds; runs every seed under all three methods")
    simp.add_argument("--replay", metavar="RUN_DIR",
                      help="recompute metrics from a stored event log and verify")
    simp.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("report", help="comparative table across finished runs")
    rep.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    rep.add_argument("--throughput-csv", help="also write throughput curves as CSV")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("DYNZONE_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: DYNZONE_LOG={level} is not a logging level", file=sys.stderr)
        return EXIT_VALIDATION
    logging.basicConfig(level=level.upper())
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except INFEASIBLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DeadlockDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK
    except (LayoutError, UnknownWorkstation, DynzoneError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
