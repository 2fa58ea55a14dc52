#!/usr/bin/env python3
"""Benchmark for `dynzone simulate`.

    python3 perfbench/run.py --workload ddz-shipped --seed 1 --seconds 24 --trace 0

Runs one workload from the root of a source checkout, in this process, one
simulation at a time, with the public calls `dynzone simulate` makes. It
visits the workload's pool of instances in the order the seed draws for
--seconds (an untraced run also until it has visited each instance once),
checks every run's outputs, and prints one JSON object as the last line of
standard output. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics and the tracing overhead. See perfbench/README.md.

Other modes:
    --instance N           run one instance once (0: the full-size run)
    --fingerprints check   run every instance and compare its log fingerprint
    --fingerprints write   run every instance and store its log fingerprint
    --selftest             feed the checks corrupted logs; each must reject
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINTS = HERE / "fingerprints.json"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

# The first 16 hex digits of the sha256 of the full shipped seed-1 logs,
# as pinned by the project's roadmap. Instance 0 of each shipped workload
# must reproduce them.
ROADMAP_FINGERPRINTS = {
    "ddz-shipped": "62ae727634abab5d",
    "sa-shipped": "d3425ded5e6c124a",
    "ga-shipped": "ea37598c0c2b4279",
}


def require_sources() -> None:
    if not (SRC / "dynzone" / "__init__.py").is_file():
        raise SystemExit(f"error: no dynzone sources under {SRC}")


class Dynzone:
    """The program under test, imported from the checkout's own sources."""

    def __init__(self) -> None:
        require_sources()
        sys.path.insert(0, str(SRC))
        from dynzone import simengine
        from dynzone.errors import DeadlockDetected
        from dynzone.floorgraph import FloorGraph

        if not Path(simengine.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: dynzone was imported from {simengine.__file__}")
        self.FloorGraph = FloorGraph
        self.DeadlockDetected = DeadlockDetected
        self.sim = simengine


@dataclass
class Outcome:
    inst: workloads.Instance
    setup_s: float
    sim_s: float
    events: int
    problems: list[str]
    fingerprint: str = ""


def run_instance(dz: Dynzone, inst, tracer=None):
    """One `dynzone simulate` run of an instance.

    Returns (set-up seconds, simulation seconds, events, log text, facts);
    set-up ends at the first event, and the simulation ends with the
    metrics report and the serialised event log. Raises DeadlockDetected.
    """
    t0 = time.perf_counter()
    layout = json.loads(inst.layout_text)
    scenario = json.loads(inst.scenario_text)
    config = json.loads(inst.config_text)
    graph = dz.FloorGraph.from_json(layout)
    parts = dz.sim.expand_scenario(scenario)
    cfg = dz.sim.SimConfig.from_json(config, inst.method, inst.sim_seed)
    sim = dz.sim.Simulation(graph, parts, cfg)
    t1 = time.perf_counter()
    start_points = {r: robot.point for r, robot in sim.robots.items()}
    if tracer is not None:
        tracer.install()
    t2 = time.perf_counter()
    try:
        events = sim.run()
        report = dz.sim.compute_metrics(events, cfg.method, cfg.n_robots, len(parts))
        log_text = dz.sim.log_to_jsonl(events)
        t3 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    facts = checks.Facts(
        layout=layout,
        scenario=scenario,
        n_robots=cfg.n_robots,
        start_points=start_points,
        odometers={r: robot.odometer for r, robot in sim.robots.items()},
        completion_minutes=report.time_to_complete_minutes,
        repair_free=inst.repair_free,
    )
    return t1 - t0, t3 - t2, events, log_text, facts


def simulate(dz: Dynzone, inst, expected, oracle_cache, tracer=None) -> Outcome:
    """run_instance, then every correctness check on its outputs."""
    try:
        setup_s, sim_s, events, log_text, facts = run_instance(dz, inst, tracer)
    except dz.DeadlockDetected as exc:
        return Outcome(inst, 0.0, 0.0, 0, [f"deadlock: {exc}"])
    if inst.layout_text not in oracle_cache:
        oracle_cache.clear()
        oracle_cache[inst.layout_text] = checks.all_pairs_distances(facts.layout)
    problems = checks.check_run(
        events, facts, log_text, expected, oracle_cache[inst.layout_text])
    return Outcome(inst, setup_s, sim_s, len(events), problems,
                   checks.fingerprint(log_text))


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}


def note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def report(outcome: Outcome) -> None:
    status = "ok" if not outcome.problems else "FAILED"
    note(
        f"{outcome.inst.workload} instance {outcome.inst.index}: "
        f"setup {outcome.setup_s:.3f} s, sim {outcome.sim_s:.3f} s, "
        f"{outcome.events} events, {status}"
    )
    for p in outcome.problems[:10]:
        note(f"  {p}")


def result_line(outcomes: list[Outcome], metrics: dict) -> int:
    failed = sum(1 for o in outcomes if o.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


# ── Modes ────────────────────────────────────────────────────────────


def bench(args) -> int:
    """Timed run: end-to-end metrics (--trace 0) or per-layer (--trace 1)."""
    generating = time.perf_counter()
    order = workloads.visit_order(args.workload, args.seed)
    indices = [args.instance] if args.instance is not None else order
    first = workloads.make_instance(args.workload, indices[0])
    generated = time.perf_counter() - generating
    dz = Dynzone()
    expected = load_fingerprints().get(args.workload, {})
    oracle_cache: dict = {}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    outcomes: list[Outcome] = []
    plain: list[float] = []  # untraced sim_s, for the tracing overhead
    measure_start = time.perf_counter()
    k = 0
    while True:
        inst = first if k == 0 else workloads.make_instance(
            args.workload, indices[k % len(indices)])
        want = expected.get(str(inst.index))
        if tracer is not None:
            plain.append(simulate(dz, inst, want, oracle_cache).sim_s)
        outcome = simulate(dz, inst, want, oracle_cache, tracer)
        if k == 0:
            # Cold set-up: from process start to the first event, less the
            # benchmark's own input generation.
            cold_setup = measure_start - PROCESS_START - generated + outcome.setup_s
        report(outcome)
        outcomes.append(outcome)
        k += 1
        # An untraced run ends only once it has covered its whole pool.
        covered = tracer is not None or k >= len(indices)
        if args.instance is not None or (
                covered and time.perf_counter() - measure_start >= args.seconds):
            break

    if tracer is not None:
        overhead = [o.sim_s - p for o, p in zip(outcomes, plain)]
        metrics = tracer.metrics(len(outcomes))
        metrics["trace.overhead_s"] = (statistics.median(overhead), "s/sim")
        metrics["trace.overhead_pct"] = (
            100.0 * sum(overhead) / sum(plain), "%")
        OUT.mkdir(exist_ok=True)
        dump = tracer.dump()
        dump["instances"] = [o.inst.index for o in outcomes]
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(dump) + "\n")
    else:
        # Weigh each pool instance once, however often the run visited it,
        # so a run that covers the pool reads the pool's mean.
        visits: dict[int, list[Outcome]] = {}
        for o in outcomes:
            if not o.problems:
                visits.setdefault(o.inst.index, []).append(o)
        sim_s = [statistics.fmean(o.sim_s for o in v) for v in visits.values()]
        events = [v[0].events for v in visits.values()]
        metrics = {
            "setup_s": (cold_setup, "s"),
            "sim_s": (statistics.fmean(sim_s) if sim_s else 0.0, "s"),
            "events_per_s": (sum(events) / sum(sim_s) if sim_s else 0.0, "events/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return result_line(outcomes, metrics)


def fingerprints(args) -> int:
    """Run every instance; check against or rewrite the stored fingerprints."""
    dz = Dynzone()
    write = args.fingerprints == "write"
    stored = load_fingerprints()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    failures = 0
    oracle_cache: dict = {}
    for name in names:
        for index in workloads.instance_indices(name):
            inst = workloads.make_instance(name, index)
            want = None if write else stored.get(name, {}).get(str(index))
            outcome = simulate(dz, inst, want, oracle_cache)
            if write:
                outcome.problems = [
                    p for p in outcome.problems if not p.startswith("check_fingerprint")]
                if not outcome.problems:
                    stored.setdefault(name, {})[str(index)] = outcome.fingerprint
            roadmap = ROADMAP_FINGERPRINTS.get(name) if index == 0 else None
            if roadmap and not outcome.fingerprint.startswith(roadmap):
                outcome.problems.append(
                    f"full shipped seed-1 log sha256 {outcome.fingerprint} does not start "
                    f"with the roadmap's {roadmap}")
            report(outcome)
            failures += bool(outcome.problems)
    if write:
        FINGERPRINTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        note(f"wrote {FINGERPRINTS}")
    note(f"{failures} instance(s) failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance", type=int)
    ap.add_argument("--fingerprints", choices=("check", "write"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    require_sources()
    if args.selftest:
        import selftest

        return selftest.main(Dynzone(), run_instance, ROADMAP_FINGERPRINTS,
                             load_fingerprints())
    if args.fingerprints:
        return fingerprints(args)
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
