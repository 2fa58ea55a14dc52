"""Self-test of the correctness checks: none of them passes by construction.

Simulates one small shipped instance with repairs and one dispatch-grid48
instance, shows that every check accepts their real logs, then feeds each
check a copy with one deliberate corruption and requires that it rejects
it. Run it with `python3 perfbench/run.py --selftest`.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import checks
import workloads

# ddz-shipped instance 3 applies zone repairs within about 1 s of host time.
SHIPPED_INSTANCE = 3
GRID_INSTANCE = 1


def _first(events, kind):
    return next(i for i, e in enumerate(events) if e["kind"] == kind)


def _corruptions(events, facts, log_text, oracle):
    """(name, check to run, corrupted events, corrupted facts, corrupted log)."""

    def edit(fn):
        ev = copy.deepcopy(events)
        fn(ev)
        return ev

    def shorten_empty_trip(ev):
        i = next(i for i, e in enumerate(ev) if e["kind"] == "pickup" and e["distance"] > 0)
        ev[i]["distance"] -= 20.0

    def lengthen_empty_trip(ev):
        ev[_first(ev, "pickup")]["distance"] += 20.0

    def shorten_loaded_trip(ev):
        i = next(i for i, e in enumerate(ev) if e["kind"] == "dropoff" and e["distance"] > 0)
        ev[i]["distance"] -= 20.0

    def swap_route_steps(ev):
        i = _first(ev, "processing-done")
        pid = ev[i]["part"]
        j = next(j for j in range(i + 1, len(ev))
                 if ev[j]["kind"] == "processing-done" and ev[j]["part"] == pid
                 and ev[j]["ws"] != ev[i]["ws"])
        ev[i]["ws"], ev[j]["ws"] = ev[j]["ws"], ev[i]["ws"]

    def drop_route_step(ev):
        i = _first(ev, "processing-done")
        del ev[i]

    def crowd_station(ev):
        # Finish the second part at a station right after the first one.
        i = _first(ev, "processing-done")
        ws = ev[i]["ws"]
        j = next(j for j in range(i + 1, len(ev))
                 if ev[j]["kind"] == "processing-done" and ev[j]["ws"] == ws)
        ev[j]["t"] = ev[i]["t"] + 0.01

    def lose_part(ev):
        del ev[_first(ev, "part-done")]

    def hit_time_cap(ev):
        ev.append({"t": 2000.0, "kind": "time-cap", "completed": 0})

    def double_assign(ev):
        e = ev[_first(ev, "zone-repair-applied")]
        ids = sorted(e["zones"])
        e["zones"][ids[1]].append(e["zones"][ids[0]][0])

    def drop_zone(ev):
        e = ev[_first(ev, "zone-repair-applied")]
        e["zones"].pop(sorted(e["zones"])[-1])

    def flip_byte(text):
        i = len(text) // 2
        return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]

    odometer_off = replace(facts, odometers={
        r: v + (1.0 if r == min(facts.odometers) else 0.0)
        for r, v in facts.odometers.items()
    })
    too_soon = replace(facts, completion_minutes=1.0)

    def trips(ev, f, _text):
        return checks.check_trips(ev, f, oracle)

    def fingerprint(_ev, _f, text):
        return checks.check_fingerprint(text, checks.fingerprint(log_text))

    def plain(check):
        return lambda ev, f, _text: check(ev, f)

    return [
        ("shortened empty trip", trips, edit(shorten_empty_trip), facts, log_text),
        ("lengthened empty trip", trips, edit(lengthen_empty_trip), facts, log_text),
        ("loaded trip shorter than the aisles allow", trips,
         edit(shorten_loaded_trip), facts, log_text),
        ("odometer off by 1 ft", plain(checks.check_odometers), events, odometer_off, log_text),
        ("swapped route step", plain(checks.check_routes),
         edit(swap_route_steps), facts, log_text),
        ("missing route step", plain(checks.check_routes),
         edit(drop_route_step), facts, log_text),
        ("two parts at once on one station", plain(checks.check_station_spacing),
         edit(crowd_station), facts, log_text),
        ("completion sooner than the work", plain(checks.check_completion),
         events, too_soon, log_text),
        ("a part never finishes", plain(checks.check_completion),
         edit(lose_part), facts, log_text),
        ("run stopped at the time cap", plain(checks.check_completion),
         edit(hit_time_cap), facts, log_text),
        ("workstation in two zones", plain(checks.check_repairs),
         edit(double_assign), facts, log_text),
        ("zone missing from a repair", plain(checks.check_repairs),
         edit(drop_zone), facts, log_text),
        ("flipped byte in the log", fingerprint, events, facts, flip_byte(log_text)),
    ]


def main(dz, run_instance, roadmap: dict, stored: dict) -> int:
    failures = 0

    def verdict(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)

    for name, prefix in roadmap.items():
        full = stored.get(name, {}).get("0", "")
        verdict(full.startswith(prefix),
                f"stored {name} full seed-1 fingerprint {full[:16]} is the roadmap's {prefix}")

    shipped = workloads.make_instance("ddz-shipped", SHIPPED_INSTANCE)
    _, _, events, log_text, facts = run_instance(dz, shipped)
    oracle = checks.all_pairs_distances(facts.layout)
    repairs = sum(e["kind"] == "zone-repair-applied" for e in events)
    verdict(repairs > 0, f"ddz-shipped instance {SHIPPED_INSTANCE} applies {repairs} repairs")
    clean = checks.check_run(events, facts, log_text, checks.fingerprint(log_text), oracle)
    verdict(not clean, f"real ddz-shipped log passes every check {clean[:3]}")

    for name, check, ev, f, text in _corruptions(events, facts, log_text, oracle):
        problems = check(ev, f, text)
        verdict(bool(problems), f"rejects: {name} ({problems[:1]})")

    grid = workloads.make_instance("dispatch-grid48", GRID_INSTANCE)
    _, _, g_events, g_text, g_facts = run_instance(dz, grid)
    g_oracle = checks.all_pairs_distances(g_facts.layout)
    clean = checks.check_run(g_events, g_facts, g_text, checks.fingerprint(g_text), g_oracle)
    verdict(not clean, f"real dispatch-grid48 log passes every check {clean[:3]}")
    signalled = copy.deepcopy(g_events)
    signalled.insert(len(signalled) // 2,
                     {"t": signalled[len(signalled) // 2]["t"], "kind": "imbalance-signal",
                      "origin": 1})
    problems = checks.check_repairs(signalled, g_facts)
    verdict(bool(problems), f"rejects: imbalance signal on dispatch-grid48 ({problems[:1]})")

    print(f"{failures} self-test failure(s)")
    return 1 if failures else 0
