"""Layered LENS/VANS benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload lens-read --seed 1 --seconds 40 --trace 0

Run from the root of a repository checkout.  The timed phase repeats
passes over the workload's units until ``--seconds`` is spent; each unit
is bracketed by the calibration loop, so CPU time can be normalized by
how fast the host runs at that moment.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer split.  Every pass checks each unit's simulated
outputs: the digest must be the same in every pass (traced or not) and,
for seeds in ``golden.json``, equal to the committed one.

``--write-golden`` records the digests of one pass for ``--seed`` instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
#: Set-up repeats per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Seconds a fresh interpreter takes to import the simulator.
_IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); "
                 "sys.path[:0] = sys.argv[1:]; import workloads; "
                 "print(time.perf_counter() - t0)")
#: ``trace.coverage`` floor: attributed self time over traced total.
COVERAGE_FLOOR = 0.9
MAX_ERRORS_SHOWN = 5


@dataclass
class UnitRun:
    """One execution of one unit."""

    name: str
    wall_s: float
    cpu_s: float
    #: unit CPU (wall) time over the mean CPU (wall) time of the
    #: calibration loops just before and after it
    norm_cpu: float = 0.0
    norm_wall: float = 0.0
    digest: str = ""
    result: Optional[dict] = None
    requests: int = 0
    stats: Counter = field(default_factory=Counter)
    error: str = ""


@dataclass
class Pass:
    traced: bool
    units: List[UnitRun]
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(u.wall_s for u in self.units)

    @property
    def cpu_s(self) -> float:
        return sum(u.cpu_s for u in self.units)

    @property
    def requests(self) -> int:
        return sum(u.requests for u in self.units)


def _times_of(fn):
    """``(cpu seconds, wall seconds)`` of one call of ``fn``."""
    c0 = time.process_time()
    w0 = time.perf_counter()
    fn()
    return time.process_time() - c0, time.perf_counter() - w0


def program_counters(target) -> dict:
    """The target's own counters: its instrumentation snapshot plus the
    DRAM device statistics it keeps in separate registries."""
    snap = dict(target.instrument_snapshot())
    imc = getattr(target, "imc", None)
    if imc is not None:
        for i, dimm in enumerate(imc.dimms):
            for key, value in dimm.dram.stats.snapshot().items():
                snap[f"ondimm{i}.{key}"] = value
    elif hasattr(target, "dram") and "dram.reads" not in snap:
        snap.update(target.dram.stats.snapshot())
    return snap


def check_requests(counts: Counter, snap: dict) -> str:
    """Compare boundary request counts with the program's own counters
    where it keeps them; returns a message on mismatch."""
    if "imc.reads" in snap:
        pairs = [("read", "imc.reads"), ("write", "imc.writes"),
                 ("fence", "imc.fences")]
    elif "slowdram.reads" in snap:
        pairs = [("read", "slowdram.reads"), ("write", "slowdram.writes")]
    else:
        # PMEP keeps no request counters; every read and write is one
        # access of its DRAM device.
        if counts["read"] + counts["write"] != (snap.get("dram.reads", 0)
                                                + snap.get("dram.writes", 0)):
            return (f"boundary counted {counts['read'] + counts['write']} "
                    f"reads+writes, DRAM device saw "
                    f"{snap.get('dram.reads', 0) + snap.get('dram.writes', 0)}")
        return ""
    for op, key in pairs:
        if counts[op] != snap[key]:
            return f"boundary counted {counts[op]} {op}s, program {key}={snap[key]}"
    return ""


def simulated_stats(snap: dict) -> Counter:
    """Per-layer simulated statistics summed from one target's counters."""
    out = Counter()
    for key, value in snap.items():
        if key.endswith(".rpq.blocked_ps"):
            out["rpq_blocked_ps"] += value
        elif key.endswith(".wpq.blocked_ps"):
            out["wpq_blocked_ps"] += value
        elif key.endswith(".lsq.blocked_ps"):
            out["lsq_blocked_ps"] += value
        elif key.startswith("ondimm") and key.endswith(".dram.row_hits"):
            out["row_hits"] += value
        elif key.startswith("ondimm") and key.endswith(".dram.row_misses"):
            out["row_misses"] += value
    for key in ("dimm.rmw_hits", "dimm.rmw_misses", "dimm.ait_hits",
                "dimm.ait_misses", "wear.migrations", "wear.stall_ps"):
        out[key] += snap.get(key, 0)
    if "lazy.absorbed_writes" in snap:
        out["lazy.absorbed"] += snap["lazy.absorbed_writes"]
        out["lazy.downstream"] += (snap["lazy.absorbed_writes"]
                                   + snap["dimm.combined_write_ops"]
                                   + snap["dimm.partial_write_ops"])
    return out


def run_unit(unit, seed: int, tracer) -> UnitRun:
    """Execute one unit; times only the unit, then checks its outputs."""
    from workloads import Env

    env = Env(seed, tracer)
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        result = unit.run(env)
        error = ""
    except Exception:  # a failing unit is counted, the run goes on
        result = None
        error = traceback.format_exc()
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    run = UnitRun(unit.name, wall, cpu, result=result, error=error)
    if error:
        return run
    snaps = []
    for target, counts in env.targets:
        snap = program_counters(target)
        snaps.append(snap)
        run.requests += sum(counts.values())
        run.stats += simulated_stats(snap)
        mismatch = check_requests(counts, snap)
        if mismatch:
            run.error = f"{unit.name}: {mismatch}"
    outputs = json.dumps({"result": result, "targets": snaps},
                         sort_keys=True)
    run.digest = hashlib.sha256(outputs.encode()).hexdigest()[:20]
    return run


def run_pass(units, seed: int, traced: bool) -> Pass:
    """All units once, the calibration loop before and after each."""
    from layers import Tracer, calibration_loop

    tracer = Tracer() if traced else None
    runs = []
    before = _times_of(calibration_loop)
    for unit in units:
        run = run_unit(unit, seed, tracer)
        after = _times_of(calibration_loop)
        run.norm_cpu = run.cpu_s / ((before[0] + after[0]) / 2)
        run.norm_wall = run.wall_s / ((before[1] + after[1]) / 2)
        before = after
        runs.append(run)
    if tracer is None:
        return Pass(False, runs)
    return Pass(True, runs, dict(tracer.self_s), dict(tracer.calls))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_unit(passes: List[Pass], attr: str, reduce) -> float:
    """Sum over units of ``reduce`` of each unit's values across passes."""
    return sum(reduce([getattr(p.units[i], attr) for p in passes])
               for i in range(len(passes[0].units)))


def end_to_end(passes, setup_s, accuracy, attempted, failed) -> dict:
    # Interference on a shared host only ever slows a unit, so each
    # unit's best pass, in calibration loops, is the steady estimate of
    # its cost (best of N, as timeit reports).  Raw wall seconds drifted
    # 12-26% and per-pass medians of the ratios 4-9% between runs.
    norm_wall = _per_unit(passes, "norm_wall", min)
    return {
        "setup_s": (setup_s, "s"),
        "norm_cpu": (_per_unit(passes, "norm_cpu", min), "ratio"),
        "norm_wall": (norm_wall, "ratio"),
        "sim_req_per_loop": (passes[0].requests / norm_wall, "1/loop"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "accuracy": (accuracy, "ratio"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
    }


#: Layers named in the per-layer split, each reported as self seconds
#: and boundary-crossing calls.
LAYERS = ("lens", "registry", "cpu.core", "cpu.cache",
          "cpu.tlb", "optim.pretranslation", "optim.lazycache",
          "vans.system", "vans.imc", "vans.dimm", "dram", "media.xpoint",
          "media.wear", "baselines")


def per_layer(untraced: List[Pass], traced: List[Pass], gen_s: float,
              ops: int) -> dict:
    """The traced split: medians of self time over traced passes; counts
    and simulated statistics from the first traced pass (they repeat)."""
    first = traced[0]
    stats = Counter()
    results = []
    for run in first.units:
        stats += run.stats
        if run.result is not None:
            results.append(run.result)
    self_s = {layer: statistics.median(p.self_s.get(layer, 0.0)
                                       for p in traced)
              for layer in LAYERS}
    traced_total = statistics.median(p.wall_s for p in traced)
    attributed = sum(self_s.values())
    calls = first.calls

    def total(key):
        return sum(r.get(key, 0) for r in results)

    host_wall = _per_unit(untraced, "wall_s", min)
    out = {
        "host.wall_s": (host_wall, "s"),
        "host.req_per_s": (untraced[0].requests / host_wall, "1/s"),
        "workloads.gen_s": (gen_s, "s"),
        "workloads.ops": (ops, "count"),
        "lens.points": (calls.get("lens", 0), "count"),
        "target.requests": (first.requests, "count"),
        "cpu.core.instructions": (total("core_instructions"), "count"),
        "cpu.cache.llc_miss_ratio": (_ratio(
            total("llc_misses"), total("llc_misses") + total("llc_hits")),
            "ratio"),
        "cpu.tlb.stlb_miss_ratio": (_ratio(
            total("stlb_misses"), total("stlb_misses") + total("stlb_hits")),
            "ratio"),
        "optim.lazycache.absorbed_ratio": (
            _ratio(stats["lazy.absorbed"], stats["lazy.downstream"]),
            "ratio"),
        "vans.imc.rpq_blocked_ps": (stats["rpq_blocked_ps"], "ps"),
        "vans.imc.wpq_blocked_ps": (stats["wpq_blocked_ps"], "ps"),
        "vans.dimm.lsq_blocked_ps": (stats["lsq_blocked_ps"], "ps"),
        "vans.dimm.rmw_hit_ratio": (_ratio(
            stats["dimm.rmw_hits"],
            stats["dimm.rmw_hits"] + stats["dimm.rmw_misses"]), "ratio"),
        "vans.dimm.ait_hit_ratio": (_ratio(
            stats["dimm.ait_hits"],
            stats["dimm.ait_hits"] + stats["dimm.ait_misses"]), "ratio"),
        "dram.row_hit_ratio": (_ratio(
            stats["row_hits"], stats["row_hits"] + stats["row_misses"]),
            "ratio"),
        "media.wear.migrations": (stats["wear.migrations"], "count"),
        "media.wear.stall_ps": (stats["wear.stall_ps"], "ps"),
        "unattributed.self_s": (traced_total - attributed, "s"),
        "trace.coverage": (_ratio(attributed, traced_total), "ratio"),
        "trace.overhead": (_ratio(
            statistics.median(p.cpu_s for p in traced),
            statistics.median(p.cpu_s for p in untraced)), "ratio"),
    }
    for layer, seconds in self_s.items():
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    return out


def liveness(workload, traced: List[Pass], ops: int) -> List[str]:
    """Problems that make a traced run fail even when outputs match."""
    first = traced[0]
    seen = dict(first.calls, target=first.requests, workloads=ops)
    problems = [f"layer {layer} saw no calls on {workload.name}"
                for layer in workload.live if not seen.get(layer)]
    for p in traced:
        coverage = _ratio(sum(p.self_s.values()), p.wall_s)
        if coverage < COVERAGE_FLOOR:
            problems.append(f"trace.coverage {coverage:.3f} is below "
                            f"{COVERAGE_FLOOR}")
    return problems


def load_golden(workload: str, seed: int) -> Dict[str, str]:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed), {})


def write_golden(workload: str, seed: int, digests: Dict[str, str]) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden.setdefault(workload, {})[str(seed)] = digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def check_digests(passes: List[Pass], golden: Dict[str, str]) -> int:
    """Mark unit runs whose digest differs from the golden one or from
    the first pass; returns the number of failed unit runs."""
    reference = {u.name: u.digest for u in passes[0].units}
    failed = 0
    for p in passes:
        for run in p.units:
            expected = golden.get(run.name, reference[run.name])
            if not run.error and run.digest != expected:
                run.error = (f"{run.name}: outputs digest {run.digest} != "
                             f"{expected}")
            failed += bool(run.error)
    return failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record one pass's unit digests for --seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, accuracy_of

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up: importing the simulator in a fresh interpreter, building
    # each target once and generating the traces; median of the repeats.
    setups = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120)
        t0 = time.perf_counter()
        inputs, ops, gen_s = workload.setup(args.seed)
        setups.append((float(probe.stdout) + time.perf_counter() - t0,
                       gen_s))
    setup_s = statistics.median(s for s, _ in setups)
    gen_s = statistics.median(g for _, g in setups)
    units = workload.units(inputs, args.seed)

    if args.write_golden:
        p = run_pass(units, args.seed, traced=False)
        errors = [u.error for u in p.units if u.error]
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        write_golden(workload.name, args.seed,
                     {u.name: u.digest for u in p.units})
        print(f"wrote {len(p.units)} digests for {workload.name} seed "
              f"{args.seed} to {GOLDEN}")
        return 0

    start = time.perf_counter()
    passes: List[Pass] = []
    # Stop before a pass would overrun --seconds, judged by the last
    # pass of the same kind (traced passes are slower).
    last = {}
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(units, args.seed, traced))
        last[traced] = time.perf_counter() - t0
        done = time.perf_counter() - start
        upcoming = bool(args.trace) and len(passes) % 2 == 1
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and done + last[upcoming] > args.seconds:
            break

    failed = check_digests(passes, load_golden(workload.name, args.seed))
    attempted = sum(len(p.units) for p in passes)
    errors = [u.error for p in passes for u in p.units if u.error]
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if any(p.requests != untraced[0].requests for p in passes):
        errors.append("request counts differ between passes")
    if args.trace:
        errors += liveness(workload, traced, ops)
        metrics = per_layer(untraced, traced, gen_s, ops)
    else:
        results = {u.name: u.result for u in passes[0].units
                   if u.result is not None}
        metrics = end_to_end(untraced, setup_s,
                             accuracy_of(workload.score(results)),
                             attempted, failed)
    for error in errors[:MAX_ERRORS_SHOWN]:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
