"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from layers import Tracer  # noqa: E402
from repro.dram.device import DramDevice  # noqa: E402
from repro.lens.microbench.overwrite import Overwrite  # noqa: E402
from repro.lens.microbench.pointer_chasing import PointerChasing  # noqa: E402
from repro.media.wear import WearLeveler  # noqa: E402
from workloads import WORKLOADS, Unit, Workload  # noqa: E402


def overwrite_unit(iterations: int = 1500) -> Unit:
    def body(env):
        res = env.lens(Overwrite().run, env.build("vans"), 256, iterations)
        return {"median_ns": res.median_ns}
    return Unit("overwrite/vans", body)


def read_unit(region: int = 1 << 20) -> Unit:
    pc = PointerChasing(seed=3, max_lines_per_point=300)

    def body(env):
        return {"lat_ns": env.lens(pc.read_latency_ns, env.build("pmep"),
                                   region, 64)}
    return Unit(f"read/pmep/{region}", body)


def raising_unit() -> Unit:
    def body(env):
        env.build("vans")
        raise RuntimeError("injected unit failure")
    return Unit("raises", body)


def test_raising_unit_counts_as_failed():
    p = run.run_pass([read_unit(), raising_unit()], 0, traced=False)
    failed = run.check_digests([p], {})
    assert failed == 1
    assert "injected unit failure" in p.units[1].error
    metrics = run.end_to_end([p], 1.0, 0.5, attempted=2, failed=failed)
    assert metrics["ok_share"][0] == 0.5


def test_digest_mismatch_counts_as_failed():
    units = [read_unit(), overwrite_unit(200)]
    p = run.run_pass(units, 0, traced=False)
    assert run.check_digests([p], {}) == 0
    golden = {u.name: u.digest for u in p.units}
    again = run.run_pass(units, 0, traced=False)
    assert run.check_digests([again], golden) == 0
    golden["overwrite/vans"] = "0" * 20
    failed = run.check_digests([again], golden)
    assert failed == 1
    assert "digest" in again.units[1].error
    metrics = run.end_to_end([again], 1.0, 0.5, attempted=2, failed=failed)
    assert metrics["ok_share"][0] == 0.5


def test_digest_differing_between_passes_fails():
    units = [read_unit()]
    first = run.run_pass(units, 0, traced=False)
    second = run.run_pass([read_unit(region=1 << 16)], 0, traced=False)
    second.units[0].name = first.units[0].name
    assert run.check_digests([first, second], {}) == 1


def test_traced_and_untraced_outputs_identical():
    units = [read_unit(), overwrite_unit(300)]
    plain = run.run_pass(units, 5, traced=False)
    traced = run.run_pass(units, 5, traced=True)
    assert [u.digest for u in plain.units] == [u.digest for u in traced.units]
    assert plain.requests == traced.requests > 0
    assert run.check_digests([plain, traced], {}) == 0


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.mark.parametrize("cls,method,layer", [
    (WearLeveler, "on_write", "media.wear"),
    (DramDevice, "access", "dram"),
])
def test_injected_slowdown_shows_in_its_layer_only(monkeypatch, cls, method,
                                                   layer):
    units = [overwrite_unit(400)]
    original = getattr(cls, method)
    calls = Counter()

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counting)
    base = run.run_pass(units, 0, traced=True)
    delay = 200e-6

    def slow(self, *args, **kwargs):
        _busy(delay)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, slow)
    slowed = run.run_pass(units, 0, traced=True)
    assert slowed.units[0].digest == base.units[0].digest
    injected = delay * calls["n"]
    assert injected > 0.05
    delta = {name: slowed.self_s.get(name, 0.0) - base.self_s.get(name, 0.0)
             for name in set(base.self_s) | set(slowed.self_s)}
    assert delta[layer] > 0.8 * injected
    for name, change in delta.items():
        if name != layer:
            assert abs(change) < 0.25 * injected, (name, change, injected)


def test_liveness_flags_a_layer_that_never_ran():
    workload = Workload("probe", lambda seed: ({}, 0, 0.0),
                        lambda inputs, seed: [read_unit()],
                        lambda results: [], live=("baselines", "cpu.core"))
    traced = run.run_pass([read_unit()], 0, traced=True)
    problems = run.liveness(workload, [traced], ops=0)
    assert problems == ["layer cpu.core saw no calls on probe"]


def test_liveness_flags_low_coverage():
    traced = run.run_pass([read_unit()], 0, traced=True)
    traced.units[0].wall_s *= 2.0
    workload = Workload("probe", None, None, None, live=())
    assert any("coverage" in p for p in run.liveness(workload, [traced], 0))


def test_request_count_checked_against_program_counters():
    snap = {"imc.reads": 3, "imc.writes": 2, "imc.fences": 1}
    assert run.check_requests(Counter(read=3, write=2, fence=1), snap) == ""
    assert "reads" in run.check_requests(Counter(read=2, write=2, fence=1),
                                         snap)
    pmep = {"dram.reads": 4, "dram.writes": 1}
    assert run.check_requests(Counter(read=4, write=1, fence=7), pmep) == ""
    assert run.check_requests(Counter(read=4, write=0), pmep) != ""


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    class Inner:
        def work(self):
            _busy(0.02)

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def work(self):
            _busy(0.01)
            self.inner.work()
            self.inner.work()

    outer = Outer()
    tracer.wrap("outer", outer, "work")
    tracer.wrap("inner", outer.inner, "work")
    outer.work()
    assert tracer.calls == Counter(outer=1, inner=2)
    assert 0.01 <= tracer.self_s["outer"] < 0.02
    assert 0.04 <= tracer.self_s["inner"] < 0.05


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = [read_unit()]
    plain = run.run_pass(units, 0, traced=False)
    traced = run.run_pass(units, 0, traced=True)
    assert list(run.end_to_end([plain], 1.0, 0.5, 1, 0)) == [
        m["name"] for m in spec["end_to_end"]]
    assert sorted(run.per_layer([plain], [traced], 0.0, 0)) == sorted(
        m["name"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_live_layers_are_reported_layers():
    for workload in WORKLOADS.values():
        assert set(workload.live) <= set(run.LAYERS) | {"target", "workloads"}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lens-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
