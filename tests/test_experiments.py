"""Experiment harness integration: every figure/table runs and shows the
paper's qualitative result."""

import pytest

from repro.common.units import KIB, MIB
from repro.experiments import characterize as exp_characterize
from repro.experiments import fig01, fig03, fig05, fig06, fig07, fig09
from repro.experiments import fig10, fig11, fig12, fig13, tables
from repro.experiments.common import ExperimentResult, Scale
from repro.experiments.runner import REGISTRY, run_experiment


class TestFig1:
    def test_bandwidth_inversion(self):
        result = fig01.run_bandwidth()
        assert result.metrics["pmep_store_over_nt"] > 1.5
        assert result.metrics["optane_nt_over_store"] > 1.5

    def test_latency_flat_vs_tiered(self):
        result = fig01.run_latency()
        assert result.metrics["pmep_flatness"] < 1.4
        assert result.metrics["vans_dynamic_range"] > 2.0


class TestFig3:
    def test_vans_beats_baselines(self):
        result = fig03.run_accuracy()
        assert result.metrics["vans_minus_best_baseline"] > 0.15

    def test_pcm_misses_buffer_tiers(self):
        result = fig03.run_pcm_latency()
        assert result.metrics["pcm_flatness"] < 2.0


class TestFig5:
    def test_inflections_at_planted_capacities(self):
        result = fig05.run_latency(block=64)
        assert result.metrics["read_inflections"] == str([16 * KIB, 16 * MIB])
        assert result.metrics["write_inflections"] == str([512, 4 * KIB])

    def test_raw_converges(self):
        result = fig05.run_raw()
        assert result.metrics["raw_over_rpw_small"] > 1.5
        assert result.metrics["raw_over_rpw_large"] < 1.2

    def test_tlb_flat(self):
        result = fig05.run_tlb()
        assert result.metrics["mpki_spread"] < 5.0


class TestFig6:
    def test_read_entry_sizes(self):
        result = fig06.run_read()
        assert result.metrics["rmw_entry_size"] == 256
        assert result.metrics["ait_entry_size"] == 4 * KIB

    def test_write_combine_size(self):
        result = fig06.run_write()
        assert result.metrics["lsq_combine_size"] == 256


class TestFig7:
    def test_interleave_period(self):
        result = fig07.run_interleaving()
        assert result.metrics["interleave_granularity"] == 4 * KIB
        assert result.metrics["speedup_at_16k"] > 1.0

    def test_overwrite_tails(self):
        result = fig07.run_tail_latency()
        assert result.metrics["tail_interval_iters"] == pytest.approx(
            14000, rel=0.1)
        assert result.metrics["tail_over_median"] > 20

    def test_wear_block_detected(self):
        result = fig07.run_tail_ratio()
        assert result.metrics["wear_block_detected"] == 64 * KIB

    def test_tlb_flat_during_overwrite(self):
        result = fig07.run_tlb()
        assert result.metrics["max_misses_after_warmup"] == 0


class TestFig8:
    def test_full_characterization_correct(self):
        result = exp_characterize.run()
        assert result.metrics["parameters_correct"] == \
            result.metrics["parameters_total"]


class TestFig9:
    def test_read_latency_accuracy(self):
        result = fig09.run_latency(ndimms=1)
        assert result.metrics["acc_lat_ld"] > 0.85

    def test_amplification_tracks_expectation(self):
        result = fig09.run_read_amplification()
        for _, measured, expected in result.rows:
            assert measured == pytest.approx(expected, abs=0.5)

    def test_overall_accuracy_near_paper(self):
        result = fig09.run_accuracy()
        # the paper reports 86.5%; we require the same ballpark
        assert result.metrics["average_accuracy"] > 0.75


class TestFig10:
    def test_capacity_invariance(self):
        result = fig10.run_capacity()
        assert result.metrics["max_relative_spread"] < 0.05

    def test_more_dimms_never_slower(self):
        result = fig10.run_dimm_count()
        for row in result.rows:
            assert row[4] <= row[1] * 1.02  # 6dimm <= 1dimm


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11.run(workloads=["gcc", "mcf", "lbm", "omnetpp"])

    def test_vans_more_accurate_than_ramulator(self, result):
        assert result.metrics["vans_speedup_accuracy_geomean"] > \
            result.metrics["ramulator_speedup_accuracy_geomean"]

    def test_speedups_below_one(self, result):
        for row in result.rows:
            assert row[5] < 1.0  # NVRAM slower than DRAM

    def test_memory_intensity_ordering(self, result):
        by_name = {row[0]: row for row in result.rows}
        assert by_name["mcf"][5] < by_name["omnetpp"][5]


class TestFig12:
    def test_redis_read_dominates(self):
        result = fig12.run_redis()
        ratios = dict((r[0], r[1]) for r in result.rows)
        assert ratios["cpi"] > 4
        assert ratios["llc_miss"] > 2
        assert ratios["tlb_miss"] > 2

    def test_ycsb_hot_lines(self):
        result = fig12.run_ycsb()
        rows = {r[0]: r for r in result.rows}
        assert rows["writes per line"][3] > 50
        top_migrations = rows["wear migrations"][1]
        rest_migrations = rows["wear migrations"][2]
        assert top_migrations > rest_migrations


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13.run(workloads=["ycsb", "linkedlist"])

    def test_pretranslation_helps_pointer_chasing(self, result):
        by_name = {row[0]: row for row in result.rows}
        assert by_name["linkedlist"][2] > 1.2

    def test_lazy_helps_hot_writes(self, result):
        by_name = {row[0]: row for row in result.rows}
        assert by_name["ycsb"][1] > 1.05

    def test_tlb_mpki_reduced(self, result):
        assert result.metrics["tlb_mpki_mean_ratio"] < 0.95


class TestTables:
    def test_table4_calibration(self):
        result = tables.run_table4()
        assert result.metrics["worst_relative_mpki_error"] < 0.35

    def test_table5_reports_config(self):
        result = tables.run_table5()
        rendered = result.render()
        assert "16K" in rendered and "16M" in rendered

    def test_static_tables(self):
        t1 = tables.run_table1()
        t2 = tables.run_table2()
        assert len(t1.rows) == 4
        assert len(t2.rows) == 8


class TestRunner:
    def test_registry_covers_all_figures(self):
        paper_artifacts = {"fig1", "fig3", "fig5", "fig6", "fig7", "fig8",
                           "fig9", "fig10", "fig11", "fig12", "fig13",
                           "tables"}
        assert paper_artifacts <= set(REGISTRY)
        assert {"scaling", "ablation"} <= set(REGISTRY)

    def test_run_experiment_returns_results(self):
        results = run_experiment("fig1", Scale.SMOKE)
        assert all(isinstance(r, ExperimentResult) for r in results)
        assert len(results) == 2

    def test_render_produces_table(self):
        result = fig01.run_bandwidth()
        text = result.render()
        assert "fig1a" in text
        assert "store-nt" in text


#: experiments cheap enough (estimated smoke cost <= 3 s) to run in full
FAST_IDS = sorted(i for i, s in REGISTRY.items() if s.est_cost <= 3.0)


@pytest.mark.parametrize("exp_id", FAST_IDS)
def test_declared_targets_are_the_targets_built(exp_id, monkeypatch):
    """``ExperimentSpec.targets`` names exactly the registry targets a
    smoke run builds (``--list`` and the serve ``experiments`` verb
    report it)."""
    from repro import registry

    built = set()
    build = registry.build

    def recording_build(name, **overrides):
        built.add(name)
        return build(name, **overrides)

    monkeypatch.setattr(registry, "build", recording_build)
    run_experiment(exp_id, Scale.SMOKE)
    assert built == set(REGISTRY[exp_id].targets)
