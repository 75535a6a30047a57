"""Subcommands, the online learned-scheduler loop, benchmark outputs, and
byte-level determinism of generated artifacts."""
import csv
import io
import json
import os
from xml.dom import minidom

import numpy as np
import pytest

from conftest import G, U, toy_scenario
from obsched.cli import (
    _constraints_from_obj,
    _parse_scheduler,
    gen_config_from_obj,
    grouped_bar_svg,
    main,
    run_benchmark,
    run_online,
)
from obsched.ephemeris import VisibilityConstraints
from obsched.heuristics import SiteRule, TaskRule, schedule_online_heuristic
from obsched.policy import PolicyConfig, PolicyNet
from obsched.scenario import GenConfig, ScenarioError, generate_scenario, save_scenario, scenario_to_json
from obsched.schedule import SchedulingContext, average_slowdown, total_slowdown, validate

GEN = {
    "horizon_steps": 60,
    "arrival_prob": 0.25,
    "mode_exposure_count_frac": 0.0,
    "num_sites": 1,
}


class TestSchedulerSpecs:
    def test_task_rules(self):
        assert _parse_scheduler("stf")["task_rule"] == TaskRule.STF
        assert _parse_scheduler("FCFS")["site_rule"] is None

    def test_all_ten_distributed_names(self):
        for name in ("sqtf", "sptf", "fqtf", "fptf", "pqtf", "pptf", "dqtf", "dptf", "rqtf", "rptf"):
            spec = _parse_scheduler(name)
            assert spec["kind"] == "heuristic" and spec["site_rule"] is not None

    def test_explicit_pair(self):
        spec = _parse_scheduler("rip:priority")
        assert spec["task_rule"] == TaskRule.RIP
        assert spec["site_rule"] == SiteRule.BEST_PRIORITY

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            _parse_scheduler("magic")

    @pytest.mark.parametrize(
        "spec, kind, choices",
        [
            ("stf:qualty", "site", "quality, priority"),
            ("fcfs:", "site", "quality, priority"),
            ("sft:quality", "task", "fcfs, stf, edd, spt, rip"),
            (":priority", "task", "fcfs, stf, edd, spt, rip"),
        ],
    )
    def test_a_bad_rule_in_a_pair_names_the_spec_and_the_choices(self, spec, kind, choices):
        want = f"unknown scheduler '{spec}': {kind} rule must be one of {choices}"
        with pytest.raises(ValueError) as err:
            _parse_scheduler(spec)
        assert str(err.value) == want


class TestRunOnline:
    def test_empty_scenario(self):
        s = generate_scenario(GenConfig(arrival_prob=0.0, visible_fields_only=False, num_fields=5), 0)
        dag, drops = run_online(s, "fcfs")
        assert len(dag.rows) == 0 and drops == []

    def test_single_task_unit_slowdown_for_every_scheduler(self, tmp_path):
        s = toy_scenario([(5, 6, U)])
        net = PolicyNet(PolicyConfig(hidden=8, n_filters=3, n_sites=1), seed=0)
        for sched in ("fcfs", "stf", "edd", "spt", "rip", "offline-stf", "oracle"):
            dag, drops = run_online(s, sched)
            assert drops == [] and average_slowdown(dag) == pytest.approx(1.0)
        dag, drops = run_online(s, "roars", net=net)
        assert drops == [] and average_slowdown(dag) == pytest.approx(1.0)

    def test_learned_modes_validate_and_respect_nonpreemption(self):
        s = toy_scenario(
            [(0, 5, U), (0, 5, U), (3, 5, U), (6, 4, G), (1, 4, G), (9, 5, U)]
        )
        net = PolicyNet(PolicyConfig(hidden=8, n_filters=3, n_sites=1), seed=1)
        audit: list = []
        dag, drops = run_online(s, "roars", net=net, replan_steps=15, audit=audit)
        assert validate(dag) == []
        final = {t: (int(dag.site[i]), int(dag.start[i])) for i, t in enumerate(dag.task_ids)}
        froze = [a for a in audit if a[0] == "freeze"]
        assert froze, "at least one task must start"
        for _, t, tid, site, start in froze:
            assert final[tid] == (site, start)  # frozen assignments never move

    def test_queue_bound_enforced(self):
        # 14 simultaneous arrivals vs W=10
        s = toy_scenario([(0, 2, U, 60) for _ in range(14)])
        net = PolicyNet(PolicyConfig(hidden=8, n_filters=3, n_sites=1), seed=1)
        audit: list = []
        run_online(s, "roars", queue_cap=10, net=net, replan_steps=5, audit=audit)
        waits = [a[2] for a in audit if a[0] == "waiting"]
        assert waits and max(waits) <= 10

    def test_dimension_mismatch_caught(self):
        s = toy_scenario([(0, 5, U)], n_sites=1)
        net = PolicyNet(PolicyConfig(hidden=8, n_filters=3, n_sites=4), seed=0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_online(s, "roars", net=net)

    def test_refine_mode_never_worse_than_fcfs(self):
        s = toy_scenario([(0, 5, U), (0, 5, U), (3, 5, U), (1, 4, G)])
        net = PolicyNet(PolicyConfig(hidden=8, n_filters=3, n_sites=1), seed=2)
        fcfs, _ = run_online(s, "fcfs")
        refined, _ = run_online(s, "roars-refine", net=net)
        assert total_slowdown(refined) <= total_slowdown(fcfs) + 1e-9

    @pytest.mark.parametrize("sched", ["fcfs", "sqtf", "offline-stf", "oracle", "roars", "roars-refine"])
    @pytest.mark.parametrize(
        "kw, field",
        [
            ({"queue_cap": 0}, "queue_cap"),  # roars used to run with an empty queue
            ({"queue_cap": -3}, "queue_cap"),  # roars used to fail in min()
            ({"replan_steps": 0}, "replan_steps"),  # roars used to never re-plan
        ],
    )
    def test_bad_loop_arguments_named(self, sched, kw, field):
        s = toy_scenario([(0, 5, U), (3, 5, U)])
        net = PolicyNet(PolicyConfig(hidden=8, n_filters=3, n_sites=1), seed=0)
        with pytest.raises(ValueError, match=f"^{field}: must be an integer >= 1"):
            run_online(s, sched, net=net, **kw)

    def test_constraints_reach_the_scheduler(self):
        s = generate_scenario(gen_config_from_obj(GEN), 1)
        tight = VisibilityConstraints(max_airmass=1.5)
        dag, drops = run_online(s, "stf", constraints=tight)
        want, want_drops = schedule_online_heuristic(SchedulingContext(s, tight), TaskRule.STF)
        assert dag == want and drops == want_drops
        assert dag.ctx.constraints == tight
        default, _ = run_online(s, "stf")
        assert dag != default


class TestBenchmark:
    def test_rows_cover_grid_and_fcfs_cross_check(self, tmp_path):
        config = {
            "gen": GEN,
            "seeds": {"base": 0, "count": 3},
            "schedulers": ["fcfs", "stf"],
        }
        rows = run_benchmark(config, tmp_path / "rep", workers=1)
        assert len(rows) == 2
        report = (tmp_path / "rep" / "report.csv").read_text()
        assert report.count("\n") == 3  # header + 2 rows
        assert (tmp_path / "rep" / "timings.csv").exists()
        svg = (tmp_path / "rep" / "slowdown.svg").read_text()
        assert "<desc>" in svg and "fcfs" in svg

        # the report's FCFS mean equals direct per-instance averaging
        vals = []
        for k in range(3):
            s = generate_scenario(gen_config_from_obj(GEN), k)
            dag, _ = schedule_online_heuristic(SchedulingContext(s), TaskRule.FCFS, None, 10)
            if len(dag.rows):
                vals.append(average_slowdown(dag))
        fcfs_row = next(r for r in rows if r.scheduler == "fcfs")
        assert fcfs_row.mean_avg_slowdown == pytest.approx(float(np.mean(vals)))

    def test_drops_of_cells_that_scheduled_nothing_are_counted(self, tmp_path):
        # no target ever reaches airmass 1, so every task is dropped and no
        # cell has an average slowdown
        gen = {"horizon_steps": 60, "arrival_prob": 0.25}
        config = {"gen": gen, "constraints": {"max_airmass": 1.0}, "seeds": {"count": 2}, "schedulers": ["fcfs"]}
        (row,) = run_benchmark(config, tmp_path, workers=1)
        tasks = sum(len(generate_scenario(gen_config_from_obj(gen), k).tasks) for k in range(2))
        assert (row.instances, row.drop_count) == (0, tasks) and tasks > 0
        assert (tmp_path / "report.csv").read_text().splitlines()[1] == f"default,fcfs,0,nan,{tasks},0"

    def test_byte_identical_reruns(self, tmp_path):
        config = {
            "gen": GEN,
            "seeds": {"base": 3, "count": 2},
            "schedulers": ["stf", "rip"],
            "variants": {"cadence": {}, "mixed": {"mode_exposure_count_frac": 0.5}},
        }
        run_benchmark(config, tmp_path / "a", workers=1)
        run_benchmark(config, tmp_path / "b", workers=1)
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "slowdown.svg").read_bytes() == (
            tmp_path / "b" / "slowdown.svg"
        ).read_bytes()

    def test_worker_pool_writes_the_report_of_one_worker(self, tmp_path):
        # the oracle refuses instances of more than 6 tasks, so some cells fail
        config = {
            "gen": GEN,
            "seeds": {"base": 3, "count": 2},
            "schedulers": ["stf", "oracle"],
            "variants": {"cadence": {}, "mixed": {"mode_exposure_count_frac": 0.5}},
        }
        logs = {1: [], 2: []}
        for workers in (1, 2):
            run_benchmark(config, tmp_path / str(workers), workers=workers, log=logs[workers].append)
        assert any("oracle" in line and "failed" in line for line in logs[1])
        assert logs[1] == logs[2]
        assert (tmp_path / "1" / "report.csv").read_bytes() == (tmp_path / "2" / "report.csv").read_bytes()

    def test_names_with_csv_and_xml_specials_parse_back(self, tmp_path):
        # a comma used to add a field to the row, and "<" or "&" made the
        # SVG not well-formed
        names = ["a,b", 'x<y&z "q"']
        config = {"gen": GEN, "seeds": {"count": 1}, "schedulers": ["fcfs"],
                  "variants": {n: {} for n in names}}
        run_benchmark(config, tmp_path, workers=1)
        for name, width in (("report.csv", 6), ("timings.csv", 3)):
            with open(tmp_path / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert [len(r) for r in rows] == [width] * 3
            assert [r[:2] for r in rows[1:]] == [[n, "fcfs"] for n in names]
        svg = minidom.parse(str(tmp_path / "slowdown.svg"))
        table = [r for r in csv.reader(io.StringIO(svg.getElementsByTagName("desc")[0].firstChild.data)) if r]
        assert [r[:2] for r in table] == [["variant", "scheduler"]] + [[n, "fcfs"] for n in names]
        texts = {t.firstChild.data for t in svg.getElementsByTagName("text")}
        assert set(names) <= texts

    def test_constraints_fields_checked(self, tmp_path):
        assert _constraints_from_obj(None) == VisibilityConstraints()
        assert _constraints_from_obj({"max_airmass": 2.0}) == VisibilityConstraints(max_airmass=2.0)
        # a misspelt field used to run silently at the default airmass
        config = {"gen": GEN, "seeds": {"count": 1}, "constraints": {"max_airmas": 2.0}}
        with pytest.raises(ValueError, match="max_airmas"):
            run_benchmark(config, tmp_path / "rep", workers=1)
        for bad in ("2.0", None, True, [2.0], float("nan")):
            with pytest.raises(ValueError, match="min_altitude_deg"):
                _constraints_from_obj({"min_altitude_deg": bad})
        # a NaN airmass limit used to leave no step observable
        with pytest.raises(ValueError, match="^constraints.max_airmass: must be "):
            _constraints_from_obj({"max_airmass": float("nan")})
        assert _constraints_from_obj({"max_airmass": float("inf")}).max_airmass == float("inf")

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"schedulerz": ["edd"]}, "schedulerz"),
            ({"seed": {"base": 7, "count": 1}}, "seed"),
            ({"seeds": {"base": 7, "cout": 1}}, "cout"),
            ({"seeds": 7}, "seeds"),
        ],
    )
    def test_unknown_bench_fields_named(self, tmp_path, config, field):
        # each of these used to run the default schedulers and seeds
        with pytest.raises(ValueError, match=field):
            run_benchmark({"gen": GEN, **config}, tmp_path / "rep", workers=1)
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"seeds": {"count": 2.9}}, "seeds.count"),  # used to run 2 instances
            ({"seeds": {"count": True}}, "seeds.count"),
            ({"seeds": {"count": 0}}, "seeds.count"),
            ({"seeds": {"base": "1"}}, "seeds.base"),
            ({"seeds": {"base": False}}, "seeds.base"),
            ({"queue_cap": "10"}, "queue_cap"),  # used to be taken as 10
            ({"queue_cap": 0}, "queue_cap"),
            ({"schedulers": "fcfs"}, "schedulers"),  # used to run f, c, f, s
            ({"schedulers": ["fcfs", "fifo"]}, "schedulers"),
            ({"schedulers": ["stf:best"]}, "schedulers"),
            ({"schedulers": [3]}, "schedulers"),
            ({"variants": ["a"]}, "variants"),
            ({"variants": {"a": 1}}, "variants"),
            ({"variants": {"a": {"horizon_step": 30}}}, "horizon_step"),
            ({"replan_steps": 0}, "replan_steps"),
            ({"replan_steps": 2.5}, "replan_steps"),
            ({"checkpoint": 3}, "checkpoint"),
            # each of these used to fail in every cell, or not at all
            ({"gen": {**GEN, "step_minutes": 0}}, "step_minutes"),
            ({"variants": {"a": {"num_sites": 0}}}, "num_sites"),
            ({"variants": {"a": {"arrival_mode": "dynamic", "dynamic_max_prob": 5.0}}}, "dynamic_max_prob"),
            # used to run every cell, then write an SVG no XML parser reads
            ({"variants": {"a\x01b": {}}}, "variants"),
        ],
    )
    def test_bad_bench_values_named_before_work(self, tmp_path, config, field):
        with pytest.raises(ValueError, match=field):
            run_benchmark({"gen": GEN, **config}, tmp_path / "rep", workers=1)
        assert not (tmp_path / "rep").exists()

    def test_scheduler_listed_twice_rejected_before_work(self, tmp_path):
        # used to run each of fcfs's cells twice and write two identical rows
        config = {"gen": GEN, "seeds": {"count": 2}, "schedulers": ["fcfs", "stf", "fcfs"]}
        with pytest.raises(ScenarioError, match=r"^schedulers\[2\]: 'fcfs' listed twice$"):
            run_benchmark(config, tmp_path / "rep", workers=1)
        assert not (tmp_path / "rep").exists()

    def test_learned_scheduler_without_checkpoint_rejected_before_work(self, tmp_path):
        # used to run every cell, log "2 failed instances", write
        # "default,roars,0,nan,0,0" and exit 0
        config = {"gen": GEN, "seeds": {"count": 2}, "schedulers": ["fcfs", "roars"]}
        with pytest.raises(ScenarioError, match=r"^checkpoint: scheduler 'roars' needs one$"):
            run_benchmark(config, tmp_path / "rep", workers=1)
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("content", [None, b'{"version": 99}\n'], ids=["missing", "bad-header"])
    def test_unreadable_checkpoint_named_with_its_path_before_work(self, tmp_path, content):
        path = tmp_path / "m.ckpt"
        if content is not None:
            path.write_bytes(content)
        config = {"gen": GEN, "seeds": {"count": 2}, "schedulers": ["roars-refine"], "checkpoint": str(path)}
        with pytest.raises(ScenarioError, match=f"^checkpoint: .*{path.name}"):
            run_benchmark(config, tmp_path / "rep", workers=1)
        assert not (tmp_path / "rep").exists()

    def test_checkpoint_of_other_dimensions_rejected_before_work(self, tmp_path):
        from obsched.policy import save_checkpoint

        path = tmp_path / "m.ckpt"
        save_checkpoint(PolicyNet(PolicyConfig(hidden=4, n_filters=3, n_sites=1)), path)
        config = {"gen": GEN, "seeds": {"count": 1}, "schedulers": ["roars"], "checkpoint": str(path),
                  "variants": {"one": {}, "five": {"num_sites": 5}}}
        with pytest.raises(ScenarioError, match=r"^checkpoint: .* 1-site, 3-filter net, but variant 'five' has 5 sites"):
            run_benchmark(config, tmp_path / "rep", workers=1)
        assert not (tmp_path / "rep").exists()
        del config["variants"]["five"]
        (row,) = run_benchmark(config, tmp_path / "rep", workers=1)
        assert row.instances == 1

    def test_exposure_beyond_the_checkpoints_e_max_rejected_before_work(self, tmp_path):
        # every cell of such a variant used to fail inside the run, each
        # recorded as failed, instead of the run refusing to start
        from obsched.policy import save_checkpoint

        path = tmp_path / "m.ckpt"
        save_checkpoint(PolicyNet(PolicyConfig(hidden=4, n_filters=3, n_sites=1, e_max=12)), path)
        config = {"gen": GEN, "seeds": {"count": 1}, "schedulers": ["fcfs", "roars"], "checkpoint": str(path),
                  "variants": {"short": {"exposure_long_frac": 0.0}, "long": {}}}
        with pytest.raises(ScenarioError, match=r"^variant 'long': exposure_long_range: can draw an exposure of 20, above the policy's e_max 12$"):
            run_benchmark(config, tmp_path / "rep", workers=1)
        assert not (tmp_path / "rep").exists()
        del config["variants"]["long"]
        rows = run_benchmark(config, tmp_path / "rep", workers=1)
        assert [row.instances for row in rows] == [1, 1]

    def test_min_altitude_below_airmass_domain_rejected(self):
        # -6.07995 deg is the lowest cutoff accepted (the Kasten-Young pole);
        # airmass itself is taken at max(alt, 0)
        with pytest.raises(ValueError, match="min_altitude_deg"):
            _constraints_from_obj({"min_altitude_deg": -10})
        with pytest.raises(ValueError, match="min_altitude_deg"):
            VisibilityConstraints(min_altitude_deg=float("nan"))

    @pytest.mark.parametrize("value", ["abc", "-2", "1.5", ""])
    def test_bad_thread_count_named(self, tmp_path, monkeypatch, value):
        # "abc" used to fail as "invalid literal for int() with base 10"
        monkeypatch.setenv("ROARS_THREADS", value)
        with pytest.raises(ValueError, match="^ROARS_THREADS: must be a non-negative integer"):
            run_benchmark({"gen": GEN, "seeds": {"count": 1}}, tmp_path / "rep")
        assert not (tmp_path / "rep").exists()

    def test_thread_count_read_from_environment(self, monkeypatch):
        from obsched.policy import default_workers

        monkeypatch.setenv("ROARS_THREADS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("ROARS_THREADS", "0")
        assert default_workers() == (os.cpu_count() or 1)
        monkeypatch.delenv("ROARS_THREADS")
        assert default_workers() == (os.cpu_count() or 1)

    def test_partial_failures_recorded(self, tmp_path):
        config = {
            "gen": GEN,
            "seeds": {"base": 0, "count": 2},
            "schedulers": ["oracle"],  # instances exceed the oracle's size cap
        }
        rows = run_benchmark(config, tmp_path / "rep", workers=1)
        assert rows[0].instances == 0  # all failed, run completed anyway


class TestGenConfigFromObj:
    def test_lists_become_tuples(self):
        cfg = gen_config_from_obj({"priority_range": [2, 4], "arrival_prob": 0, "num_sites": 2})
        assert cfg.priority_range == (2, 4) and cfg.arrival_prob == 0 and cfg.num_sites == 2

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"horizon_steps": "30"}, "horizon_steps"),
            ({"horizon_steps": 30.5}, "horizon_steps"),
            ({"num_sites": True}, "num_sites"),
            ({"arrival_prob": "0.1"}, "arrival_prob"),
            ({"visible_fields_only": 1}, "visible_fields_only"),
            ({"epoch_utc": 0}, "epoch_utc"),
            ({"priority_range": [1, 2, 3]}, "priority_range"),
            ({"priority_range": [1.5, 3]}, "priority_range"),
            ({"priority_range": "1-3"}, "priority_range"),
            ({"cadence_gap_range": [5, None]}, "cadence_gap_range"),
            ({"resource_band_probs": [0.1, "0.2", 0.3]}, "resource_band_probs"),
            ({"min_field_dec": float("nan")}, "min_field_dec"),  # used to fail inside numpy
            ({"epoch_utc": "noon"}, "epoch_utc"),  # used to pass until generation
            ({"resource_mix": "lots"}, "resource_mix"),  # used to pass until generation
            ([["a", 1]], "config: must be an object"),  # used to be read as {"a": 1}
            ({"num_sites": 0}, "num_sites"),  # used to generate a 0-site scenario with tasks
            ({"num_fields": 0}, "num_fields"),  # used to fail inside numpy
            ({"num_filters": 0}, "num_filters"),
            ({"step_minutes": 0}, "step_minutes"),
            ({"horizon_steps": -1}, "horizon_steps"),
            ({"dynamic_max_prob": 5.0}, "dynamic_max_prob"),  # used to draw from U[0, 5]
            ({"dynamic_max_prob": -0.1}, "dynamic_max_prob"),
        ],
    )
    def test_wrong_types_named(self, obj, field):
        with pytest.raises(ValueError, match=field):
            gen_config_from_obj(obj)

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="horizon_step"):
            gen_config_from_obj({"horizon_step": 30})


class TestMain:
    def test_generate_and_determinism(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(GEN))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--config", str(cfg), "--out", str(out1), "--seed", "7"]) == 0
        assert main(["generate", "--config", str(cfg), "--out", str(out2), "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_subcommand(self, tmp_path, capsys):
        sc = tmp_path / "s.json"
        save_scenario(generate_scenario(gen_config_from_obj(GEN), 5), sc)
        dump = tmp_path / "dump.jsonl"
        assert main(["simulate", "--scenario", str(sc), "--scheduler", "stf", "--out", str(dump)]) == 0
        lines = [json.loads(l) for l in dump.read_text().splitlines()]
        assert lines and set(lines[0]) == {"task_id", "site", "start", "slowdown"}
        assert "avg_slowdown" in capsys.readouterr().out

    def test_train_subcommand_smoke(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(GEN))
        ckpt = tmp_path / "m.ckpt"
        curve = tmp_path / "curve.csv"
        rc = main(
            [
                "train",
                "--scenario-config", str(cfg),
                "--out", str(ckpt),
                "--curve", str(curve),
                "--steps", "2",
                "--batch", "2",
                "--episode-len", "4",
                "--hidden", "8",
                "--val-every", "1",
                "--workers", "1",
                "--seed", "3",
            ]
        )
        assert rc == 0
        from obsched.policy import load_checkpoint

        net, _ = load_checkpoint(ckpt)
        assert net.config.hidden == 8
        header = curve.read_text().splitlines()[0]
        assert header == "step,train_loss,L_w,L_u,val_slowdown"

    def test_bench_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"gen": GEN, "seeds": {"count": 2}, "schedulers": ["fcfs"]}))
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "rep"), "--workers", "1"])
        assert rc == 0
        assert (tmp_path / "rep" / "report.csv").exists()

    def test_inspect_scenario(self, tmp_path, capsys):
        sc = tmp_path / "s.json"
        save_scenario(generate_scenario(gen_config_from_obj(GEN), 1), sc)
        assert main(["inspect", "--scenario", str(sc)]) == 0
        out = capsys.readouterr().out
        assert "targets" in out and "site 0" in out

    @pytest.mark.parametrize(
        "gen, seed, want",
        [
            (
                GEN, 1,
                "scenario: 12 targets, 16 tasks, seed 1\n"
                "grid: 60 x 1 min from 2025-06-21T04:00:00+00:00\n"
                "  site 0 cerro-pachon-cl: lat -30.24 lon -70.74 priority 0.512 visible-fraction 1.00\n",
            ),
            (
                {"horizon_steps": 240, "num_sites": 5}, 0,
                "scenario: 20 targets, 123 tasks, seed 0\n"
                "grid: 240 x 1 min from 2025-06-21T04:00:00+00:00\n"
                "  site 0 cerro-pachon-cl: lat -30.24 lon -70.74 priority 0.637 visible-fraction 0.97\n"
                "  site 1 la-palma-es: lat +28.76 lon -17.89 priority 0.270 visible-fraction 0.28\n"
                "  site 2 sutherland-za: lat -32.38 lon +20.81 priority 0.041 visible-fraction 0.11\n"
                "  site 3 gingin-au: lat -31.36 lon +115.71 priority 0.017 visible-fraction 0.00\n"
                "  site 4 lenghu-cn: lat +38.61 lon +93.90 priority 0.813 visible-fraction 0.00\n",
            ),
            (
                {"horizon_steps": 1440, "num_sites": 5}, 2,
                "scenario: 175 targets, 1260 tasks, seed 2\n"
                "grid: 1440 x 1 min from 2025-06-21T04:00:00+00:00\n"
                "  site 0 cerro-pachon-cl: lat -30.24 lon -70.74 priority 0.262 visible-fraction 0.16\n"
                "  site 1 la-palma-es: lat +28.76 lon -17.89 priority 0.298 visible-fraction 0.17\n"
                "  site 2 sutherland-za: lat -32.38 lon +20.81 priority 0.814 visible-fraction 0.16\n"
                "  site 3 gingin-au: lat -31.36 lon +115.71 priority 0.092 visible-fraction 0.16\n"
                "  site 4 lenghu-cn: lat +38.61 lon +93.90 priority 0.600 visible-fraction 0.14\n",
            ),
            (
                None, 0,
                "scenario: 0 targets, 0 tasks, seed 0\n"
                "grid: 60 x 1 min from 2025-06-21T00:00:00+00:00\n"
                "  site 0 s0: lat +0.00 lon +0.00 priority 1.000 visible-fraction 0.00\n"
                "  site 1 s1: lat +0.00 lon +0.50 priority 0.900 visible-fraction 0.00\n",
            ),
        ],
        ids=["60x1", "240x5", "1440x5", "no-targets"],
    )
    def test_inspect_output_is_pinned(self, tmp_path, capsys, gen, seed, want):
        sc = tmp_path / "s.json"
        s = toy_scenario([], n_sites=2) if gen is None else generate_scenario(gen_config_from_obj(gen), seed)
        save_scenario(s, sc)
        assert main(["inspect", "--scenario", str(sc)]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "header",
        [b'{"version": 99}\n', b"\xff\xfe\n"],
        ids=["version", "not-utf8"],
    )
    def test_inspect_checks_checkpoint_header(self, tmp_path, capsys, header):
        # inspect used to print any JSON header and exit 0
        path = tmp_path / "m.ckpt"
        path.write_bytes(header)
        assert main(["inspect", "--checkpoint", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: bad checkpoint header: ")

    @pytest.mark.parametrize(
        "command, config, extra, message",
        [
            # used to fail on item assignment to an int
            ("bench", {"seeds": 7}, ["--seed", "3"], "seeds: must be an object"),
            # used to report "unknown bench-config fields: [1]"
            ("bench", [1], ["--seed", "3"], "bench config: must be an object"),
            ("generate", [["a", 1]], [], "config: must be an object"),
            # used to train and write a checkpoint that cannot be loaded
            (
                "train", GEN,
                ["--hidden", "0", "--steps", "1", "--batch", "1", "--episode-len", "2",
                 "--val-every", "1", "--workers", "1"],
                "hidden: must be an integer >= 1",
            ),
            # used to run an optimizer step, then fail on "integer modulo by zero"
            (
                "train", GEN,
                ["--val-every", "0", "--steps", "1", "--batch", "1", "--episode-len", "2",
                 "--workers", "1"],
                "val_every: must be an integer >= 1",
            ),
            # used to fail as "expected non-negative integer", naming no field
            ("generate", GEN, ["--seed", "-1"], "error: seed: must be an integer >= 0, got -1"),
            (
                "train", GEN,
                ["--seed", "-1", "--steps", "1", "--batch", "1", "--episode-len", "2",
                 "--val-every", "1", "--workers", "1"],
                "error: seed: must be an integer >= 0, got -1",
            ),
            # used to be accepted silently
            (
                "simulate", json.loads(scenario_to_json(toy_scenario([(0, 5, U)]))),
                ["--scheduler", "stf", "--seed", "-2"],
                "error: seed: must be an integer >= 0, got -2",
            ),
            # used to run one worker, or serially, without a word
            (
                "train", GEN,
                ["--workers", "-3", "--steps", "1", "--batch", "1", "--episode-len", "2",
                 "--val-every", "1"],
                "error: workers: must be an integer >= 1, got -3",
            ),
            (
                "bench", {"gen": GEN, "seeds": {"count": 1}}, ["--workers", "0"],
                "error: workers: must be an integer >= 1, got 0",
            ),
        ],
        ids=["bench-seeds", "bench-list", "generate-list", "train-hidden", "train-val-every",
             "generate-seed", "train-seed", "simulate-seed", "train-workers", "bench-workers"],
    )
    def test_bad_input_exits_1_before_writing(self, tmp_path, capsys, command, config, extra, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        flag = {"train": "--scenario-config", "simulate": "--scenario"}.get(command, "--config")
        assert main([command, flag, str(cfg), "--out", str(out), *extra]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bogus"])
        assert exc.value.code == 2

    def test_generate_rejects_an_empty_site_list(self, tmp_path, capsys):
        # used to write a scenario whose every task is dropped
        sites, out = tmp_path / "sites.json", tmp_path / "s.json"
        sites.write_text("[]")
        assert main(["generate", "--sites", str(sites), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sites: must hold at least one site\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("generate", "--sites"), ("generate", "--config"), ("train", "--scenario-config"),
         ("bench", "--config")],
    )
    def test_truncated_json_file_is_named(self, tmp_path, capsys, command, flag):
        # used to print only the decoder's "Expecting ... (char 15)"
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        bad.write_text('[{"name": "x", ')
        assert main([command, flag, str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON: ") and err.count("\n") == 1
        assert not out.exists()

    def test_simulate_rejects_empty_queue(self, tmp_path, capsys):
        sc = tmp_path / "s.json"
        save_scenario(generate_scenario(gen_config_from_obj(GEN), 1), sc)
        rc = main(["simulate", "--scenario", str(sc), "--scheduler", "fcfs", "--queue-cap", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: queue_cap: must be an integer >= 1, got 0\n"

    def test_failure_is_one_line_nonzero(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "missing.json"), "--scheduler", "stf"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_grouped_bar_svg_embeds_data():
    svg = grouped_bar_svg(["a"], ["x", "y"], {("a", "x"): 1.5, ("a", "y"): float("nan")})
    assert svg.startswith("<svg")
    assert "a,x,1.500000" in svg
