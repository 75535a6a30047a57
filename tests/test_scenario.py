"""Target generation distributions, task splitting, and serialization."""
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from obsched.ephemeris import SkyCoord
from obsched.scenario import (
    CADENCE,
    EXPOSURE_COUNT,
    GenConfig,
    ObsMode,
    ScenarioError,
    Target,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    target_to_tasks,
)

FAST = dict(visible_fields_only=False, num_fields=10)


def _target(start=0, fade=60, exposure=10, mode=ObsMode(EXPOSURE_COUNT), tid=0):
    return Target(
        id=tid,
        coord=SkyCoord(10.0, 5.0),
        filters_required=(True, False, True),
        start_time=start,
        fade_time=fade,
        exposure_minutes=exposure,
        mode=mode,
        priority=2,
        arrival_step=start,
    )


class TestTargetToTasks:
    def test_exact_division_back_to_back(self):
        tasks = target_to_tasks(_target(start=100, fade=160, exposure=10))
        assert [t.arrival for t in tasks] == [100, 110, 120, 130, 140, 150]
        assert all(t.exposure == 10 for t in tasks)
        assert all(t.deadline == 160 for t in tasks)
        assert all(t.rho == (True, False, True) for t in tasks)
        assert [t.seq_index for t in tasks] == list(range(6))

    def test_cadence_truncation(self):
        # duration 60, exposure 10, gap 20: starts at +0 and +30; a third
        # exposure would end at +70 > fade and is cut
        tasks = target_to_tasks(_target(start=0, fade=60, exposure=10, mode=ObsMode(CADENCE, 20)))
        assert [t.arrival for t in tasks] == [0, 30]

    def test_exposure_exceeding_window_yields_empty(self):
        assert target_to_tasks(_target(start=0, fade=60, exposure=100)) == []

    def test_floor_division(self):
        tasks = target_to_tasks(_target(start=0, fade=65, exposure=10))
        assert len(tasks) == 6  # floor(65/10)

    def test_all_tasks_fit_their_deadline(self):
        for gap in (1, 7, 30):
            t = _target(start=3, fade=97, exposure=9, mode=ObsMode(CADENCE, gap))
            for task in target_to_tasks(t):
                assert task.arrival + task.exposure <= task.deadline

    def test_sibling_spacing(self):
        t = _target(start=0, fade=120, exposure=10, mode=ObsMode(CADENCE, 15))
        tasks = target_to_tasks(t)
        gaps = [b.arrival - a.arrival for a, b in zip(tasks, tasks[1:])]
        assert all(g == 25 for g in gaps)
        t2 = _target(start=0, fade=120, exposure=10)
        gaps2 = [
            b.arrival - a.arrival
            for a, b in zip(target_to_tasks(t2), target_to_tasks(t2)[1:])
        ]
        assert all(g == 10 for g in gaps2)


class TestGeneration:
    def test_steady_arrival_count_is_binomial(self):
        # mean 24, sd 4.65 per seed; the mean over 1000 seeds must sit
        # within 3 standard errors
        cfg = GenConfig(horizon_steps=240, **FAST)
        counts = [len(generate_scenario(cfg, seed).targets) for seed in range(1000)]
        mean, sd = 240 * 0.10, np.sqrt(240 * 0.10 * 0.90)
        assert abs(np.mean(counts) - mean) < 3 * sd / np.sqrt(len(counts))

    def test_zero_arrival_probability(self):
        cfg = GenConfig(arrival_prob=0.0, **FAST)
        s = generate_scenario(cfg, 3)
        assert s.targets == () and s.tasks == ()

    def test_determinism_byte_identical(self):
        cfg = GenConfig(horizon_steps=120)
        a = scenario_to_json(generate_scenario(cfg, 42))
        b = scenario_to_json(generate_scenario(cfg, 42))
        assert a == b

    def test_nonuniform_resource_mix_renormalized(self):
        # band-count frequencies over 10^4 targets within +-2% of (1/6, 2/6, 3/6)
        cfg = GenConfig(horizon_steps=120, arrival_prob=0.5, resource_mix="nonuniform", **FAST)
        counts = np.zeros(4)
        total = 0
        seed = 0
        while total < 10_000:
            s = generate_scenario(cfg, 10_000 + seed)
            for t in s.targets:
                counts[sum(t.filters_required)] += 1
                total += 1
            seed += 1
        frac = counts[1:] / total
        for got, want in zip(frac, (1 / 6, 2 / 6, 3 / 6)):
            assert abs(got - want) < 0.02

    def test_uniform_resource_mix_is_pairs(self):
        cfg = GenConfig(horizon_steps=120, arrival_prob=0.5, resource_mix="uniform", **FAST)
        s = generate_scenario(cfg, 5)
        assert all(sum(t.filters_required) == 2 for t in s.targets)

    def test_task_invariants_hold(self):
        cfg = GenConfig(horizon_steps=120, arrival_prob=0.3)
        for seed in range(5):
            s = generate_scenario(cfg, seed)
            by_target = {}
            for task in s.tasks:
                assert task.arrival + task.exposure <= task.deadline
                by_target.setdefault(task.target_id, []).append(task)
            for tid, tasks in by_target.items():
                target = s.target_by_id(tid)
                stride = target.exposure_minutes + target.mode.sibling_gap
                for a, b in zip(tasks, tasks[1:]):
                    assert b.arrival - a.arrival == stride

    def test_dynamic_mode_differs_from_steady(self):
        steady = generate_scenario(GenConfig(arrival_mode="steady", **FAST), 1)
        dynamic = generate_scenario(GenConfig(arrival_mode="dynamic", **FAST), 1)
        assert [t.arrival_step for t in steady.targets] != [
            t.arrival_step for t in dynamic.targets
        ]

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ScenarioError):
            GenConfig(exposure_long_range=(20, 10))

    @pytest.mark.parametrize(
        "cfg, seed, digest",
        [
            # a full night on the five-site array (the night-plan benchmark)
            (
                GenConfig(horizon_steps=1440, num_sites=5, arrival_prob=0.10),
                3,
                "bd5f138fea65f137e8727155f0af71b729fddbc789ecf583fe4cdc9f5bc1f738",
            ),
            # four hours on the five-site array
            (
                GenConfig(horizon_steps=240, num_sites=5, arrival_prob=0.10,
                          mode_exposure_count_frac=0.0),
                11,
                "52078b1e7f2fde07a4c012d6b801ed45e53690543e0053aee876ba94cff82460",
            ),
            # the single-site intra recipe
            (
                GenConfig(horizon_steps=240, num_sites=1, arrival_prob=0.10,
                          mode_exposure_count_frac=0.0),
                7,
                "080a1116db04c7c0924d41ea6aa016b512844508bf8c078f3353cfb02df6f847",
            ),
        ],
        ids=["1440x5", "240x5", "240x1"],
    )
    def test_visible_field_scenarios_are_pinned(self, cfg, seed, digest):
        # field sampling draws from the RNG and filters by visibility; any
        # change to either moves these bytes
        text = scenario_to_json(generate_scenario(cfg, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSerialization:
    def test_round_trip_identity(self):
        s = generate_scenario(GenConfig(horizon_steps=120), 9)
        assert scenario_from_json(scenario_to_json(s)) == s

    def test_file_round_trip(self, tmp_path):
        s = generate_scenario(GenConfig(horizon_steps=90), 11)
        path = tmp_path / "s.json"
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_empty_scenario_round_trips(self):
        s = generate_scenario(GenConfig(arrival_prob=0.0, **FAST), 0)
        assert scenario_from_json(scenario_to_json(s)) == s

    def test_dec_out_of_range_is_named(self):
        s = generate_scenario(GenConfig(horizon_steps=60, arrival_prob=0.3), 1)
        obj = json.loads(scenario_to_json(s))
        obj["targets"][0]["coord"]["dec"] = 123
        with pytest.raises(ScenarioError, match="dec out of range"):
            scenario_from_json(json.dumps(obj))

    def test_version_mismatch(self):
        s = generate_scenario(GenConfig(arrival_prob=0.0, **FAST), 0)
        obj = json.loads(scenario_to_json(s))
        obj["version"] = 999
        with pytest.raises(ScenarioError, match="version"):
            scenario_from_json(json.dumps(obj))

    def test_missing_field_is_named(self):
        s = generate_scenario(GenConfig(horizon_steps=60, arrival_prob=0.3), 1)
        obj = json.loads(scenario_to_json(s))
        del obj["tasks"][0]["deadline"]
        with pytest.raises(ScenarioError, match="deadline"):
            scenario_from_json(json.dumps(obj))


class TestSiblingOrder:
    """Every scenario carries its siblings in sequence: seq_index 0..k-1,
    strictly increasing arrivals, one exposure per target."""

    @staticmethod
    def _obj_and_pair():
        s = generate_scenario(GenConfig(horizon_steps=120, arrival_prob=0.3), 4)
        obj = json.loads(scenario_to_json(s))
        for i, (a, b) in enumerate(zip(obj["tasks"], obj["tasks"][1:])):
            if a["target_id"] == b["target_id"] and a["exposure"] > 1:
                return obj, i, i + 1
        raise AssertionError("fixture scenario has no sibling pair")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("seq_index", 2, "seq_index 2 breaks"),
            ("seq_index", 0, "seq_index 0 breaks"),
            ("arrival", None, "arrival must exceed"),
            ("exposure", None, "exposure differs"),
        ],
    )
    def test_broken_sequence_is_named(self, field, value, match):
        obj, first, second = self._obj_and_pair()
        task = obj["tasks"][second]
        if field == "arrival":
            value = obj["tasks"][first]["arrival"]
        elif field == "exposure":
            value = task["exposure"] - 1
        task[field] = value
        with pytest.raises(ScenarioError, match=f"task {task['id']}: {match}"):
            scenario_from_json(json.dumps(obj))

    def test_generated_siblings_are_in_sequence(self):
        s = generate_scenario(GenConfig(horizon_steps=240, arrival_prob=0.3), 2)
        by_target = {}
        for t in s.tasks:
            by_target.setdefault(t.target_id, []).append(t)
        assert any(len(seq) > 1 for seq in by_target.values())
        for seq in by_target.values():
            assert [t.seq_index for t in seq] == list(range(len(seq)))
            assert all(a.arrival < b.arrival for a, b in zip(seq, seq[1:]))
            assert len({t.exposure for t in seq}) == 1
