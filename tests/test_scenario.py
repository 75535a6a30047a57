"""Target generation distributions, task splitting, and serialization."""
import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from obsched import scenario as sc
from obsched.ephemeris import COVERAGE_MAX_FIELDS, GeoCoord, SkyCoord, site_skies, sky_coverage
from obsched.scenario import (
    CADENCE,
    EXPOSURE_COUNT,
    GenConfig,
    ObsMode,
    Scenario,
    ScenarioError,
    Site,
    Target,
    default_sites,
    generate_scenario,
    load_scenario,
    load_sites,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    target_to_tasks,
)
from obsched.scenario import _sample_filters, _uniform_fields

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

    def test_exposure_count_matches_the_starts_that_fit(self):
        for kind, gap in ((EXPOSURE_COUNT, 0), (CADENCE, 1), (CADENCE, 7)):
            for e in (1, 3, 10):
                for d in range(1, 40):
                    t = _target(start=5, fade=5 + d, exposure=e, mode=ObsMode(kind, gap))
                    fits = [m for m in range(d + 1) if m * (e + gap) + e <= d]
                    assert t.n_exposures == len(fits) == len(target_to_tasks(t)), (kind, gap, e, d)

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

    def test_band_count_is_the_draw_choice_makes(self):
        # the band count takes from the stream exactly what
        # ``rng.choice(3, p=...)`` takes, so scenarios keep their bytes
        for probs in [(0.10, 0.20, 0.30), (0.0, 0.0, 5.0), (0.7, 0.1, 0.2)]:
            cfg = GenConfig(resource_band_probs=probs, num_filters=5)
            p = np.asarray(probs, dtype=float)
            p = p / p.sum()
            for seed in range(50):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(10):
                    count = 1 + int(a.choice(3, p=p))
                    want = set(a.choice(5, size=count, replace=False).tolist())
                    assert _sample_filters(b, cfg) == tuple(i in want for i in range(5))
                assert a.random() == b.random()

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
            targets = {t.id: t for t in s.targets}
            for tid, tasks in by_target.items():
                target = targets[tid]
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
        "kw, field",
        [
            (dict(resource_band_probs=(0.0, 0.0, 0.0)), "resource_band_probs"),
            (dict(resource_band_probs=(-0.1, 0.2, 0.3)), "resource_band_probs"),
            (dict(resource_band_probs=(float("inf"), 0.2, 0.3)), "resource_band_probs"),
            (dict(num_filters=1, resource_mix="uniform"), "num_filters"),
            (dict(min_field_dec=float("inf")), "min_field_dec"),
            (dict(min_field_dec=-float("inf")), "min_field_dec"),
            (dict(min_field_dec=-100.0), "min_field_dec"),
        ],
        ids=["zero-sum-bands", "negative-band", "inf-band", "uniform-one-filter",
             "inf-dec", "minus-inf-dec", "dec-below-pole"],
    )
    def test_unusable_config_is_named(self, kw, field):
        """Each of these used to load and then fail inside numpy's sampler
        with a message that did not name the field."""
        with pytest.raises(ScenarioError, match=f"^{field} must be"):
            GenConfig(**kw)

    def test_edge_configs_still_generate(self):
        for kw in (dict(resource_band_probs=(0.0, 0.0, 1.0)), dict(num_filters=2, resource_mix="uniform"),
                   dict(min_field_dec=-90.0), dict(min_field_dec=90.0)):
            generate_scenario(GenConfig(horizon_steps=30, arrival_prob=0.3, **kw, **FAST), 0)

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


INTRA = GenConfig(horizon_steps=240, num_sites=1, arrival_prob=0.10, mode_exposure_count_frac=0.0)


@pytest.mark.parametrize(
    "cfg, count, digest",
    [
        (INTRA, 120, "aac49962f36af5515f3f7489af8592b936132d2ac33a3604be6135b30dd2bf58"),
        # 20 hours: dusk and dawn inside the horizon, so only partial fields
        (replace(INTRA, step_minutes=5), 60, "ea13bcdaeb7a8a85e675d7b44ae4327dfe4421814b93a9245c44532fa247a58a"),
        (replace(INTRA, horizon_steps=1440), 30, "14dd63ef7f55a2ba0544dad8e8ecc63f984196ce1506013574dc00d4b5f09c56"),
    ],
    ids=["intra", "step5", "1440"],
)
def test_one_site_scenario_sweep_is_pinned(cfg, count, digest):
    # one-site coverage is decided from a few steps per dark run; these
    # digests were taken from the walk over every dark step, so a field
    # flag that differs from it moves them
    h = hashlib.sha256()
    for seed in range(count):
        h.update(scenario_to_json(generate_scenario(cfg, seed)).encode())
    assert h.hexdigest() == digest


FIVE = replace(INTRA, num_sites=5)


@pytest.mark.parametrize(
    "cfg, count, digest",
    [
        (FIVE, 60, "cd1368edac8202f940fcedd7b76c4c7df7af276351ddf961b3f9863300ee7ae9"),
        # 20 hours: dusk and dawn inside the horizon, so partial fields
        (replace(FIVE, step_minutes=5), 30, "ddd9585844e76efd7b5c3be00a40ed751fc58f97d1b13daddcaa9d5aae9bc868"),
        (replace(FIVE, horizon_steps=1440), 6, "ca89fb167f2782b8f98214f5ba103d8c29c6b3a7ab15e0e8472368b545876b7c"),
    ],
    ids=["240x5", "step5", "1440x5"],
)
def test_five_site_scenario_sweep_is_pinned(cfg, count, digest):
    # several-site coverage samples the horizon first and then finishes
    # only the undecided fields; these digests were taken from a walk over
    # every dark step of every site, so a field flag that differs moves them
    h = hashlib.sha256()
    for seed in range(count):
        h.update(scenario_to_json(generate_scenario(cfg, seed)).encode())
    assert h.hexdigest() == digest


# --- batched field-sampling rounds ------------------------------------------

def _per_round_fields(rng, cfg, grid, sites):
    """Field sampling one rejection round per ``sky_coverage`` call, as it
    was before rounds were batched; returns the fields and the rounds run."""
    n = cfg.num_fields
    if not cfg.visible_fields_only:
        return _uniform_fields(rng, n, cfg.min_field_dec), 0
    skies = site_skies([s.coord for s in sites], grid)
    kept, partial = [], []
    rounds = 0
    for _ in range(40):
        if sum(c.shape[1] for c in kept) >= n:
            break
        rounds += 1
        fields = _uniform_fields(rng, n, cfg.min_field_dec)
        want_some = sum(c.shape[1] for c in partial) < n
        full, some = sky_coverage(*fields, skies, grid.horizon_steps, want_some=want_some)
        kept.append(fields[:, full])
        if want_some:
            partial.append(fields[:, some & ~full])
    out = np.concatenate(kept + partial, axis=1)[:, :n]
    if out.shape[1] < n:
        out = np.concatenate([out, _uniform_fields(rng, n - out.shape[1], cfg.min_field_dec)], axis=1)
    return out, rounds


@pytest.mark.parametrize(
    "num_sites, horizon, num_fields, step_minutes, seed, breaks_inside",
    [
        (1, 30, 7, 1, 0, False),
        (1, 240, 7, 1, 0, True),
        (1, 240, 100, 1, 1, True),
        (1, 240, 100, 5, 0, False),  # partial fields only: all 40 rounds
        (1, 1440, 100, 1, 0, False),
        (2, 30, 1, 5, 1, True),
        (2, 240, 1, 1, 0, True),
        (2, 240, 3000, 1, 0, False),
        (2, 1440, 7, 1, 0, False),
        (5, 30, 100, 5, 0, False),
        (5, 240, 7, 1, 0, True),
        (5, 240, 100, 1, 0, False),
        (5, 240, 3000, 5, 0, False),
        (5, 1440, 100, 1, 0, False),  # the night grid
    ],
)
def test_batched_rounds_match_the_per_round_loop(
    monkeypatch, num_sites, horizon, num_fields, step_minutes, seed, breaks_inside
):
    # the fields, and the generator state the arrival stream draws from next
    cfg = GenConfig(num_sites=num_sites, horizon_steps=horizon, num_fields=num_fields,
                    step_minutes=step_minutes)
    grid, sites = cfg.make_grid(), default_sites()[:num_sites]
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want, rounds = _per_round_fields(ref_rng, cfg, grid, sites)
    draws = []
    monkeypatch.setattr(sc, "_uniform_fields", lambda *a: draws.append(a[1]) or _uniform_fields(*a))
    got = sc._sample_fields(rng, cfg, grid, sites)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if breaks_inside:  # rounds were drawn past the one the loop stopped at
        assert len(draws) > rounds


def test_unfiltered_fields_match_the_per_round_loop():
    cfg = GenConfig(num_sites=5, visible_fields_only=False)
    ref_rng, rng = np.random.default_rng(4), np.random.default_rng(4)
    want, _ = _per_round_fields(ref_rng, cfg, cfg.make_grid(), default_sites())
    assert np.array_equal(sc._sample_fields(rng, cfg, cfg.make_grid(), default_sites()), want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "cfg, sizes",
    [
        # the night grid finds no full field: two rounds collect the
        # partial ones, and one call decides the other 38
        (GenConfig(horizon_steps=1440, num_sites=5), [100, 100, 3800]),
        # partial fields only, so every round is read
        (GenConfig(num_sites=5, step_minutes=5, num_fields=1000), [1000] * 2 + [4000] * 9 + [2000]),
        (GenConfig(num_sites=5, step_minutes=5, num_fields=3000), [3000] * 40),
    ],
    ids=["night", "1000", "3000"],
)
def test_batches_stay_under_the_field_cap(monkeypatch, cfg, sizes):
    calls = []

    def counting(ra, *args, **kw):
        calls.append(ra.size)
        return sky_coverage(ra, *args, **kw)

    monkeypatch.setattr(sc, "sky_coverage", counting)
    sc._sample_fields(np.random.default_rng(3), cfg, cfg.make_grid(), default_sites()[: cfg.num_sites])
    assert calls == sizes and max(calls) <= COVERAGE_MAX_FIELDS


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

    @pytest.mark.parametrize(
        "path, value",
        [
            (("targets", 0, "coord", "dec"), "1"),
            (("tasks", 0, "exposure"), "5"),
            (("grid", "horizon_steps"), "60"),
            (("tasks", 0, "arrival"), True),
            (("targets", 0, "mode", "gap_minutes"), 5.0),
            (("tasks", 0), 5),
            (("grid",), 5),
            (("targets",), {"coord": 1}),
            (("targets", 0, "filters_required", 1), 0),
            (("tasks", 0, "rho", 0), "x"),
            (("grid", "epoch_utc"), "noon"),
            (("targets", 0, "coord", "ra"), float("nan")),
            (("grid", "step_minutes"), 0),
        ],
        ids=[
            "dec", "exposure", "horizon_steps", "bool-arrival", "float-gap", "int-task",
            "int-grid", "object-targets", "int-filter", "str-rho", "bad-epoch", "nan-ra", "zero-step",
        ],
    )
    def test_wrong_type_is_named(self, path, value):
        s = generate_scenario(GenConfig(horizon_steps=60, arrival_prob=0.3), 1)
        obj = json.loads(scenario_to_json(s))
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        name = ".".join(f"[{k}]" if isinstance(k, int) else k for k in path).replace(".[", "[")
        with pytest.raises(ScenarioError, match=f"^{re.escape(name)}: must be "):
            scenario_from_json(json.dumps(obj))

    def test_version_mismatch(self):
        s = generate_scenario(GenConfig(arrival_prob=0.0, **FAST), 0)
        obj = json.loads(scenario_to_json(s))
        obj["version"] = 999
        with pytest.raises(ScenarioError, match="version"):
            scenario_from_json(json.dumps(obj))

    def test_negative_num_filters_is_named(self):
        """With no targets nothing else catches it: the context used to
        fail with "cannot reshape"."""
        obj = json.loads(scenario_to_json(generate_scenario(GenConfig(arrival_prob=0.0, **FAST), 0)))
        obj["num_filters"] = -1
        with pytest.raises(ScenarioError, match="^num_filters: must be an integer >= 1, got -1$"):
            scenario_from_json(json.dumps(obj))

    def test_missing_field_is_named(self):
        s = generate_scenario(GenConfig(horizon_steps=60, arrival_prob=0.3), 1)
        obj = json.loads(scenario_to_json(s))
        del obj["tasks"][0]["deadline"]
        with pytest.raises(ScenarioError, match="deadline"):
            scenario_from_json(json.dumps(obj))


# --- the reader's error messages, field by field ----------------------------

#: what ``scenario_from_json`` says when one field of targets[1] or
#: tasks[2] of a generated scenario is missing, null, a string, a bool or
#: a float, when a flag field is not a list or holds a non-bool, and when
#: the row is not an object; None where the reader accepts the value
READER_ERRORS = {
    'targets[1]:not-object': 'targets[1]: must be an object, got 5',
    'targets[1].id:missing': "targets[1]: missing field 'id'",
    'targets[1].id:null': 'targets[1].id: must be an integer, got None',
    'targets[1].id:str': "targets[1].id: must be an integer, got 'x'",
    'targets[1].id:bool': 'targets[1].id: must be an integer, got True',
    'targets[1].id:float': 'targets[1].id: must be an integer, got 1.5',
    'targets[1].coord:missing': "targets[1]: missing field 'coord'",
    'targets[1].coord:null': 'targets[1].coord: must be an object, got None',
    'targets[1].coord:str': "targets[1].coord: must be an object, got 'x'",
    'targets[1].coord:bool': 'targets[1].coord: must be an object, got True',
    'targets[1].coord:float': 'targets[1].coord: must be an object, got 1.5',
    'targets[1].coord.ra:missing': "targets[1].coord: missing field 'ra'",
    'targets[1].coord.ra:null': 'targets[1].coord.ra: must be a number, got None',
    'targets[1].coord.ra:str': "targets[1].coord.ra: must be a number, got 'x'",
    'targets[1].coord.ra:bool': 'targets[1].coord.ra: must be a number, got True',
    'targets[1].coord.ra:float': None,
    'targets[1].coord.dec:missing': "targets[1].coord: missing field 'dec'",
    'targets[1].coord.dec:null': 'targets[1].coord.dec: must be a number, got None',
    'targets[1].coord.dec:str': "targets[1].coord.dec: must be a number, got 'x'",
    'targets[1].coord.dec:bool': 'targets[1].coord.dec: must be a number, got True',
    'targets[1].coord.dec:float': None,
    'targets[1].filters_required:missing': "targets[1]: missing field 'filters_required'",
    'targets[1].filters_required:null': 'targets[1].filters_required: must be a list, got None',
    'targets[1].filters_required:str': "targets[1].filters_required: must be a list, got 'x'",
    'targets[1].filters_required:bool': 'targets[1].filters_required: must be a list, got True',
    'targets[1].filters_required:float': 'targets[1].filters_required: must be a list, got 1.5',
    'targets[1].filters_required:non-list': 'targets[1].filters_required: must be a list, got 1',
    'targets[1].filters_required:non-bool': 'targets[1].filters_required[0]: must be a boolean, got 1',
    'targets[1].start_time:missing': "targets[1]: missing field 'start_time'",
    'targets[1].start_time:null': 'targets[1].start_time: must be an integer, got None',
    'targets[1].start_time:str': "targets[1].start_time: must be an integer, got 'x'",
    'targets[1].start_time:bool': 'targets[1].start_time: must be an integer, got True',
    'targets[1].start_time:float': 'targets[1].start_time: must be an integer, got 1.5',
    'targets[1].fade_time:missing': "targets[1]: missing field 'fade_time'",
    'targets[1].fade_time:null': 'targets[1].fade_time: must be an integer, got None',
    'targets[1].fade_time:str': "targets[1].fade_time: must be an integer, got 'x'",
    'targets[1].fade_time:bool': 'targets[1].fade_time: must be an integer, got True',
    'targets[1].fade_time:float': 'targets[1].fade_time: must be an integer, got 1.5',
    'targets[1].exposure_minutes:missing': "targets[1]: missing field 'exposure_minutes'",
    'targets[1].exposure_minutes:null': 'targets[1].exposure_minutes: must be an integer, got None',
    'targets[1].exposure_minutes:str': "targets[1].exposure_minutes: must be an integer, got 'x'",
    'targets[1].exposure_minutes:bool': 'targets[1].exposure_minutes: must be an integer, got True',
    'targets[1].exposure_minutes:float': 'targets[1].exposure_minutes: must be an integer, got 1.5',
    'targets[1].mode:missing': "targets[1]: missing field 'mode'",
    'targets[1].mode:null': 'targets[1].mode: must be an object, got None',
    'targets[1].mode:str': "targets[1].mode: must be an object, got 'x'",
    'targets[1].mode:bool': 'targets[1].mode: must be an object, got True',
    'targets[1].mode:float': 'targets[1].mode: must be an object, got 1.5',
    'targets[1].mode.kind:missing': "targets[1].mode: missing field 'kind'",
    'targets[1].mode.kind:null': 'targets[1].mode.kind: must be a string, got None',
    'targets[1].mode.kind:str': "targets[1]: mode.kind invalid: 'x'",
    'targets[1].mode.kind:bool': 'targets[1].mode.kind: must be a string, got True',
    'targets[1].mode.kind:float': 'targets[1].mode.kind: must be a string, got 1.5',
    'targets[1].mode.gap_minutes:missing': None,
    'targets[1].mode.gap_minutes:null': None,
    'targets[1].mode.gap_minutes:str': "targets[1].mode.gap_minutes: must be an integer, got 'x'",
    'targets[1].mode.gap_minutes:bool': 'targets[1].mode.gap_minutes: must be an integer, got True',
    'targets[1].mode.gap_minutes:float': 'targets[1].mode.gap_minutes: must be an integer, got 1.5',
    'targets[1].priority:missing': "targets[1]: missing field 'priority'",
    'targets[1].priority:null': 'targets[1].priority: must be an integer, got None',
    'targets[1].priority:str': "targets[1].priority: must be an integer, got 'x'",
    'targets[1].priority:bool': 'targets[1].priority: must be an integer, got True',
    'targets[1].priority:float': 'targets[1].priority: must be an integer, got 1.5',
    'targets[1].arrival_step:missing': "targets[1]: missing field 'arrival_step'",
    'targets[1].arrival_step:null': 'targets[1].arrival_step: must be an integer, got None',
    'targets[1].arrival_step:str': "targets[1].arrival_step: must be an integer, got 'x'",
    'targets[1].arrival_step:bool': 'targets[1].arrival_step: must be an integer, got True',
    'targets[1].arrival_step:float': 'targets[1].arrival_step: must be an integer, got 1.5',
    'tasks[2]:not-object': 'tasks[2]: must be an object, got 5',
    'tasks[2].id:missing': "tasks[2]: missing field 'id'",
    'tasks[2].id:null': 'tasks[2].id: must be an integer, got None',
    'tasks[2].id:str': "tasks[2].id: must be an integer, got 'x'",
    'tasks[2].id:bool': 'tasks[2].id: must be an integer, got True',
    'tasks[2].id:float': 'tasks[2].id: must be an integer, got 1.5',
    'tasks[2].target_id:missing': "tasks[2]: missing field 'target_id'",
    'tasks[2].target_id:null': 'tasks[2].target_id: must be an integer, got None',
    'tasks[2].target_id:str': "tasks[2].target_id: must be an integer, got 'x'",
    'tasks[2].target_id:bool': 'tasks[2].target_id: must be an integer, got True',
    'tasks[2].target_id:float': 'tasks[2].target_id: must be an integer, got 1.5',
    'tasks[2].rho:missing': "tasks[2]: missing field 'rho'",
    'tasks[2].rho:null': 'tasks[2].rho: must be a list, got None',
    'tasks[2].rho:str': "tasks[2].rho: must be a list, got 'x'",
    'tasks[2].rho:bool': 'tasks[2].rho: must be a list, got True',
    'tasks[2].rho:float': 'tasks[2].rho: must be a list, got 1.5',
    'tasks[2].rho:non-list': 'tasks[2].rho: must be a list, got 1',
    'tasks[2].rho:non-bool': 'tasks[2].rho[0]: must be a boolean, got 1',
    'tasks[2].arrival:missing': "tasks[2]: missing field 'arrival'",
    'tasks[2].arrival:null': 'tasks[2].arrival: must be an integer, got None',
    'tasks[2].arrival:str': "tasks[2].arrival: must be an integer, got 'x'",
    'tasks[2].arrival:bool': 'tasks[2].arrival: must be an integer, got True',
    'tasks[2].arrival:float': 'tasks[2].arrival: must be an integer, got 1.5',
    'tasks[2].exposure:missing': "tasks[2]: missing field 'exposure'",
    'tasks[2].exposure:null': 'tasks[2].exposure: must be an integer, got None',
    'tasks[2].exposure:str': "tasks[2].exposure: must be an integer, got 'x'",
    'tasks[2].exposure:bool': 'tasks[2].exposure: must be an integer, got True',
    'tasks[2].exposure:float': 'tasks[2].exposure: must be an integer, got 1.5',
    'tasks[2].deadline:missing': "tasks[2]: missing field 'deadline'",
    'tasks[2].deadline:null': 'tasks[2].deadline: must be an integer, got None',
    'tasks[2].deadline:str': "tasks[2].deadline: must be an integer, got 'x'",
    'tasks[2].deadline:bool': 'tasks[2].deadline: must be an integer, got True',
    'tasks[2].deadline:float': 'tasks[2].deadline: must be an integer, got 1.5',
    'tasks[2].seq_index:missing': "tasks[2]: missing field 'seq_index'",
    'tasks[2].seq_index:null': 'tasks[2].seq_index: must be an integer, got None',
    'tasks[2].seq_index:str': "tasks[2].seq_index: must be an integer, got 'x'",
    'tasks[2].seq_index:bool': 'tasks[2].seq_index: must be an integer, got True',
    'tasks[2].seq_index:float': 'tasks[2].seq_index: must be an integer, got 1.5',
}

_WRONG = {"null": None, "str": "x", "bool": True, "float": 1.5}


@pytest.mark.parametrize("case", list(READER_ERRORS))
def test_reader_error_messages_are_pinned(case):
    where, variant = case.split(":")
    section, _, rest = where.partition("[")
    row, _, field = rest.partition("]")
    obj = json.loads(scenario_to_json(generate_scenario(GenConfig(horizon_steps=60, arrival_prob=0.3), 1)))
    if not field:
        obj[section][int(row)] = 5
    else:
        *head, key = field.lstrip(".").split(".")
        node = obj[section][int(row)]
        for k in head:
            node = node[k]
        if variant == "missing":
            del node[key]
        elif variant == "non-list":
            node[key] = 1
        elif variant == "non-bool":
            node[key][0] = 1
        else:
            node[key] = _WRONG[variant]
    try:
        scenario_from_json(json.dumps(obj))
        got = None
    except ScenarioError as exc:
        got = str(exc)
    assert got == READER_ERRORS[case]


# --- the row-template writer ------------------------------------------------

def _dict_writer(s):
    """The scenario as one ``json.dumps(indent=1)`` of a dict, as it was
    written before the row templates."""
    targets = [
        {
            "id": t.id,
            "coord": {"ra": t.coord.ra, "dec": t.coord.dec},
            "filters_required": [bool(b) for b in t.filters_required],
            "start_time": t.start_time,
            "fade_time": t.fade_time,
            "exposure_minutes": t.exposure_minutes,
            "mode": {"kind": t.mode.kind, "gap_minutes": t.mode.gap_minutes},
            "priority": t.priority,
            "arrival_step": t.arrival_step,
        }
        for t in s.targets
    ]
    tasks = [
        {
            "id": t.id,
            "target_id": t.target_id,
            "rho": [bool(b) for b in t.rho],
            "arrival": t.arrival,
            "exposure": t.exposure,
            "deadline": t.deadline,
            "seq_index": t.seq_index,
        }
        for t in s.tasks
    ]
    obj = {
        "version": 1,
        "grid": {
            "epoch_utc": s.grid.epoch_utc.isoformat(),
            "step_minutes": s.grid.step_minutes,
            "horizon_steps": s.grid.horizon_steps,
        },
        "sites": [
            {
                "name": site.name,
                "lat_deg": site.coord.lat,
                "lon_deg": site.coord.lon,
                "alt_m": site.coord.altitude_m,
                "equipment_priority": site.equipment_priority,
            }
            for site in s.sites
        ],
        "num_filters": s.num_filters,
        "targets": targets,
        "tasks": tasks,
        "seed": s.rng_seed,
    }
    return json.dumps(obj, indent=1)


@pytest.mark.parametrize(
    "cfg, seed",
    [
        (GenConfig(horizon_steps=1440, num_sites=5), 3),
        (GenConfig(horizon_steps=240, num_sites=5, mode_exposure_count_frac=0.0), 11),
        (GenConfig(horizon_steps=240, num_filters=1, mode_exposure_count_frac=1.0), 7),
        (GenConfig(horizon_steps=120, num_filters=6, arrival_prob=0.5, **FAST), 2),
        (GenConfig(arrival_prob=0.0, **FAST), 0),
    ],
    ids=["1440x5", "cadence", "one-filter", "six-filters", "empty"],
)
def test_writer_matches_the_dict_writer_on_generated_scenarios(cfg, seed):
    s = generate_scenario(cfg, seed)
    assert scenario_to_json(s) == _dict_writer(s)


def _hand_built(sites, targets, tasks=()):
    grid = GenConfig().make_grid()
    return Scenario(grid=grid, sites=tuple(sites), num_filters=3, targets=tuple(targets),
                    tasks=tuple(tasks), rng_seed=5)


def _at(target, **coord):
    # past SkyCoord's normalisation, which never leaves an infinity
    c = SkyCoord(0.0, 0.0)
    for k, v in coord.items():
        object.__setattr__(c, k, v)
    return replace(target, coord=c)


@pytest.mark.parametrize(
    "scenario",
    [
        _hand_built(default_sites()[:1], []),
        _hand_built(
            [Site('a "quoted" \\ site, Paranal-é中', GeoCoord(-24.6, -70.4, 2635.0), 0.25)],
            [_target(tid=0), replace(_target(tid=1), coord=SkyCoord(1e-05, -0.0))],
            target_to_tasks(_target(tid=0)) + target_to_tasks(_target(tid=1), id_base=6),
        ),
        _hand_built(
            [Site("nan-alt", GeoCoord(10.0, 20.0, float("nan")), float("inf"))],
            [_at(_target(tid=0), ra=float("nan")), _at(_target(tid=1), dec=-math.inf),
             _at(_target(tid=2), ra=math.inf, dec=123456789.125)],
        ),
        _hand_built(
            default_sites()[:2],
            [_target(mode=ObsMode(EXPOSURE_COUNT, 0)), _target(mode=ObsMode(CADENCE, 7), tid=1)],
            target_to_tasks(_target(mode=ObsMode(CADENCE, 7), tid=1)),
        ),
    ],
    ids=["no-rows", "escaped-name", "non-finite", "modes"],
)
def test_writer_matches_the_dict_writer_on_hand_built_scenarios(scenario):
    assert scenario_to_json(scenario) == _dict_writer(scenario)


class TestSites:
    """Site files and a scenario's sites go through one parser: the same
    defaults, and errors that name ``sites[i]`` and the field."""

    ROWS = [
        {"name": "a", "lat_deg": -30.0, "lon_deg": -70.0, "alt_m": 2000, "equipment_priority": 0.0},
        {"name": "b", "lat_deg": 28.0, "lon_deg": -17.0, "equipment_priority": 0.7},
    ]

    def _load(self, tmp_path, rows):
        path = tmp_path / "sites.json"
        path.write_text(json.dumps(rows))
        return load_sites(path)

    def _scenario_obj(self):
        return json.loads(scenario_to_json(generate_scenario(GenConfig(horizon_steps=60, num_sites=2), 1)))

    def test_zero_priority_is_kept(self, tmp_path):
        assert [s.equipment_priority for s in self._load(tmp_path, self.ROWS)] == [0.0, 0.7]

    def test_null_priority_means_one(self, tmp_path):
        rows = [dict(self.ROWS[0], equipment_priority=None)]
        assert self._load(tmp_path, rows)[0].equipment_priority == 1.0
        assert [s.equipment_priority for s in default_sites()] == [1.0] * 5
        obj = self._scenario_obj()
        obj["sites"][1]["equipment_priority"] = None
        assert scenario_from_json(json.dumps(obj)).sites[1].equipment_priority == 1.0

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param({"name": None}, "sites\\[1\\]\\.name: must be a string", id="null-name"),
            pytest.param({"lat_deg": "1"}, "sites\\[1\\]\\.lat_deg: must be a number", id="str-lat_deg"),
            pytest.param({"lon_deg": True}, "sites\\[1\\]\\.lon_deg: must be a number", id="bool-lon_deg"),
            pytest.param({"alt_m": "high"}, "sites\\[1\\]\\.alt_m: must be a number", id="str-alt_m"),
            pytest.param(
                {"equipment_priority": float("nan")}, "sites\\[1\\]\\.equipment_priority: must be a number",
                id="nan-equipment_priority",
            ),
            ({"lat_deg": 91.0}, "sites\\[1\\]: lat_deg out of range"),
            ({"lon_deg": -180.0}, "sites\\[1\\]: lon_deg out of range"),
            pytest.param({"alt_m": float("inf")}, "sites\\[1\\]: alt_m out of range", id="inf-alt_m"),
            pytest.param(
                {"equipment_priority": float("inf")}, "sites\\[1\\]: equipment_priority out of range",
                id="inf-equipment_priority",
            ),
        ],
    )
    def test_bad_field_is_named(self, tmp_path, edit, message):
        with pytest.raises(ScenarioError, match=message):
            self._load(tmp_path, [self.ROWS[0], dict(self.ROWS[1], **edit)])
        obj = self._scenario_obj()
        obj["sites"][1].update(edit)
        with pytest.raises(ScenarioError, match=message):
            scenario_from_json(json.dumps(obj))

    def test_missing_name_is_named(self, tmp_path):
        row = {k: v for k, v in self.ROWS[1].items() if k != "name"}
        with pytest.raises(ScenarioError, match="sites\\[1\\]: missing field 'name'"):
            self._load(tmp_path, [self.ROWS[0], row])

    def test_empty_list_is_rejected(self, tmp_path):
        # each of these used to give a scenario whose every task is dropped
        with pytest.raises(ScenarioError, match="^sites: must hold at least one site$"):
            self._load(tmp_path, [])
        obj = self._scenario_obj()
        obj["sites"] = []
        with pytest.raises(ScenarioError, match="^sites: must hold at least one site$"):
            scenario_from_json(json.dumps(obj))
        with pytest.raises(ScenarioError, match="^sites: must hold at least one site$"):
            generate_scenario(GenConfig(horizon_steps=60), 1, sites=[])

    def test_default_sites_is_a_new_list_each_call(self):
        first = default_sites()
        names = [s.name for s in first]
        first.append(first[0])
        first.reverse()
        assert default_sites() is not first
        assert [s.name for s in default_sites()] == names

    def test_not_a_list_or_object(self, tmp_path):
        with pytest.raises(ScenarioError, match="sites: must be a list"):
            self._load(tmp_path, {"name": "a"})
        with pytest.raises(ScenarioError, match="sites\\[0\\]: must be an object"):
            self._load(tmp_path, ["a"])

class TestUniqueIds:
    """Task ids and target ids are each unique within a scenario."""

    def test_duplicate_task_id_is_named(self):
        obj = json.loads(scenario_to_json(generate_scenario(GenConfig(horizon_steps=240), 1)))
        dup = obj["tasks"][0]["id"]
        obj["tasks"][1]["id"] = dup
        with pytest.raises(ScenarioError, match=f"task {dup}: duplicate task id"):
            scenario_from_json(json.dumps(obj))

    def test_duplicate_target_id_is_named(self):
        obj = json.loads(scenario_to_json(generate_scenario(GenConfig(horizon_steps=240), 1)))
        dup = obj["targets"][0]["id"]
        obj["targets"][1]["id"] = dup
        with pytest.raises(ScenarioError, match=f"target {dup}: duplicate target id"):
            scenario_from_json(json.dumps(obj))


class TestMalformedTasks:
    """A task's exposure is at least one step and its target's, its
    arrival lies on the grid, and it occupies at least one filter; JSON
    errors name the row, task and field."""

    @staticmethod
    def _obj():
        return json.loads(scenario_to_json(generate_scenario(GenConfig(horizon_steps=240, arrival_prob=0.3), 4)))

    def test_zero_exposure_is_named(self):
        obj = self._obj()
        task = obj["tasks"][1]
        task["exposure"] = 0
        with pytest.raises(ScenarioError, match=rf"^tasks\[1\]: task {task['id']}: exposure must be >= 1, got 0$"):
            scenario_from_json(json.dumps(obj))

    def test_negative_arrival_is_named(self):
        obj = self._obj()
        task = obj["tasks"][2]
        task["arrival"] = -1
        with pytest.raises(ScenarioError, match=rf"^tasks\[2\]: task {task['id']}: arrival must be >= 0, got -1$"):
            scenario_from_json(json.dumps(obj))

    @pytest.mark.parametrize("past", [0, 60])
    def test_arrival_at_or_after_the_horizon_is_named(self, past):
        # the dispatcher queues a task at its arrival step, so one arriving
        # after the last step would be neither scheduled nor dropped
        obj = self._obj()
        last = {t["target_id"]: t for t in obj["tasks"]}  # each target's last sibling
        task = next(iter(last.values()))
        task["arrival"] = 240 + past
        task["deadline"] = task["arrival"] + task["exposure"]
        match = rf"^task {task['id']}: arrival must be < horizon_steps \(240\), got {240 + past}$"
        with pytest.raises(ScenarioError, match=match):
            scenario_from_json(json.dumps(obj))

    def test_a_task_with_no_filter_is_named(self):
        # it would occupy nothing, so any number of them could share a step
        obj = self._obj()
        task = obj["tasks"][1]
        task["rho"] = [False] * len(task["rho"])
        with pytest.raises(ScenarioError, match=rf"^tasks\[1\]: task {task['id']}: at least one filter required$"):
            scenario_from_json(json.dumps(obj))

    def test_exposure_other_than_the_targets_is_named(self):
        obj = self._obj()
        task = next(t for t in obj["tasks"] if t["seq_index"] == 0 and t["exposure"] > 1)
        want = task["exposure"]
        task["exposure"] -= 1
        match = rf"task {task['id']}: exposure differs from target {task['target_id']}'s exposure_minutes \({want - 1} != {want}\)"
        with pytest.raises(ScenarioError, match=match):
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
