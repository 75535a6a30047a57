"""Instance generation: targets of opportunity, their split into exposure
tasks, and scenario (de)serialization.

A scenario is the full immutable description of one scheduling instance:
the time grid, the sites with their equipment-priority factors, the
arrival stream of targets, and the observation tasks derived from them.
Generation is deterministic given a seed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from importlib import resources
from typing import Iterable

import numpy as np

from .ephemeris import (
    GeoCoord,
    SkyCoord,
    TimeGrid,
    VisibilityConstraints,
    site_skies,
    sky_coverage,
)

__all__ = [
    "ScenarioError",
    "ObsMode",
    "Target",
    "ObservationTask",
    "Site",
    "Scenario",
    "GenConfig",
    "default_sites",
    "load_sites",
    "generate_scenario",
    "target_to_tasks",
    "save_scenario",
    "load_scenario",
    "scenario_to_json",
    "scenario_from_json",
]

SCENARIO_FORMAT_VERSION = 1

EXPOSURE_COUNT = "exposure_count"
CADENCE = "cadence"


class ScenarioError(ValueError):
    """Malformed scenario data; the message names the offending field."""


@dataclass(frozen=True)
class ObsMode:
    """Observation mode: back-to-back exposures or a fixed-gap cadence."""

    kind: str = EXPOSURE_COUNT
    gap_minutes: int = 0

    def __post_init__(self):
        if self.kind not in (EXPOSURE_COUNT, CADENCE):
            raise ScenarioError(f"mode.kind invalid: {self.kind!r}")
        if self.kind == CADENCE and self.gap_minutes < 1:
            raise ScenarioError("mode.gap_minutes must be >= 1 for cadence mode")

    @property
    def sibling_gap(self) -> int:
        """Minimum idle steps required between consecutive exposures."""
        return self.gap_minutes if self.kind == CADENCE else 0


@dataclass(frozen=True)
class Target:
    """A target of opportunity and its follow-up requirements."""

    id: int
    coord: SkyCoord
    filters_required: tuple[bool, ...]
    start_time: int
    fade_time: int
    exposure_minutes: int
    mode: ObsMode
    priority: int
    arrival_step: int

    def __post_init__(self):
        if self.start_time >= self.fade_time:
            raise ScenarioError(f"target {self.id}: start_time must precede fade_time")
        if self.exposure_minutes < 1:
            raise ScenarioError(f"target {self.id}: exposure_minutes must be >= 1")
        if not any(self.filters_required):
            raise ScenarioError(f"target {self.id}: at least one filter required")
        if self.arrival_step > self.start_time:
            raise ScenarioError(f"target {self.id}: arrival_step must be <= start_time")

    @property
    def duration(self) -> int:
        return self.fade_time - self.start_time


@dataclass(frozen=True)
class ObservationTask:
    """One exposure of a target; the unit of scheduling.

    ``arrival`` is the required beginning time of this exposure, ``deadline``
    the latest completion step (the parent target's fade time).
    """

    id: int
    target_id: int
    rho: tuple[bool, ...]
    arrival: int
    exposure: int
    deadline: int
    seq_index: int

    def __post_init__(self):
        if self.arrival + self.exposure > self.deadline:
            raise ScenarioError(f"task {self.id}: exposure does not fit before deadline")


@dataclass(frozen=True)
class Site:
    """Observation site plus its scalar equipment-priority factor."""

    name: str
    coord: GeoCoord
    equipment_priority: float = 1.0


@dataclass(frozen=True)
class Scenario:
    """One complete scheduling instance.  Immutable after construction."""

    grid: TimeGrid
    sites: tuple[Site, ...]
    num_filters: int
    targets: tuple[Target, ...]
    tasks: tuple[ObservationTask, ...]
    rng_seed: int = 0

    def __post_init__(self):
        target_ids = {t.id for t in self.targets}
        siblings: dict[int, list[ObservationTask]] = {}
        for task in self.tasks:
            if task.target_id not in target_ids:
                raise ScenarioError(f"task {task.id}: unknown target {task.target_id}")
            if len(task.rho) != self.num_filters:
                raise ScenarioError(f"task {task.id}: rho length != num_filters")
            siblings.setdefault(task.target_id, []).append(task)
        for seq in siblings.values():
            seq.sort(key=lambda task: task.seq_index)
            for m, task in enumerate(seq):
                if task.seq_index != m:
                    raise ScenarioError(f"task {task.id}: seq_index {task.seq_index} breaks 0..{len(seq) - 1}")
                if m and task.arrival <= seq[m - 1].arrival:
                    raise ScenarioError(f"task {task.id}: arrival must exceed the previous sibling's")
                if task.exposure != seq[0].exposure:
                    raise ScenarioError(f"task {task.id}: exposure differs from its siblings'")
        for t in self.targets:
            if len(t.filters_required) != self.num_filters:
                raise ScenarioError(f"target {t.id}: filters_required length != num_filters")

    def target_by_id(self, target_id: int) -> Target:
        for t in self.targets:
            if t.id == target_id:
                return t
        raise KeyError(target_id)


@dataclass(frozen=True)
class GenConfig:
    """Distribution knobs for scenario generation.

    Arrival: one Bernoulli trial per grid step; ``steady`` uses a fixed
    probability, ``dynamic`` resamples the per-step probability uniformly
    from [0, dynamic_max_prob] at every step.
    Durations/exposures are uniform integers on the long/short ranges, the
    long variant drawn with the given fraction.  Resources: ``uniform``
    picks one of the three unordered filter pairs; ``nonuniform`` draws the
    band count 1/2/3 with weights renormalized from (0.10, 0.20, 0.30).
    """

    arrival_mode: str = "steady"
    arrival_prob: float = 0.10
    dynamic_max_prob: float = 0.30
    duration_long_frac: float = 0.2
    duration_long_range: tuple[int, int] = (120, 240)
    duration_short_range: tuple[int, int] = (60, 119)
    resource_mix: str = "nonuniform"
    resource_band_probs: tuple[float, float, float] = (0.10, 0.20, 0.30)
    exposure_long_frac: float = 0.8
    exposure_long_range: tuple[int, int] = (10, 20)
    exposure_short_range: tuple[int, int] = (1, 9)
    mode_exposure_count_frac: float = 0.5
    cadence_gap_range: tuple[int, int] = (5, 30)
    priority_range: tuple[int, int] = (1, 5)
    num_fields: int = 100
    min_field_dec: float = -30.0
    visible_fields_only: bool = True
    num_filters: int = 3
    num_sites: int = 1
    epoch_utc: str = "2025-06-21T04:00:00+00:00"
    step_minutes: int = 1
    horizon_steps: int = 240

    def __post_init__(self):
        if self.arrival_mode not in ("steady", "dynamic"):
            raise ScenarioError(f"arrival_mode invalid: {self.arrival_mode!r}")
        for name in ("arrival_prob", "duration_long_frac", "exposure_long_frac",
                     "mode_exposure_count_frac"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ScenarioError(f"{name} must be in [0,1]")
        for name in ("duration_long_range", "duration_short_range",
                     "exposure_long_range", "exposure_short_range",
                     "cadence_gap_range", "priority_range"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 1:
                raise ScenarioError(f"{name} bounds inverted or < 1")

    def make_grid(self) -> TimeGrid:
        return TimeGrid(
            epoch_utc=datetime.fromisoformat(self.epoch_utc),
            step_minutes=self.step_minutes,
            horizon_steps=self.horizon_steps,
        )


def default_sites() -> list[Site]:
    """The bundled five-site list (equipment priorities left at 1.0)."""
    text = resources.files("obsched.data").joinpath("sites.json").read_text()
    return _sites_from_obj(json.loads(text))


def load_sites(path) -> list[Site]:
    with open(path) as fh:
        return _sites_from_obj(json.load(fh))


def _sites_from_obj(obj) -> list[Site]:
    sites = []
    for row in obj:
        sites.append(
            Site(
                name=row["name"],
                coord=GeoCoord(row["lat_deg"], row["lon_deg"], row.get("alt_m", 0.0)),
                equipment_priority=float(row.get("equipment_priority") or 1.0),
            )
        )
    return sites


def _uniform_fields(rng: np.random.Generator, n: int, min_dec: float) -> tuple[np.ndarray, np.ndarray]:
    # uniform on the sphere above min_dec: ra ~ U[0,360), sin(dec) ~ U[sin(min_dec), 1]
    ra = rng.uniform(0.0, 360.0, size=n)
    s = rng.uniform(np.sin(np.radians(min_dec)), 1.0, size=n)
    return ra, np.degrees(np.arcsin(s))


def _sample_fields(
    rng: np.random.Generator,
    cfg: GenConfig,
    grid: TimeGrid,
    sites: list[Site],
    constraints: VisibilityConstraints,
) -> list[SkyCoord]:
    """Sky fields for one scenario.

    When ``visible_fields_only`` is set (the default), a candidate field
    is kept only when every step of the horizon is observable from at
    least one site, mirroring how survey fields are picked to suit the
    array; after 40 rejection rounds the remainder is filled first with
    partially-visible draws, then unfiltered ones.

    The sites' skies are computed once, not once per round, and
    ``sky_coverage`` gives the same flags as a brute-force union of
    per-site masks (see its docstring for why).  The partially-visible
    flags are asked for only while fewer than ``num_fields`` partial draws
    are held: the fill reads at most ``num_fields`` of them, in order, so
    the draws that would follow are never read.
    """
    if not cfg.visible_fields_only:
        ra, dec = _uniform_fields(rng, cfg.num_fields, cfg.min_field_dec)
        return [SkyCoord(float(r), float(d)) for r, d in zip(ra, dec)]

    skies = site_skies([s.coord for s in sites], grid, constraints)
    out: list[SkyCoord] = []
    partial: list[SkyCoord] = []
    for _ in range(40):
        if len(out) >= cfg.num_fields:
            break
        ra, dec = _uniform_fields(rng, cfg.num_fields, cfg.min_field_dec)
        want_some = len(partial) < cfg.num_fields
        full, some = sky_coverage(
            ra, dec, skies, grid.horizon_steps, constraints, want_some=want_some
        )
        for r, d in zip(ra[full], dec[full]):
            if len(out) < cfg.num_fields:
                out.append(SkyCoord(float(r), float(d)))
        if want_some:
            partial.extend(SkyCoord(float(r), float(d)) for r, d in zip(ra[some & ~full], dec[some & ~full]))
    for c in partial:
        if len(out) >= cfg.num_fields:
            break
        out.append(c)
    while len(out) < cfg.num_fields:
        ra, dec = _uniform_fields(rng, cfg.num_fields - len(out), cfg.min_field_dec)
        out.extend(SkyCoord(float(r), float(d)) for r, d in zip(ra, dec))
    return out


def _sample_filters(rng: np.random.Generator, cfg: GenConfig) -> tuple[bool, ...]:
    d = cfg.num_filters
    if cfg.resource_mix == "uniform":
        # one of the unordered filter pairs, equal probability
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        i, j = pairs[int(rng.integers(len(pairs)))]
        chosen = {i, j}
    elif cfg.resource_mix == "nonuniform":
        probs = np.asarray(cfg.resource_band_probs, dtype=float)
        probs = probs / probs.sum()  # (0.1,0.2,0.3) -> (1/6,2/6,3/6)
        count = 1 + int(rng.choice(len(probs), p=probs))
        chosen = set(rng.choice(d, size=min(count, d), replace=False).tolist())
    else:
        raise ScenarioError(f"resource_mix invalid: {cfg.resource_mix!r}")
    return tuple(i in chosen for i in range(d))


def _sample_int(rng: np.random.Generator, lohi: tuple[int, int]) -> int:
    return int(rng.integers(lohi[0], lohi[1] + 1))


def target_to_tasks(target: Target, *, id_base: int = 0) -> list[ObservationTask]:
    """Split a target into its exposure tasks per its observation mode.

    Exposure-count mode packs floor(duration / exposure) back-to-back
    exposures; cadence mode spaces them ``exposure + gap`` apart.  Tasks
    that would not complete by the fade time are cut; an empty list is a
    valid result when not even one exposure fits.
    """
    e = target.exposure_minutes
    out: list[ObservationTask] = []
    if target.mode.kind == EXPOSURE_COUNT:
        k = target.duration // e
        starts = [target.start_time + m * e for m in range(k)]
    else:
        stride = e + target.mode.gap_minutes
        starts = []
        m = 0
        while target.start_time + m * stride + e <= target.fade_time:
            starts.append(target.start_time + m * stride)
            m += 1
    for m, a in enumerate(starts):
        out.append(
            ObservationTask(
                id=id_base + m,
                target_id=target.id,
                rho=target.filters_required,
                arrival=a,
                exposure=e,
                deadline=target.fade_time,
                seq_index=m,
            )
        )
    return out


def generate_scenario(
    config: GenConfig,
    seed: int,
    *,
    sites: list[Site] | None = None,
    constraints=None,
) -> Scenario:
    """Draw one scenario: arrival stream, target properties, and tasks.

    Deterministic given (config, seed, sites).  Site equipment priorities
    are sampled uniformly in [0,1] here unless the caller provides sites
    that already carry them.
    """
    rng = np.random.default_rng(seed)
    grid = config.make_grid()

    if sites is None:
        base = default_sites()[: config.num_sites]
        if len(base) < config.num_sites:
            raise ScenarioError("num_sites exceeds the default site list")
        prios = rng.uniform(0.0, 1.0, size=len(base))
        sites = [replace(s, equipment_priority=float(p)) for s, p in zip(base, prios)]
    else:
        rng.uniform(0.0, 1.0, size=len(sites))  # keep the stream aligned

    fields = _sample_fields(
        rng, config, grid, sites, constraints or VisibilityConstraints()
    )

    targets: list[Target] = []
    tasks: list[ObservationTask] = []
    horizon = grid.horizon_steps
    for step in range(horizon):
        if config.arrival_mode == "steady":
            p = config.arrival_prob
        else:
            p = rng.uniform(0.0, config.dynamic_max_prob)
        if rng.random() >= p:
            continue
        coord = fields[int(rng.integers(len(fields)))]
        long_dur = rng.random() < config.duration_long_frac
        duration = _sample_int(
            rng, config.duration_long_range if long_dur else config.duration_short_range
        )
        long_exp = rng.random() < config.exposure_long_frac
        exposure = _sample_int(
            rng, config.exposure_long_range if long_exp else config.exposure_short_range
        )
        filters = _sample_filters(rng, config)
        if rng.random() < config.mode_exposure_count_frac:
            mode = ObsMode(EXPOSURE_COUNT)
        else:
            mode = ObsMode(CADENCE, _sample_int(rng, config.cadence_gap_range))
        start = step
        fade = min(start + duration, horizon)  # monitoring cannot outlive the grid
        target = Target(
            id=len(targets),
            coord=coord,
            filters_required=filters,
            start_time=start,
            fade_time=fade,
            exposure_minutes=exposure,
            mode=mode,
            priority=_sample_int(rng, config.priority_range),
            arrival_step=step,
        )
        # a target may contribute no tasks (not even one exposure fits
        # before its fade); it stays in the scenario as data
        targets.append(target)
        tasks.extend(target_to_tasks(target, id_base=len(tasks)))

    return Scenario(
        grid=grid,
        sites=tuple(sites),
        num_filters=config.num_filters,
        targets=tuple(targets),
        tasks=tuple(tasks),
        rng_seed=seed,
    )


# --- serialization ---------------------------------------------------------

def _target_to_obj(t: Target) -> dict:
    return {
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


def _task_to_obj(t: ObservationTask) -> dict:
    return {
        "id": t.id,
        "target_id": t.target_id,
        "rho": [bool(b) for b in t.rho],
        "arrival": t.arrival,
        "exposure": t.exposure,
        "deadline": t.deadline,
        "seq_index": t.seq_index,
    }


def scenario_to_json(s: Scenario) -> str:
    obj = {
        "version": SCENARIO_FORMAT_VERSION,
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
        "targets": [_target_to_obj(t) for t in s.targets],
        "tasks": [_task_to_obj(t) for t in s.tasks],
        "seed": s.rng_seed,
    }
    return json.dumps(obj, indent=1)


def _require(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise ScenarioError(f"{ctx}: missing field {key!r}")
    return obj[key]


def scenario_from_json(text: str) -> Scenario:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    version = _require(obj, "version", "scenario")
    if version != SCENARIO_FORMAT_VERSION:
        raise ScenarioError(
            f"version mismatch: file has {version}, expected {SCENARIO_FORMAT_VERSION}"
        )
    g = _require(obj, "grid", "scenario")
    grid = TimeGrid(
        epoch_utc=datetime.fromisoformat(_require(g, "epoch_utc", "grid")),
        step_minutes=_require(g, "step_minutes", "grid"),
        horizon_steps=_require(g, "horizon_steps", "grid"),
    )
    sites = []
    for i, row in enumerate(_require(obj, "sites", "scenario")):
        lat = _require(row, "lat_deg", f"sites[{i}]")
        lon = _require(row, "lon_deg", f"sites[{i}]")
        if not -90.0 <= lat <= 90.0:
            raise ScenarioError(f"sites[{i}]: lat_deg out of range")
        if not -180.0 < lon <= 180.0:
            raise ScenarioError(f"sites[{i}]: lon_deg out of range")
        sites.append(
            Site(
                name=_require(row, "name", f"sites[{i}]"),
                coord=GeoCoord(lat, lon, row.get("alt_m", 0.0)),
                equipment_priority=float(row.get("equipment_priority", 1.0)),
            )
        )
    targets = []
    for i, row in enumerate(_require(obj, "targets", "scenario")):
        ctx = f"targets[{i}]"
        coord = _require(row, "coord", ctx)
        dec = _require(coord, "dec", ctx)
        ra = _require(coord, "ra", ctx)
        if not -90.0 <= dec <= 90.0:
            raise ScenarioError(f"{ctx}: dec out of range")
        if not 0.0 <= ra < 360.0:
            raise ScenarioError(f"{ctx}: ra out of range")
        mode = _require(row, "mode", ctx)
        try:
            targets.append(
                Target(
                    id=_require(row, "id", ctx),
                    coord=SkyCoord(ra, dec),
                    filters_required=tuple(bool(b) for b in _require(row, "filters_required", ctx)),
                    start_time=_require(row, "start_time", ctx),
                    fade_time=_require(row, "fade_time", ctx),
                    exposure_minutes=_require(row, "exposure_minutes", ctx),
                    mode=ObsMode(_require(mode, "kind", ctx), mode.get("gap_minutes", 0)),
                    priority=_require(row, "priority", ctx),
                    arrival_step=_require(row, "arrival_step", ctx),
                )
            )
        except ScenarioError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc
    tasks = []
    for i, row in enumerate(_require(obj, "tasks", "scenario")):
        ctx = f"tasks[{i}]"
        try:
            tasks.append(
                ObservationTask(
                    id=_require(row, "id", ctx),
                    target_id=_require(row, "target_id", ctx),
                    rho=tuple(bool(b) for b in _require(row, "rho", ctx)),
                    arrival=_require(row, "arrival", ctx),
                    exposure=_require(row, "exposure", ctx),
                    deadline=_require(row, "deadline", ctx),
                    seq_index=_require(row, "seq_index", ctx),
                )
            )
        except ScenarioError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc
    return Scenario(
        grid=grid,
        sites=tuple(sites),
        num_filters=_require(obj, "num_filters", "scenario"),
        targets=tuple(targets),
        tasks=tuple(tasks),
        rng_seed=_require(obj, "seed", "scenario"),
    )


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(scenario_to_json(s))


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_json(fh.read())
