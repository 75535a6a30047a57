"""Instance generation: targets of opportunity, their split into exposure
tasks, and scenario (de)serialization.

A scenario is the full immutable description of one scheduling instance:
the time grid, the sites with their equipment-priority factors, the
arrival stream of targets, and the observation tasks derived from them.
Generation is deterministic given a seed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from datetime import datetime
from functools import cache, lru_cache
from importlib import resources
from operator import itemgetter

import numpy as np

from .ephemeris import (
    COVERAGE_MAX_FIELDS,
    GeoCoord,
    SkyCoord,
    TimeGrid,
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
    "read_json_file",
    "generate_scenario",
    "target_to_tasks",
    "save_scenario",
    "load_scenario",
    "scenario_to_json",
    "scenario_from_json",
]

SCENARIO_FORMAT_VERSION = 1

#: rejection rounds of ``num_fields`` draws in visible-field sampling
_FIELD_ROUNDS = 40

EXPOSURE_COUNT = "exposure_count"
CADENCE = "cadence"


class ScenarioError(ValueError):
    """Malformed scenario, site or config data; the message names the field."""


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

    @property
    def n_exposures(self) -> int:
        """How many exposures fit between start and fade, ``exposure_minutes +
        mode.sibling_gap`` apart (0 if not even one does)."""
        e = self.exposure_minutes
        return (self.duration - e) // (e + self.mode.sibling_gap) + 1


@dataclass(frozen=True)
class ObservationTask:
    """One exposure of a target; the unit of scheduling.

    ``arrival`` is the required beginning time of this exposure, ``deadline``
    the latest completion step (the parent target's fade time), and
    ``rho`` the filters it occupies, at least one.
    """

    id: int
    target_id: int
    rho: tuple[bool, ...]
    arrival: int
    exposure: int
    deadline: int
    seq_index: int

    def __post_init__(self):
        if self.exposure < 1:
            raise ScenarioError(f"task {self.id}: exposure must be >= 1, got {self.exposure}")
        if self.arrival < 0:
            raise ScenarioError(f"task {self.id}: arrival must be >= 0, got {self.arrival}")
        if self.arrival + self.exposure > self.deadline:
            raise ScenarioError(f"task {self.id}: exposure does not fit before deadline")
        if not any(self.rho):
            raise ScenarioError(f"task {self.id}: at least one filter required")


@dataclass(frozen=True)
class Site:
    """Observation site plus its scalar equipment-priority factor."""

    name: str
    coord: GeoCoord
    equipment_priority: float = 1.0


@dataclass(frozen=True)
class Scenario:
    """One complete scheduling instance.  Immutable after construction.

    Every task arrives inside the grid (arrival < horizon_steps): the
    online dispatcher queues a task at its arrival step."""

    grid: TimeGrid
    sites: tuple[Site, ...]
    num_filters: int
    targets: tuple[Target, ...]
    tasks: tuple[ObservationTask, ...]
    rng_seed: int = 0

    def __post_init__(self):
        targets: dict[int, Target] = {}
        for t in self.targets:
            if t.id in targets:
                raise ScenarioError(f"target {t.id}: duplicate target id")
            if len(t.filters_required) != self.num_filters:
                raise ScenarioError(f"target {t.id}: filters_required length != num_filters")
            targets[t.id] = t
        siblings: dict[int, list[ObservationTask]] = {}
        task_ids: set[int] = set()
        for task in self.tasks:
            if task.id in task_ids:
                raise ScenarioError(f"task {task.id}: duplicate task id")
            task_ids.add(task.id)
            if task.target_id not in targets:
                raise ScenarioError(f"task {task.id}: unknown target {task.target_id}")
            want = targets[task.target_id].exposure_minutes
            if task.exposure != want:
                raise ScenarioError(
                    f"task {task.id}: exposure differs from target {task.target_id}'s "
                    f"exposure_minutes ({task.exposure} != {want})"
                )
            if len(task.rho) != self.num_filters:
                raise ScenarioError(f"task {task.id}: rho length != num_filters")
            if task.arrival >= self.grid.horizon_steps:
                raise ScenarioError(
                    f"task {task.id}: arrival must be < horizon_steps ({self.grid.horizon_steps}), got {task.arrival}"
                )
            siblings.setdefault(task.target_id, []).append(task)
        for seq in siblings.values():
            seq.sort(key=lambda task: task.seq_index)
            for m, task in enumerate(seq):
                if task.seq_index != m:
                    raise ScenarioError(f"task {task.id}: seq_index {task.seq_index} breaks 0..{len(seq) - 1}")
                if m and task.arrival <= seq[m - 1].arrival:
                    raise ScenarioError(f"task {task.id}: arrival must exceed the previous sibling's")


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
        if self.resource_mix not in ("uniform", "nonuniform"):
            raise ScenarioError(f"resource_mix invalid: {self.resource_mix!r}")
        for name in ("arrival_prob", "dynamic_max_prob", "duration_long_frac",
                     "exposure_long_frac", "mode_exposure_count_frac"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ScenarioError(f"{name} must be in [0,1]")
        for name in ("num_fields", "num_filters", "num_sites", "step_minutes", "horizon_steps"):
            if getattr(self, name) < 1:
                raise ScenarioError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("duration_long_range", "duration_short_range",
                     "exposure_long_range", "exposure_short_range",
                     "cadence_gap_range", "priority_range"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 1:
                raise ScenarioError(f"{name} bounds inverted or < 1")
        probs = self.resource_band_probs
        if not (all(0.0 <= p < np.inf for p in probs) and sum(probs) > 0.0):
            raise ScenarioError(
                f"resource_band_probs must be finite and >= 0 with a positive sum, got {probs!r}"
            )
        if self.resource_mix == "uniform" and self.num_filters < 2:
            raise ScenarioError(
                f"num_filters must be >= 2 for resource_mix 'uniform', got {self.num_filters!r}"
            )
        if not -90.0 <= self.min_field_dec <= 90.0:
            raise ScenarioError(f"min_field_dec must be in [-90, 90], got {self.min_field_dec!r}")
        _epoch(self.epoch_utc, "epoch_utc")

    def make_grid(self) -> TimeGrid:
        return TimeGrid(
            epoch_utc=datetime.fromisoformat(self.epoch_utc),
            step_minutes=self.step_minutes,
            horizon_steps=self.horizon_steps,
        )


def default_sites() -> list[Site]:
    """The bundled five-site list (equipment priorities left at 1.0); a new list per call."""
    return list(_bundled_sites())


@cache
def _bundled_sites() -> tuple[Site, ...]:
    text = resources.files("obsched.data").joinpath("sites.json").read_text()
    return tuple(_sites_from_obj(json.loads(text)))


def read_json_file(path):
    """The JSON value in the file at ``path``; malformed text is a
    ScenarioError that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc


def load_sites(path) -> list[Site]:
    return _sites_from_obj(read_json_file(path))


def _sites_from_obj(obj) -> list[Site]:
    """Parse a site list, from a site file or a scenario; errors name
    ``sites[i]`` and the field.  A missing or null ``equipment_priority``
    means 1.0, a missing or null ``alt_m`` 0.0; an empty list is an error."""
    rows = read_field(obj, None, "sites", list)
    if not rows:
        raise ScenarioError("sites: must hold at least one site")
    sites = []
    for ctx, row in _rows(rows, "sites"):
        name = read_field(row, "name", ctx, str)
        lat = read_field(row, "lat_deg", ctx, float)
        lon = read_field(row, "lon_deg", ctx, float)
        alt = read_field(row, "alt_m", ctx, float, default=0.0)
        priority = read_field(row, "equipment_priority", ctx, float, default=1.0)
        if not -90.0 <= lat <= 90.0:
            raise ScenarioError(f"{ctx}: lat_deg out of range")
        if not -180.0 < lon <= 180.0:
            raise ScenarioError(f"{ctx}: lon_deg out of range")
        if not abs(alt) < np.inf:
            raise ScenarioError(f"{ctx}: alt_m out of range")
        if not abs(priority) < np.inf:
            raise ScenarioError(f"{ctx}: equipment_priority out of range")
        sites.append(Site(name=name, coord=GeoCoord(lat, lon, alt), equipment_priority=float(priority)))
    return sites


def _uniform_fields(rng: np.random.Generator, n: int, min_dec: float) -> np.ndarray:
    # uniform on the sphere above min_dec: ra ~ U[0,360), sin(dec) ~ U[sin(min_dec), 1]
    ra = rng.uniform(0.0, 360.0, size=n)
    s = rng.uniform(np.sin(np.radians(min_dec)), 1.0, size=n)
    return np.stack([ra, np.degrees(np.arcsin(s))])


def _sample_fields(
    rng: np.random.Generator,
    cfg: GenConfig,
    grid: TimeGrid,
    sites: list[Site],
) -> np.ndarray:
    """Sky fields for one scenario, under the default
    ``VisibilityConstraints``: a (2, ``num_fields``) array of ra and dec.

    When ``visible_fields_only`` is set (the default), a candidate field
    is kept only when every step of the horizon is observable from at
    least one site, mirroring how survey fields are picked to suit the
    array; after 40 rejection rounds of ``num_fields`` draws the
    remainder is filled first with partially-visible draws, then
    unfiltered ones.

    The sites' skies are computed once, not once per round, and
    ``sky_coverage`` gives the same flags as a brute-force union of
    per-site masks (see its docstring for why).  The partially-visible
    flags are asked for only while fewer than ``num_fields`` partial
    draws are held: the fill reads at most ``num_fields`` of them, in
    order, so the draws that would follow are never read.

    Once the partial draws are held, a round only adds full fields, so
    several rounds are drawn in loop order and decided in one
    ``sky_coverage`` call: every remaining round while no full field is
    kept, else as many as the rate so far needs to fill ``num_fields``,
    and at most ``COVERAGE_MAX_FIELDS`` candidates (one round when it
    holds more).  The rounds are then
    walked in order with the loop's stopping test, and the generator's
    state after the last round the loop reads is put back, so the fields
    and the draws that follow are the round-by-round loop's.
    """
    n = cfg.num_fields
    if not cfg.visible_fields_only:
        return _uniform_fields(rng, n, cfg.min_field_dec)

    skies = site_skies([s.coord for s in sites], grid)
    kept: list[np.ndarray] = []  # (2, k) chunks of full fields, in draw order
    partial: list[np.ndarray] = []  # and of partial ones
    n_kept = n_partial = rounds = 0
    while rounds < _FIELD_ROUNDS and n_kept < n:
        want_some = n_partial < n
        if want_some:
            batch = 1
        elif not n_kept:
            batch = _FIELD_ROUNDS - rounds
        else:
            batch = math.ceil((n - n_kept) * rounds / n_kept)
        batch = min(batch, _FIELD_ROUNDS - rounds, max(1, COVERAGE_MAX_FIELDS // n))
        draws, states = [], []
        for _ in range(batch):
            draws.append(_uniform_fields(rng, n, cfg.min_field_dec))
            states.append(rng.bit_generator.state)
        fields = np.concatenate(draws, axis=1)
        full, some = sky_coverage(*fields, skies, grid.horizon_steps, want_some=want_some)
        if want_some:
            partial.append(fields[:, some & ~full])
            n_partial += partial[-1].shape[1]
        for j, round_fields in enumerate(draws):
            kept.append(round_fields[:, full[j * n:(j + 1) * n]])
            n_kept += kept[-1].shape[1]
            rounds += 1
            if n_kept >= n:
                rng.bit_generator.state = states[j]
                break
    out = np.concatenate(kept + partial, axis=1)[:, :n]
    if out.shape[1] < n:
        out = np.concatenate([out, _uniform_fields(rng, n - out.shape[1], cfg.min_field_dec)], axis=1)
    return out


@cache
def _band_cdf(probs: tuple[float, ...]) -> np.ndarray:
    """The band-count cdf that ``rng.choice(len(probs), p=probs)`` draws
    one uniform against, normalised as that call normalises it."""
    p = np.asarray(probs, dtype=float)
    cdf = (p / p.sum()).cumsum()  # (0.1,0.2,0.3) -> (1/6,3/6,6/6)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _sample_filters(rng: np.random.Generator, cfg: GenConfig) -> tuple[bool, ...]:
    d = cfg.num_filters
    if cfg.resource_mix == "uniform":
        # one of the unordered filter pairs, equal probability
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        i, j = pairs[int(rng.integers(len(pairs)))]
        chosen = {i, j}
    else:  # nonuniform
        count = 1 + int(_band_cdf(cfg.resource_band_probs).searchsorted(rng.random(), side="right"))
        chosen = set(rng.choice(d, size=min(count, d), replace=False).tolist())
    return tuple(i in chosen for i in range(d))


def _sample_int(rng: np.random.Generator, lohi: tuple[int, int]) -> int:
    return int(rng.integers(lohi[0], lohi[1] + 1))


def target_to_tasks(target: Target, *, id_base: int = 0) -> list[ObservationTask]:
    """Split a target into its exposure tasks per its observation mode.

    Its ``n_exposures`` tasks start ``exposure + mode.sibling_gap`` apart:
    back to back in exposure-count mode, ``gap`` idle steps apart in
    cadence mode.  An empty list is a valid result when not even one
    exposure fits.
    """
    e = target.exposure_minutes
    stride = e + target.mode.sibling_gap
    return [
        ObservationTask(
            id=id_base + m,
            target_id=target.id,
            rho=target.filters_required,
            arrival=target.start_time + m * stride,
            exposure=e,
            deadline=target.fade_time,
            seq_index=m,
        )
        for m in range(target.n_exposures)
    ]


def generate_scenario(
    config: GenConfig,
    seed: int,
    *,
    sites: list[Site] | None = None,
) -> Scenario:
    """Draw one scenario: arrival stream, target properties, and tasks.

    Deterministic given (config, seed, sites).  Site equipment priorities
    are sampled uniformly in [0,1] here unless the caller provides sites
    that already carry them.  Fields are sampled under the default
    ``VisibilityConstraints``; the constraints a schedule runs under are
    the ``SchedulingContext``'s.
    """
    rng = np.random.default_rng(seed)
    grid = config.make_grid()

    if sites is None:
        base = default_sites()[: config.num_sites]
        if len(base) < config.num_sites:
            raise ScenarioError("num_sites exceeds the default site list")
        prios = rng.uniform(0.0, 1.0, size=len(base))
        sites = [replace(s, equipment_priority=float(p)) for s, p in zip(base, prios)]
    elif not sites:
        raise ScenarioError("sites: must hold at least one site")
    else:
        rng.uniform(0.0, 1.0, size=len(sites))  # keep the stream aligned

    fields = _sample_fields(rng, config, grid, sites)

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
        coord = SkyCoord(*fields[:, int(rng.integers(fields.shape[1]))])
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

def _row_template(fields: dict) -> str:
    """The text ``json.dumps(indent=1)`` gives a dict as an element of a
    top-level list, with each ``"%d"`` or ``"%s"`` value left as a bare
    %-placeholder."""
    text = json.dumps(fields, indent=1).replace('"%d"', "%d").replace('"%s"', "%s")
    return "  " + text.replace("\n", "\n  ")


_TARGET_ROW = _row_template({
    "id": "%d", "coord": {"ra": "%s", "dec": "%s"}, "filters_required": "%s",
    "start_time": "%d", "fade_time": "%d", "exposure_minutes": "%d",
    "mode": {"kind": "%s", "gap_minutes": "%d"}, "priority": "%d", "arrival_step": "%d",
})
_TASK_ROW = _row_template({
    "id": "%d", "target_id": "%d", "rho": "%s", "arrival": "%d", "exposure": "%d",
    "deadline": "%d", "seq_index": "%d",
})


def _float(x: float) -> str:
    """A float as ``json.dumps`` writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if abs(x) == math.inf:
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


@lru_cache(maxsize=256)
def _flag_list(flags: tuple[bool, ...]) -> str:
    """A row's list of booleans, at the depth of a row's fields."""
    return json.dumps([bool(b) for b in flags], indent=1).replace("\n", "\n   ")


def _rows_text(rows: list[str]) -> str:
    return "[\n" + ",\n".join(rows) + "\n ]" if rows else "[]"


def scenario_to_json(s: Scenario) -> str:
    """The scenario as ``json.dumps(obj, indent=1)`` writes its object.

    That encoder is pure Python once it indents, so only the short head
    goes through it; each target and task row is one %-template filled
    with the text ``json.dumps`` gives its values."""
    head = {
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
    }
    targets = [
        _TARGET_ROW % (
            t.id, _float(t.coord.ra), _float(t.coord.dec), _flag_list(t.filters_required),
            t.start_time, t.fade_time, t.exposure_minutes, json.dumps(t.mode.kind),
            t.mode.gap_minutes, t.priority, t.arrival_step,
        )
        for t in s.targets
    ]
    tasks = [
        _TASK_ROW % (t.id, t.target_id, _flag_list(t.rho), t.arrival, t.exposure, t.deadline, t.seq_index)
        for t in s.tasks
    ]
    return (
        json.dumps(head, indent=1)[:-2]
        + f',\n "targets": {_rows_text(targets)},\n "tasks": {_rows_text(tasks)},\n "seed": {s.rng_seed}\n}}'
    )


_MISSING = object()
_TARGET_INTS = ("id", "start_time", "fade_time", "exposure_minutes", "priority", "arrival_step")
_TASK_INTS = ("id", "target_id", "arrival", "exposure", "deadline", "seq_index")

#: JSON types accepted for a field of each kind
_KIND_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,), list: (list,), dict: (dict,)}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string", list: "a list",
               dict: "an object"}


def _join(path: str, key) -> str:
    if type(key) is int:
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def read_field(obj, key, path: str, kind: type, minimum=None, default=_MISSING):
    """``obj[key]``, checked to be of ``kind`` (int, float for any number,
    bool, str, list or dict) and at least ``minimum`` if one is given.

    A bool is never an int or a number, and NaN is never a number.  ``key``
    is a dict key, a list index, or None for ``obj`` itself; a missing or
    null key takes ``default`` if one is given.  A ScenarioError reads
    ``<path>: must be ...`` or ``<path>: missing field '<key>'``."""
    v = obj.get(key) if type(key) is str else obj if key is None else obj[key]
    if type(v) in _KIND_TYPES[kind] and (kind is not float or v == v) and (minimum is None or v >= minimum):
        return v
    if v is None and type(key) is str:  # no kind takes null
        if default is not _MISSING:
            return default
        if key not in obj:
            raise ScenarioError(f"{path + ': ' if path else ''}missing field {key!r}")
    want = _KIND_NAMES[kind] if minimum is None else f"{_KIND_NAMES[kind]} >= {minimum}"
    got = type(v).__name__ if type(v) in (list, dict) else repr(v)
    raise ScenarioError(f"{path if key is None else _join(path, key)}: must be {want}, got {got}")


def _rows(rows: list, path: str):
    """``(path[i], row)`` for each row of a list of JSON objects."""
    return ((f"{path}[{i}]", read_field(rows, i, path, dict)) for i in range(len(rows)))


def _flags(row: dict, key: str, path: str) -> tuple[bool, ...]:
    """A list field of JSON booleans, as a tuple."""
    flags = read_field(row, key, path, list)
    for j, b in enumerate(flags):
        if type(b) is not bool:
            read_field(flags, j, _join(path, key), bool)
    return tuple(flags)


def reject_unknown(obj: dict, allowed, path: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown fields {sorted(unknown)}")


def config_from_obj(cls, obj, path: str = ""):
    """Build the config dataclass ``cls`` from a JSON object.  Each field
    takes its kind from the type of its default; a tuple default wants a
    list of that length, which becomes a tuple.  Unknown keys are errors,
    and missing ones keep their defaults."""
    name = path or "config"
    read_field(obj, None, name, dict)
    defaults = {f.name: f.default for f in fields(cls)}
    reject_unknown(obj, defaults, name)
    kw = {}
    for key in obj:
        default = defaults[key]
        if type(default) is not tuple:
            kw[key] = read_field(obj, key, path, type(default))
            continue
        items = read_field(obj, key, path, list)
        where = _join(path, key)
        if len(items) != len(default):
            raise ScenarioError(f"{where}: must be a list of {len(default)} values, got {len(items)}")
        kw[key] = tuple(read_field(items, j, where, type(d)) for j, d in enumerate(default))
    return cls(**kw)


def _epoch(text: str, name: str) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ScenarioError(f"{name}: must be an ISO 8601 time, got {text!r}") from None


def scenario_from_json(text: str) -> Scenario:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    read_field(obj, None, "scenario", dict)
    version = read_field(obj, "version", "", int)
    if version != SCENARIO_FORMAT_VERSION:
        raise ScenarioError(f"version mismatch: file has {version}, expected {SCENARIO_FORMAT_VERSION}")
    g = read_field(obj, "grid", "", dict)
    grid = TimeGrid(
        epoch_utc=_epoch(read_field(g, "epoch_utc", "grid", str), "grid.epoch_utc"),
        step_minutes=read_field(g, "step_minutes", "grid", int, 1),
        horizon_steps=read_field(g, "horizon_steps", "grid", int, 1),
    )
    sites = _sites_from_obj(read_field(obj, "sites", "", list))
    rows = read_field(obj, "targets", "", list)
    targets = tuple(_target(rows, i) for i in range(len(rows)))
    rows = read_field(obj, "tasks", "", list)
    tasks = tuple(_task(rows, i) for i in range(len(rows)))
    return Scenario(
        grid=grid,
        sites=tuple(sites),
        num_filters=read_field(obj, "num_filters", "", int, 1),
        targets=targets,
        tasks=tasks,
        rng_seed=read_field(obj, "seed", "", int),
    )


# A target or task row is read with one type test over its values; only
# a row that fails it takes the field-by-field reads, whose error names
# the field.  ``type(v) is int`` turns a bool away, as ``read_field`` does.
_TARGET_VALUES = itemgetter(
    "id", "coord", "filters_required", "start_time", "fade_time", "exposure_minutes", "mode", "priority",
    "arrival_step",
)
_TARGET_TYPES = (int, dict, list, int, int, int, dict, int, int)
_TASK_VALUES = itemgetter("id", "target_id", "rho", "arrival", "exposure", "deadline", "seq_index")
_TASK_TYPES = (int, int, list, int, int, int, int)
_BOOL = {bool}


def _target(rows: list, i: int) -> Target:
    """The target of row ``i``."""
    try:
        v = tid, coord, filters, start, fade, exposure, mode, priority, arrival = _TARGET_VALUES(rows[i])
        fast = tuple(map(type, v)) == _TARGET_TYPES and _BOOL.issuperset(map(type, filters))
        if fast:
            ra, dec, kind, gap = coord["ra"], coord["dec"], mode["kind"], mode["gap_minutes"]
            fast = (type(ra), type(dec), type(kind), type(gap)) == (float, float, str, int)
            fast = fast and -90.0 <= dec <= 90.0 and 0.0 <= ra < 360.0  # and so not NaN
    except (KeyError, TypeError):  # a missing field, or a row that is not an object
        fast = False
    path = f"targets[{i}]"
    if fast:
        filters = tuple(filters)
    else:
        row = read_field(rows, i, "targets", dict)
        coord = read_field(row, "coord", path, dict)
        dec = read_field(coord, "dec", path + ".coord", float)
        ra = read_field(coord, "ra", path + ".coord", float)
        if not -90.0 <= dec <= 90.0:
            raise ScenarioError(f"{path}: dec out of range")
        if not 0.0 <= ra < 360.0:
            raise ScenarioError(f"{path}: ra out of range")
        mode = read_field(row, "mode", path, dict)
        kind = read_field(mode, "kind", path + ".mode", str)
        gap = read_field(mode, "gap_minutes", path + ".mode", int, default=0)
        tid, start, fade, exposure, priority, arrival = (read_field(row, key, path, int) for key in _TARGET_INTS)
        filters = _flags(row, "filters_required", path)
    try:
        return Target(tid, SkyCoord(ra, dec), filters, start, fade, exposure, ObsMode(kind, gap), priority, arrival)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _task(rows: list, i: int) -> ObservationTask:
    """The task of row ``i``."""
    try:
        v = tid, target_id, rho, arrival, exposure, deadline, seq = _TASK_VALUES(rows[i])
        fast = tuple(map(type, v)) == _TASK_TYPES and _BOOL.issuperset(map(type, rho))
    except (KeyError, TypeError):  # a missing field, or a row that is not an object
        fast = False
    if fast:
        rho = tuple(rho)
    else:
        row = read_field(rows, i, "tasks", dict)
        path = f"tasks[{i}]"
        tid, target_id, arrival, exposure, deadline, seq = (read_field(row, key, path, int) for key in _TASK_INTS)
        rho = _flags(row, "rho", path)
    try:
        return ObservationTask(tid, target_id, rho, arrival, exposure, deadline, seq)
    except ScenarioError as exc:
        raise ScenarioError(f"tasks[{i}]: {exc}") from exc


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(scenario_to_json(s))


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_json(fh.read())
