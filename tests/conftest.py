"""Shared fixtures: hand-built scenarios whose targets ride the local
meridian, so visibility is guaranteed for the whole horizon and tests can
exercise pure scheduling logic under the real predicate."""
from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from ephemeris_reference import local_sidereal_time
from obsched.ephemeris import (
    GeoCoord,
    SkyCoord,
    TimeGrid,
    VisibilityConstraints,
    visibility_masks_multi,
)
from obsched.scenario import (
    CADENCE,
    EXPOSURE_COUNT,
    ObsMode,
    ObservationTask,
    Scenario,
    Site,
    Target,
)
from obsched.schedule import SchedulingContext

# midwinter midnight at Greenwich: the sun sits far below -12 deg all night
EPOCH = datetime(2025, 6, 21, 0, 0, tzinfo=timezone.utc)


def toy_scenario(
    task_specs,
    n_sites: int = 1,
    horizon: int = 60,
    num_filters: int = 3,
    cadence_gaps: dict[int, int] | None = None,
):
    """Build a scenario from explicit task tuples.

    ``task_specs``: list of (arrival, exposure, rho) or
    (arrival, exposure, rho, deadline) or
    (arrival, exposure, rho, deadline, target_key).  Tasks sharing a
    target_key become siblings (seq order = listing order); a target_key
    present in ``cadence_gaps`` puts that target in cadence mode with the
    given gap.  Targets sit on the mid-horizon meridian at the site
    latitude, so every step of the horizon is observable.
    """
    cadence_gaps = cadence_gaps or {}
    grid = TimeGrid(epoch_utc=EPOCH, step_minutes=1, horizon_steps=horizon)
    lat = 0.0
    sites = tuple(
        Site(name=f"s{i}", coord=GeoCoord(lat, (i * 0.5) % 360 - 0.0), equipment_priority=1.0 - 0.1 * i)
        for i in range(n_sites)
    )
    ra_mid = local_sidereal_time(EPOCH, horizon // 2, sites[0].coord)

    per_target: dict[int, list[tuple]] = {}
    order: list[int] = []
    for idx, spec in enumerate(task_specs):
        a, e, rho = spec[0], spec[1], tuple(spec[2])
        dl = spec[3] if len(spec) > 3 and spec[3] is not None else horizon
        key = spec[4] if len(spec) > 4 else idx
        if key not in per_target:
            per_target[key] = []
            order.append(key)
        per_target[key].append((a, e, rho, dl))

    targets, tasks = [], []
    for tgt_id, key in enumerate(order):
        rows = per_target[key]
        start = min(a for a, _, _, _ in rows)
        fade = max(dl for _, _, _, dl in rows)
        rho0 = rows[0][2]
        mode = (
            ObsMode(CADENCE, cadence_gaps[key]) if key in cadence_gaps else ObsMode(EXPOSURE_COUNT)
        )
        targets.append(
            Target(
                id=tgt_id,
                coord=SkyCoord(ra_mid, lat),
                filters_required=rho0 if any(rho0) else tuple([True] + [False] * (num_filters - 1)),
                start_time=start,
                fade_time=fade,
                exposure_minutes=rows[0][1],
                mode=mode,
                priority=1,
                arrival_step=start,
            )
        )
        for seq, (a, e, rho, dl) in enumerate(rows):
            tasks.append(
                ObservationTask(
                    id=len(tasks),
                    target_id=tgt_id,
                    rho=rho,
                    arrival=a,
                    exposure=e,
                    deadline=dl,
                    seq_index=seq,
                )
            )
    return Scenario(
        grid=grid,
        sites=sites,
        num_filters=num_filters,
        targets=tuple(targets),
        tasks=tuple(tasks),
        rng_seed=0,
    )


def transit_context(task_specs, transits, n_sites: int = 1, west_deg: float | None = None) -> SchedulingContext:
    """``toy_scenario`` with target ``k`` moved to transit site 0 at step
    ``transits[k]``, seen above 85 deg only: an equatorial target seen from
    the equator stands at 90 - |hour angle| deg, so it is visible for the
    ~40 steps around its transit.  ``west_deg`` moves site 1 that far west
    of site 0, so that each target transits it 4 steps per degree later."""
    s = toy_scenario(task_specs, n_sites=n_sites)
    if west_deg is not None:
        s = replace(s, sites=(s.sites[0], replace(s.sites[1], coord=GeoCoord(0.0, -west_deg))) + s.sites[2:])
    targets = tuple(
        replace(t, coord=SkyCoord(local_sidereal_time(EPOCH, b, s.sites[0].coord), 0.0))
        for t, b in zip(s.targets, transits)
    )
    return SchedulingContext(replace(s, targets=targets), VisibilityConstraints(min_altitude_deg=85.0))


def visible_steps(scenario, constraints: VisibilityConstraints) -> np.ndarray:
    """Observability per (target, site, step), straight from the
    ephemeris: the reference the context's window index is checked
    against."""
    ra = np.array([t.coord.ra for t in scenario.targets])
    dec = np.array([t.coord.dec for t in scenario.targets])
    out = np.zeros((len(ra), len(scenario.sites), scenario.grid.horizon_steps), dtype=bool)
    if len(ra):
        for si, site in enumerate(scenario.sites):
            out[:, si] = visibility_masks_multi(ra, dec, site.coord, scenario.grid, constraints)[0]
    return out


def run_lengths(vis: np.ndarray) -> np.ndarray:
    """Per step, how many consecutive steps from it on are visible,
    counted one step at a time from the end of the horizon."""
    out = np.zeros(vis.shape[:-1] + (vis.shape[-1] + 1,), dtype=np.int64)
    for t in range(vis.shape[-1] - 1, -1, -1):
        out[..., t] = np.where(vis[..., t], out[..., t + 1] + 1, 0)
    return out[..., :-1]


def run_left(ctx) -> np.ndarray:
    """``run_lengths`` of ``visible_steps`` per (target, site, step): the
    whole-horizon visibility table a context does not build, as the
    tests' reference for its window index."""
    return run_lengths(visible_steps(ctx.scenario, ctx.constraints))


def fits_at(pl, row: int, site: int, start: int) -> bool:
    """The point check of a ``Placement``: whether the task fits
    statically at (site, start) with all its filters free for the whole
    exposure, release aside.  The package asks ``pl.fit(row, site,
    start) == start`` instead; this is the tests' reference for it."""
    ctx = pl.ctx
    if ctx.fits_statically(row, site, start) is not None:
        return False
    e = int(ctx.exposure[row])
    return not pl.profile[site][ctx.rho_idx[row], start : start + e].any()


U = (True, False, False)
G = (False, True, False)
I = (False, False, True)
UG = (True, True, False)
UGI = (True, True, True)


@pytest.fixture
def three_task_scenario():
    """Three single-filter tasks on different filters: all can run at arrival."""
    return toy_scenario([(5, 10, U), (5, 10, G), (5, 10, I)])
