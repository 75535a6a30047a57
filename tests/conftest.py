"""Shared fixtures: hand-built scenarios whose targets ride the local
meridian, so visibility is guaranteed for the whole horizon and tests can
exercise pure scheduling logic under the real predicate."""
from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from obsched.ephemeris import (
    GeoCoord,
    SkyCoord,
    TimeGrid,
    VisibilityConstraints,
    local_sidereal_time,
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


def visible_steps(scenario, constraints: VisibilityConstraints) -> np.ndarray:
    """Observability per (target, site, step), straight from the
    ephemeris: the reference the context's visibility table is checked
    against."""
    ra = np.array([t.coord.ra for t in scenario.targets])
    dec = np.array([t.coord.dec for t in scenario.targets])
    out = np.zeros((len(ra), len(scenario.sites), scenario.grid.horizon_steps), dtype=bool)
    if len(ra):
        for si, site in enumerate(scenario.sites):
            out[:, si] = visibility_masks_multi(ra, dec, site.coord, scenario.grid, constraints)[0]
    return out


U = (True, False, False)
G = (False, True, False)
I = (False, False, True)
UG = (True, True, False)
UGI = (True, True, True)


@pytest.fixture
def three_task_scenario():
    """Three single-filter tasks on different filters: all can run at arrival."""
    return toy_scenario([(5, 10, U), (5, 10, G), (5, 10, I)])
