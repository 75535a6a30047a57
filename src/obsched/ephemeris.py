"""Observability geometry: sidereal time, target altitude, airmass, solar
position, and per-site visibility windows on a discrete minute grid.

All formulas are standard low-precision closed forms (Meeus-style GMST
polynomial, Kasten & Young 1989 relative airmass, mean-element solar
ephemeris).  Accuracy is far inside the coarse thresholds that matter for
scheduling (degrees, not arcseconds).  Everything here is a pure function
of immutable inputs and safe to call concurrently.

Each formula has one implementation, over numpy arrays: the Julian date
of every grid step (``_step_jds``), GMST (``_gmst_vec``), altitude
(``_altitude_vec``), Kasten-Young airmass (``_kasten_young``) and the
sun's position (``_sun_radec_vec``, Meeus ch. 25).  Local sidereal time
and darkness are read from ``site_skies``.

The sky of one (site, grid) pair -- local sidereal time and the dark
steps, where the sun is low enough -- does not depend on the targets.
``site_skies`` computes it once for many sites (the sun position once for
all of them), and ``sky_coverage`` then tests many targets against it,
with the same result as the union of ``visibility_masks_multi`` over the
sites.  For one site it needs only a few steps per dark run: a target's
altitude is a monotone function of cos(hour angle) (Meeus, *Astronomical
Algorithms*, 2nd ed., ch. 13), so over a run shorter than a sidereal day
its extremes lie at the run's ends or next to a culmination.  That holds
for the visibility predicate only while it is monotone in altitude, which
``VisibilityConstraints`` can break (see ``_monotone_in_altitude``); several
sites, or a predicate that is not monotone, take two passes instead: every
``COVERAGE_STRIDE``-th step for all targets, the step with the fewest dark
sites first, then the other steps for the targets the first pass left
undecided.  Each target's flags are an AND and an OR over steps whose
values depend on that (target, step) alone, so the order of the steps and
the dropping of decided targets between them cannot change a flag.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

__all__ = [
    "UNOBSERVABLE",
    "SkyCoord",
    "GeoCoord",
    "TimeGrid",
    "VisibilityConstraints",
    "VisibilityWindow",
    "visibility_masks_multi",
    "visibility_windows",
    "SiteSky",
    "site_skies",
    "sky_coverage",
]

#: Airmass sentinel for altitudes at or below the horizon cutoff.  Using
#: +inf means "airmass <= limit" naturally rejects unobservable steps.
UNOBSERVABLE = math.inf

#: ``sky_coverage``'s first pass evaluates every this many horizon steps
COVERAGE_STRIDE = 60

#: the most candidate fields field sampling decides in one ``sky_coverage``
#: call (a single round of more fields goes alone)
COVERAGE_MAX_FIELDS = 4096

#: sidereal degrees per mean solar day (the GMST polynomial's rate)
_SIDEREAL_DEG_PER_DAY = 360.98564736629

_J2000 = datetime(2000, 1, 1, 12, 0, 0, tzinfo=timezone.utc)
_JD_J2000 = 2451545.0


@dataclass(frozen=True)
class SkyCoord:
    """Equatorial target coordinates in degrees.

    ``ra`` wraps modulo 360 and ``dec`` is clamped to [-90, +90] at
    construction, so every instance is valid by invariant.
    """

    ra: float
    dec: float

    def __post_init__(self):
        object.__setattr__(self, "ra", float(self.ra) % 360.0)
        object.__setattr__(self, "dec", float(min(90.0, max(-90.0, self.dec))))


@dataclass(frozen=True)
class GeoCoord:
    """Geographic site coordinates, east-positive longitude in (-180, 180]."""

    lat: float
    lon: float
    altitude_m: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"lat out of range: {self.lat}")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError(f"lon out of range: {self.lon}")


@dataclass(frozen=True)
class TimeGrid:
    """Discrete scheduling clock: integer steps of ``step_minutes`` from
    ``epoch_utc``.  All scheduling times are grid indices in
    [0, horizon_steps]."""

    epoch_utc: datetime
    step_minutes: int = 1
    horizon_steps: int = 240

    def __post_init__(self):
        if self.epoch_utc.tzinfo is None:
            object.__setattr__(self, "epoch_utc", self.epoch_utc.replace(tzinfo=timezone.utc))
        if self.step_minutes < 1:
            raise ValueError("step_minutes must be >= 1")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")


@dataclass(frozen=True)
class VisibilityConstraints:
    """Thresholds of the per-step visibility predicate.

    A step counts as observable when the target sits above
    ``min_altitude_deg``, its airmass is at most ``max_airmass``, and the
    sun is at or below ``max_sun_altitude_deg`` (nautical twilight by
    default).
    """

    max_airmass: float = 3.0
    min_altitude_deg: float = 5.0
    max_sun_altitude_deg: float = -12.0

    def __post_init__(self):
        # an input limit only: airmass is taken at max(alt, 0), so the
        # Kasten-Young pole at this altitude is never reached
        if not self.min_altitude_deg >= -6.07995:
            raise ValueError(f"min_altitude_deg must be >= -6.07995, got {self.min_altitude_deg!r}")


@dataclass(frozen=True)
class VisibilityWindow:
    """Maximal run of consecutive observable steps, half-open [start, end)."""

    site_index: int
    start_step: int
    end_step: int
    min_airmass_in_window: float


def _step_jds(grid: TimeGrid) -> np.ndarray:
    jd0 = _JD_J2000 + (grid.epoch_utc - _J2000).total_seconds() / 86400.0
    steps = np.arange(grid.horizon_steps, dtype=np.float64)
    return jd0 + steps * (grid.step_minutes / 1440.0)


def _gmst_vec(jd: np.ndarray) -> np.ndarray:
    d = jd - _JD_J2000
    t = d / 36525.0
    return (280.46061837 + _SIDEREAL_DEG_PER_DAY * d + 0.000387933 * t * t - t**3 / 38710000.0) % 360.0


def _altitude_vec(ra: np.ndarray, dec: np.ndarray, lat_deg: float, lst: np.ndarray) -> np.ndarray:
    ha = np.radians(lst - ra)
    lat = math.radians(lat_deg)
    dec_r = np.radians(dec)
    s = math.sin(lat) * np.sin(dec_r) + math.cos(lat) * np.cos(dec_r) * np.cos(ha)
    return np.degrees(np.arcsin(np.clip(s, -1.0, 1.0)))


def _kasten_young(a):
    """Kasten & Young (1989) relative airmass at altitude ``a`` degrees,
    X = 1 / (sin(a) + 0.50572 (a + 6.07995)^-1.6364).  Callers pass
    max(alt, 0): below the horizon the airmass is the horizon's, 37.92."""
    return 1.0 / (np.sin(np.radians(a)) + 0.50572 * (a + 6.07995) ** (-1.6364))


def _sun_radec_vec(jd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = (jd - _JD_J2000) / 36525.0
    m = np.radians((357.52911 + 35999.05029 * t) % 360.0)
    l0 = (280.46646 + 36000.76983 * t) % 360.0
    c = (
        (1.914602 - 0.004817 * t) * np.sin(m)
        + (0.019993 - 0.000101 * t) * np.sin(2 * m)
        + 0.000289 * np.sin(3 * m)
    )
    lam = np.radians((l0 + c) % 360.0)
    eps = np.radians(23.439291 - 0.0130042 * t)
    ra = np.degrees(np.arctan2(np.cos(eps) * np.sin(lam), np.cos(lam))) % 360.0
    dec = np.degrees(np.arcsin(np.sin(eps) * np.sin(lam)))
    return ra, dec


def _target_airmass(ra, dec, lat_deg: float, lst: np.ndarray, constraints: VisibilityConstraints):
    """Target part of the visibility predicate, sun aside, as ``(above,
    airmass)``: a boolean (n_targets, k) array of the cells above the
    altitude cutoff, and the airmass of those cells alone, in row-major
    order (the others' is UNOBSERVABLE, and is not computed).

    ``lst`` is one row of steps shared by all targets, or an
    (n_targets, k) matrix giving each target its own steps.  Every
    element depends on its own (target, step) inputs only, so evaluating
    any subset of cells gives the same values as evaluating them all.
    """
    alt = _altitude_vec(ra[:, None], dec[:, None], lat_deg, lst if lst.ndim == 2 else lst[None, :])
    above = alt > constraints.min_altitude_deg
    return above, _kasten_young(np.maximum(alt[above], 0.0))


def _target_mask(ra, dec, lat_deg: float, lst: np.ndarray, constraints: VisibilityConstraints) -> np.ndarray:
    """The target predicate, sun aside: the cells above the cutoff within the airmass limit."""
    above, am = _target_airmass(ra, dec, lat_deg, lst, constraints)
    above[above] = am <= constraints.max_airmass
    return above


@dataclass(frozen=True)
class SiteSky:
    """The target-independent sky of one site over one grid.

    ``lst`` is the local sidereal time of every step and ``dark`` marks
    the steps whose sun altitude meets the constraint.  ``lst_step`` is
    how far the local sidereal time advances per step, in degrees.
    """

    lat: float
    lst: np.ndarray
    dark: np.ndarray
    lst_step: float


def site_skies(
    sites: list[GeoCoord],
    grid: TimeGrid,
    constraints: VisibilityConstraints = VisibilityConstraints(),
) -> list[SiteSky]:
    """Sidereal time and dark steps of each site; the sun position and
    GMST of the grid are computed once for all sites."""
    jd = _step_jds(grid)
    gmst = _gmst_vec(jd)
    sun_ra, sun_dec = _sun_radec_vec(jd)
    lst_step = _SIDEREAL_DEG_PER_DAY * grid.step_minutes / 1440.0
    out = []
    for site in sites:
        lst = (gmst + site.lon) % 360.0
        dark = _altitude_vec(sun_ra, sun_dec, site.lat, lst) <= constraints.max_sun_altitude_deg
        out.append(SiteSky(site.lat, lst, dark, lst_step))
    return out


def visibility_masks_multi(
    ra: np.ndarray,
    dec: np.ndarray,
    site: GeoCoord,
    grid: TimeGrid,
    constraints: VisibilityConstraints = VisibilityConstraints(),
) -> tuple[np.ndarray, np.ndarray]:
    """Observability of many targets from one site at once.

    Returns ``(mask, airmass)`` of shape (n_targets, horizon_steps): a
    boolean visibility predicate per step and the airmass value at each
    step (UNOBSERVABLE where the target is at or below the altitude
    cutoff, and on every step where the sun is up).  The predicate of
    step ``k`` is evaluated at the instant the step begins.  The sidereal
    clock and sun position are computed once per call, and the target
    predicate on the dark steps only, its airmass on the cells above the
    cutoff only: each of its elements depends on its own (target, step)
    alone, and the mask is False on the others.
    """
    (sky,) = site_skies([site], grid, constraints)
    ra = np.atleast_1d(np.asarray(ra, dtype=np.float64))
    dec = np.atleast_1d(np.asarray(dec, dtype=np.float64))
    dark = np.flatnonzero(sky.dark)
    above = np.zeros((ra.size, grid.horizon_steps), dtype=bool)
    above[:, dark], am_above = _target_airmass(ra, dec, sky.lat, sky.lst[dark], constraints)
    am = np.full(above.shape, UNOBSERVABLE)
    am[above] = am_above  # row-major over the dark steps is row-major over all
    return above & (am <= constraints.max_airmass), am


#: Kasten-Young airmass at the zenith, 4e-8 above its minimum
_ZENITH_AIRMASS = float(_kasten_young(90.0))


def _monotone_in_altitude(constraints: VisibilityConstraints) -> bool:
    """Is the target predicate an upper set in altitude -- once it holds,
    does it hold at every higher altitude too?

    Airmass is the horizon's (37.92) at and below it, falls from there to
    a minimum 0.016 deg below the zenith, and rises by 4e-8 from there to
    the zenith.  The predicate is therefore monotone when the airmass
    limit is at least the zenith value, whatever the altitude cutoff.
    """
    return constraints.max_airmass >= _ZENITH_AIRMASS


def _one_site_coverage(
    ra: np.ndarray,
    dec: np.ndarray,
    sky: SiteSky,
    horizon_steps: int,
    constraints: VisibilityConstraints,
) -> tuple[np.ndarray, np.ndarray]:
    """``(full, some)`` of ``sky_coverage`` for one site, from at most 10
    steps per piece of each dark run.

    A dark run is cut into pieces of fewer than 360 deg of hour angle,
    so a piece holds at most one upper (HA 0) and one lower (HA 180)
    culmination.  Between them the altitude is monotone in the step, so
    its extremes on the piece lie at the piece's ends or on the two steps
    around a culmination; the culmination step is found from the piece's
    first LST at ``lst_step`` per step, and one step either side of that
    pair absorbs its rounding.  A monotone predicate holds at some step
    iff it holds at the highest one, and at every step iff at the lowest.
    """
    steps = np.flatnonzero(sky.dark[:horizon_steps])
    if not steps.size:
        return np.zeros(ra.size, dtype=bool), np.zeros(ra.size, dtype=bool)
    per_piece = max(1, int(360.0 / sky.lst_step))
    # a piece starts at each run's first step and every per_piece steps after
    idx = np.arange(steps.size)
    run_start = np.maximum.accumulate(np.where(np.diff(steps, prepend=-2) > 1, idx, 0))
    first = np.flatnonzero((idx - run_start) % per_piece == 0)
    s0 = steps[first]
    s1 = steps[np.append(first[1:], steps.size) - 1]
    ha0 = sky.lst[s0][None, :] - ra[:, None]  # (targets, pieces)
    upper = np.floor(s0 + (-ha0 % 360.0) / sky.lst_step)
    lower = np.floor(s0 + ((180.0 - ha0) % 360.0) / sky.lst_step)
    near = np.arange(-1, 3)
    cand = np.concatenate(
        [np.broadcast_to(np.stack([s0, s1], axis=1), ha0.shape + (2,)),
         upper[..., None] + near, lower[..., None] + near],
        axis=2,
    )
    cand = np.clip(cand, s0[:, None], s1[:, None]).astype(np.intp).reshape(ra.size, -1)
    m = _target_mask(ra, dec, sky.lat, sky.lst[cand], constraints)
    return m.all(axis=1) & (steps.size == horizon_steps), m.any(axis=1)


def sky_coverage(
    ra: np.ndarray,
    dec: np.ndarray,
    skies: list[SiteSky],
    horizon_steps: int,
    constraints: VisibilityConstraints = VisibilityConstraints(),
    *,
    want_some: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per target: ``(full, some)`` -- is every step of the horizon, and
    is some step, observable from at least one site?

    Equal to ``union.all(axis=1)`` and ``union.any(axis=1)``, where
    ``union`` ORs the sites' ``visibility_masks_multi`` masks; ``some`` is
    None unless ``want_some``.  A site's union entry is its target
    predicate on its dark steps and False on the others, so only dark
    steps are evaluated.

    One site, with a predicate monotone in altitude
    (``_monotone_in_altitude``): ``full`` is every horizon step dark and
    the predicate true at the lowest altitude of each dark run, ``some``
    the predicate true at the highest, and ``_one_site_coverage`` finds
    those at the run ends and culminations (Meeus ch. 13).  Otherwise --
    several sites, whose union is not a function of one altitude, or a
    non-monotone predicate -- the union is evaluated in two passes over
    disjoint step sets, each ANDed into ``full`` and ORed into ``some``:

    - pass 1 takes every target at every ``COVERAGE_STRIDE``-th step; a
      target with an unobserved step there is not ``full``, and one with
      an observed step there is ``some``.  Its steps go fewest dark sites
      first (a stable sort of the sampled steps' counts): the most
      selective step alone, then the rest for the targets it left
      undecided;
    - pass 2 takes the other steps, only for the targets pass 1 left
      undecided: ``full`` still True, or ``some`` still False when
      ``want_some``.  The others keep flags no further step can change.
    """
    ra = np.asarray(ra, dtype=np.float64)
    dec = np.asarray(dec, dtype=np.float64)
    if len(skies) == 1 and _monotone_in_altitude(constraints):
        full, some = _one_site_coverage(ra, dec, skies[0], horizon_steps, constraints)
        return full, (some if want_some else None)
    full = np.ones(ra.size, dtype=bool)
    some = np.zeros(ra.size, dtype=bool)
    every = np.arange(horizon_steps)
    sampled = every % COVERAGE_STRIDE == 0
    first = every[sampled]
    first = first[np.argsort(sum(sky.dark[first] for sky in skies), kind="stable")]
    for steps in (first[:1], first[1:], every[~sampled]):
        rows = np.flatnonzero(full | ~some if want_some else full)
        if not rows.size:
            break
        cover = np.zeros((rows.size, steps.size), dtype=bool)
        for sky in skies:
            dark = np.flatnonzero(sky.dark[steps])
            if dark.size:
                m = _target_mask(ra[rows], dec[rows], sky.lat, sky.lst[steps[dark]], constraints)
                cover[:, dark] |= m
        full[rows] &= cover.all(axis=1)
        some[rows] |= cover.any(axis=1)
    return full, (some if want_some else None)


def visibility_windows(
    target: SkyCoord,
    site: GeoCoord,
    grid: TimeGrid,
    constraints: VisibilityConstraints = VisibilityConstraints(),
    *,
    site_index: int = 0,
) -> list[VisibilityWindow]:
    """Maximal disjoint runs of observable steps, sorted by start step.

    Returns an empty list when the target is never observable; that is a
    valid result, not an error.
    """
    (mask,), (am,) = visibility_masks_multi(target.ra, target.dec, site, grid, constraints)
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False])).astype(np.int8)))
    return [
        VisibilityWindow(
            site_index=site_index,
            start_step=int(start),
            end_step=int(end),
            min_airmass_in_window=float(np.min(am[start:end])),
        )
        for start, end in zip(edges[0::2], edges[1::2])
    ]
