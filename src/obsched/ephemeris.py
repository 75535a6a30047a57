"""Observability geometry: sidereal time, target altitude, airmass, solar
position, and per-site visibility windows on a discrete minute grid.

All formulas are standard low-precision closed forms (Meeus-style GMST
polynomial, Kasten & Young 1989 relative airmass, mean-element solar
ephemeris).  Accuracy is far inside the coarse thresholds that matter for
scheduling (degrees, not arcseconds).  Everything here is a pure function
of immutable inputs and safe to call concurrently.

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
sites, or a predicate that is not monotone, take a walk over the dark
steps instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

__all__ = [
    "UNOBSERVABLE",
    "SkyCoord",
    "GeoCoord",
    "TimeGrid",
    "VisibilityConstraints",
    "VisibilityWindow",
    "julian_date",
    "gmst_degrees",
    "local_sidereal_time",
    "altitude",
    "airmass",
    "sun_equatorial",
    "sun_altitude",
    "visibility_mask",
    "visibility_masks_multi",
    "visibility_windows",
    "SiteSky",
    "site_skies",
    "sky_coverage",
]

#: Airmass sentinel for altitudes at or below the horizon cutoff.  Using
#: +inf means "airmass <= limit" naturally rejects unobservable steps.
UNOBSERVABLE = math.inf

#: steps per block of the coverage walk in ``sky_coverage``
COVERAGE_BLOCK = 60

#: sidereal degrees per mean solar day (the GMST polynomial's rate)
_SIDEREAL_DEG_PER_DAY = 360.98564736629

_J2000 = datetime(2000, 1, 1, 12, 0, 0, tzinfo=timezone.utc)
_JD_J2000 = 2451545.0
_DEG = math.pi / 180.0


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

    def time_at(self, step: float) -> datetime:
        return self.epoch_utc + timedelta(minutes=float(step) * self.step_minutes)


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


def julian_date(when: datetime) -> float:
    """Julian date of a (timezone-aware, UTC) instant."""
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return _JD_J2000 + (when - _J2000).total_seconds() / 86400.0


def gmst_degrees(when: datetime) -> float:
    """Greenwich mean sidereal time in degrees, standard IAU-1982 polynomial."""
    d = julian_date(when) - _JD_J2000
    t = d / 36525.0
    gmst = (
        280.46061837
        + _SIDEREAL_DEG_PER_DAY * d
        + 0.000387933 * t * t
        - t * t * t / 38710000.0
    )
    return gmst % 360.0


def local_sidereal_time(
    epoch_utc: datetime, step_index: float, site: GeoCoord, *, step_minutes: int = 1
) -> float:
    """Apparent local sidereal time, degrees in [0, 360), at a grid instant.

    ``step_index`` counts ``step_minutes`` intervals from ``epoch_utc``;
    the site's east longitude is added to GMST.
    """
    when = epoch_utc + timedelta(minutes=float(step_index) * step_minutes)
    return (gmst_degrees(when) + site.lon) % 360.0


def altitude(target: SkyCoord, site: GeoCoord, lst_degrees: float) -> float:
    """Target altitude in degrees for a given local sidereal time.

    sin(alt) = sin(lat) sin(dec) + cos(lat) cos(dec) cos(HA), HA = LST - RA.
    """
    ha = (lst_degrees - target.ra) * _DEG
    lat = site.lat * _DEG
    dec = target.dec * _DEG
    s = math.sin(lat) * math.sin(dec) + math.cos(lat) * math.cos(dec) * math.cos(ha)
    return math.degrees(math.asin(min(1.0, max(-1.0, s))))


def airmass(alt_degrees: float, *, min_altitude_deg: float = 5.0) -> float:
    """Kasten & Young (1989) relative airmass; UNOBSERVABLE below the cutoff.

    X = 1 / (sin(alt) + 0.50572 (alt_deg + 6.07995)^-1.6364), taken at the
    horizon (alt 0, X = 37.92) for any altitude below it.
    """
    if alt_degrees <= min_altitude_deg:
        return UNOBSERVABLE
    a = max(alt_degrees, 0.0)
    return 1.0 / (math.sin(a * _DEG) + 0.50572 * (a + 6.07995) ** (-1.6364))


def sun_equatorial(when: datetime) -> SkyCoord:
    """Low-precision solar RA/dec from mean anomaly and ecliptic longitude.

    Mean-element model (Meeus ch. 25, truncated); good to a few arcminutes,
    orders of magnitude tighter than the twilight thresholds it feeds.
    """
    t = (julian_date(when) - _JD_J2000) / 36525.0
    # mean anomaly and mean longitude, degrees
    m = math.radians((357.52911 + 35999.05029 * t) % 360.0)
    l0 = (280.46646 + 36000.76983 * t) % 360.0
    # equation of center -> apparent ecliptic longitude
    c = (
        (1.914602 - 0.004817 * t) * math.sin(m)
        + (0.019993 - 0.000101 * t) * math.sin(2 * m)
        + 0.000289 * math.sin(3 * m)
    )
    lam = math.radians((l0 + c) % 360.0)
    eps = math.radians(23.439291 - 0.0130042 * t)
    ra = math.degrees(math.atan2(math.cos(eps) * math.sin(lam), math.cos(lam))) % 360.0
    dec = math.degrees(math.asin(math.sin(eps) * math.sin(lam)))
    return SkyCoord(ra=ra, dec=dec)


def sun_altitude(
    epoch_utc: datetime, step_index: float, site: GeoCoord, *, step_minutes: int = 1
) -> float:
    """Sun altitude in degrees at a grid instant for a site."""
    when = epoch_utc + timedelta(minutes=float(step_index) * step_minutes)
    sun = sun_equatorial(when)
    lst = local_sidereal_time(epoch_utc, step_index, site, step_minutes=step_minutes)
    return altitude(sun, site, lst)


def _step_jds(grid: TimeGrid) -> np.ndarray:
    jd0 = julian_date(grid.epoch_utc)
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


def _target_mask(
    ra: np.ndarray,
    dec: np.ndarray,
    lat_deg: float,
    lst: np.ndarray,
    constraints: VisibilityConstraints,
) -> tuple[np.ndarray, np.ndarray]:
    """Target part of the visibility predicate, sun aside.

    ``lst`` is one row of steps shared by all targets, or an
    (n_targets, k) matrix giving each target its own steps.  Returns
    ``(mask, airmass)`` of shape (n_targets, k): the target is above the
    altitude cutoff and within the airmass limit.  Every element depends
    on its own (target, step) inputs only, so evaluating any subset of
    steps gives the same values as evaluating them all.
    """
    alt = _altitude_vec(ra[:, None], dec[:, None], lat_deg, lst if lst.ndim == 2 else lst[None, :])
    am = np.full(alt.shape, UNOBSERVABLE)
    above = alt > constraints.min_altitude_deg
    if above.any():
        a = np.maximum(alt[above], 0.0)  # as ``airmass``: the horizon's below it
        am[above] = 1.0 / (np.sin(np.radians(a)) + 0.50572 * (a + 6.07995) ** (-1.6364))
    return above & (am <= constraints.max_airmass), am


@dataclass(frozen=True)
class SiteSky:
    """The target-independent sky of one site over one grid.

    ``lst`` is the local sidereal time of every step and ``dark`` marks
    the steps whose sun altitude meets the constraint; ``dark_steps`` and
    ``dark_lst`` are the same restricted to the dark steps.  ``lst_step``
    is how far the local sidereal time advances per step, in degrees.
    """

    lat: float
    lst: np.ndarray
    dark: np.ndarray
    dark_steps: np.ndarray
    dark_lst: np.ndarray
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
        steps = np.flatnonzero(dark)
        out.append(SiteSky(site.lat, lst, dark, steps, lst[steps], lst_step))
    return out


def visibility_masks_multi(
    ra: np.ndarray,
    dec: np.ndarray,
    site: GeoCoord,
    grid: TimeGrid,
    constraints: VisibilityConstraints = VisibilityConstraints(),
) -> tuple[np.ndarray, np.ndarray]:
    """Observability of many targets from one site at once.

    Returns ``(mask, airmass)`` of shape (n_targets, horizon_steps); the
    sidereal clock and sun position are computed once per call.
    """
    (sky,) = site_skies([site], grid, constraints)
    ra = np.atleast_1d(np.asarray(ra, dtype=np.float64))
    dec = np.atleast_1d(np.asarray(dec, dtype=np.float64))
    mask, am = _target_mask(ra, dec, sky.lat, sky.lst, constraints)
    return mask & sky.dark[None, :], am


#: Kasten-Young airmass at the zenith, 4e-8 above its minimum
_ZENITH_AIRMASS = airmass(90.0)


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
    steps = sky.dark_steps[: np.searchsorted(sky.dark_steps, horizon_steps)]
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
    m, _ = _target_mask(ra, dec, sky.lat, sky.lst[cand], constraints)
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
    non-monotone predicate -- the horizon is walked in blocks of
    ``COVERAGE_BLOCK`` steps, and a target is evaluated on a block only
    while it can still change a flag:

    - ``full`` turns False at the first block holding a step that no site
      observes, i.e. only where the union is False; a target that
      reaches the end was observed at every step.
    - ``some`` turns True at the first observed step; a target still
      False at the end was evaluated on every dark step of every site.
    """
    ra = np.asarray(ra, dtype=np.float64)
    dec = np.asarray(dec, dtype=np.float64)
    if len(skies) == 1 and _monotone_in_altitude(constraints):
        full, some = _one_site_coverage(ra, dec, skies[0], horizon_steps, constraints)
        return full, (some if want_some else None)
    full = np.ones(ra.size, dtype=bool)
    some = np.zeros(ra.size, dtype=bool)
    for b0 in range(0, horizon_steps, COVERAGE_BLOCK):
        rows = np.flatnonzero(full | ~some if want_some else full)
        if not rows.size:
            break
        b1 = min(b0 + COVERAGE_BLOCK, horizon_steps)
        cover = np.zeros((rows.size, b1 - b0), dtype=bool)
        ra_r, dec_r = ra[rows], dec[rows]
        for sky in skies:
            i0, i1 = np.searchsorted(sky.dark_steps, (b0, b1))
            if i1 > i0:
                m, _ = _target_mask(ra_r, dec_r, sky.lat, sky.dark_lst[i0:i1], constraints)
                cover[:, sky.dark_steps[i0:i1] - b0] |= m
        full[rows] &= cover.all(axis=1)
        some[rows] |= cover.any(axis=1)
    return full, (some if want_some else None)


def visibility_mask(
    target: SkyCoord,
    site: GeoCoord,
    grid: TimeGrid,
    constraints: VisibilityConstraints = VisibilityConstraints(),
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step observability of a target from a site.

    Returns ``(mask, airmass)`` arrays of length ``horizon_steps``: a boolean
    visibility predicate per step and the airmass value at each step
    (UNOBSERVABLE where the target is at or below the altitude cutoff).
    The predicate of step ``k`` is evaluated at the instant the step begins.
    """
    mask, am = visibility_masks_multi(
        np.array([target.ra]), np.array([target.dec]), site, grid, constraints
    )
    return mask[0], am[0]


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
    mask, am = visibility_mask(target, site, grid, constraints)
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
