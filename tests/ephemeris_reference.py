"""Scalar reference forms of the ephemeris formulas, one instant and one
target at a time.

The package computes each formula once, over numpy arrays
(``obsched.ephemeris``).  These plain-``math`` forms are the tests'
independent oracle for it: the per-step visibility predicate that the
window masks must equal, and the meridian-transit coordinates of the
hand-built scenarios in conftest.py.  Meeus, *Astronomical Algorithms*
(2nd ed., 1998), ch. 12-13 and 25; Kasten & Young, *Applied Optics*
28(22), 1989.
"""
from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

from obsched.ephemeris import UNOBSERVABLE, GeoCoord, SkyCoord

_SIDEREAL_DEG_PER_DAY = 360.98564736629
_J2000 = datetime(2000, 1, 1, 12, 0, 0, tzinfo=timezone.utc)
_JD_J2000 = 2451545.0
_DEG = math.pi / 180.0


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
