"""Sidereal time, altitude, airmass, solar position, and window extraction."""
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsched.ephemeris import (
    COVERAGE_BLOCK,
    UNOBSERVABLE,
    GeoCoord,
    SkyCoord,
    TimeGrid,
    VisibilityConstraints,
    airmass,
    altitude,
    gmst_degrees,
    local_sidereal_time,
    site_skies,
    sky_coverage,
    sun_altitude,
    visibility_mask,
    visibility_masks_multi,
    visibility_windows,
)
from obsched.scenario import default_sites

J2000 = datetime(2000, 1, 1, 12, 0, tzinfo=timezone.utc)
SIDEREAL_DAY_S = 86164.0905308


def test_gmst_at_j2000():
    # the polynomial's constant term evaluated independently at T=0
    assert gmst_degrees(J2000) == pytest.approx(280.46061837, abs=1e-9)


def test_lst_periodic_over_sidereal_day():
    site = GeoCoord(10.0, 0.0)
    e1 = datetime(2025, 6, 21, 4, 0, tzinfo=timezone.utc)
    e2 = e1 + timedelta(seconds=SIDEREAL_DAY_S)
    l1 = local_sidereal_time(e1, 0, site)
    l2 = local_sidereal_time(e2, 0, site)
    assert abs(l1 - l2) < 1e-6


def test_lst_longitude_is_additive():
    e = datetime(2024, 3, 1, 2, 30, tzinfo=timezone.utc)
    l0 = local_sidereal_time(e, 17, GeoCoord(0.0, 0.0))
    l90 = local_sidereal_time(e, 17, GeoCoord(0.0, 90.0))
    assert (l90 - l0) % 360.0 == pytest.approx(90.0, abs=1e-9)


def test_altitude_zenith_transit():
    assert altitude(SkyCoord(50.0, 35.0), GeoCoord(35.0, 0.0), 50.0) == pytest.approx(90.0)


def test_altitude_equatorial_horizon():
    assert altitude(SkyCoord(0.0, 0.0), GeoCoord(0.0, 0.0), 90.0) == pytest.approx(0.0, abs=1e-9)


def test_altitude_against_vector_oracle():
    # same configuration evaluated through 3-D unit vectors: the altitude is
    # 90 deg minus the angle between the zenith direction (ra=LST, dec=lat)
    # and the target direction
    def unit(ra, dec):
        ra, dec = math.radians(ra), math.radians(dec)
        return np.array(
            [math.cos(dec) * math.cos(ra), math.cos(dec) * math.sin(ra), math.sin(dec)]
        )

    lst, lat, ra, dec = 20.0, 30.0, 0.0, 10.0
    oracle = math.degrees(math.asin(float(np.dot(unit(lst, lat), unit(ra, dec)))))
    assert oracle == pytest.approx(62.6552019069389, abs=1e-9)  # frozen
    assert altitude(SkyCoord(ra, dec), GeoCoord(lat, 0.0), lst) == pytest.approx(oracle, abs=1e-9)


def test_altitude_wraps_in_ra_and_lst():
    t = SkyCoord(123.4, -20.0)
    site = GeoCoord(-30.0, 0.0)
    base = altitude(t, site, 77.0)
    assert altitude(SkyCoord(123.4 + 360.0, -20.0), site, 77.0) == pytest.approx(base)
    assert altitude(t, site, 77.0 + 360.0) == pytest.approx(base)


def test_airmass_zenith():
    assert airmass(90.0) == pytest.approx(1.0, abs=1e-3)


def test_airmass_below_cutoff_is_unobservable():
    assert airmass(0.5) == UNOBSERVABLE
    assert airmass(5.0) == UNOBSERVABLE  # boundary: at the cutoff counts as below


def test_airmass_at_30_degrees():
    # direct evaluation of the Kasten & Young formula, frozen
    assert airmass(30.0) == pytest.approx(1.9942928525292503, rel=1e-12)


def test_airmass_strictly_decreasing_in_altitude():
    alts = np.linspace(5.01, 90.0, 500)
    xs = [airmass(a) for a in alts]
    assert all(x1 > x2 for x1, x2 in zip(xs, xs[1:]))


def test_sun_altitude_equinox_noon_equator():
    # 2025 March equinox; apparent noon at lon 0 is ~12:07 UTC
    when = datetime(2025, 3, 20, 12, 7, tzinfo=timezone.utc)
    assert sun_altitude(when, 0, GeoCoord(0.0, 0.0)) == pytest.approx(90.0, abs=2.0)


def test_sun_altitude_antipodal_symmetry():
    when = datetime(2025, 3, 20, 12, 7, tzinfo=timezone.utc)
    a = sun_altitude(when, 0, GeoCoord(0.0, 0.0))
    b = sun_altitude(when, 0, GeoCoord(0.0, 180.0))
    assert b == pytest.approx(-a, abs=2.0)


def _sun_altitude_michalsky(when: datetime, lat: float, lon: float) -> float:
    """Independent low-precision solar position (Michalsky-style mean
    elements); only the sidereal constant is shared with the package."""
    n = (when - J2000).total_seconds() / 86400.0
    big_l = (280.460 + 0.9856474 * n) % 360.0
    g = math.radians((357.528 + 0.9856003 * n) % 360.0)
    lam = math.radians(big_l + 1.915 * math.sin(g) + 0.020 * math.sin(2 * g))
    eps = math.radians(23.439 - 0.0000004 * n)
    ra = math.degrees(math.atan2(math.cos(eps) * math.sin(lam), math.cos(lam))) % 360.0
    dec = math.degrees(math.asin(math.sin(eps) * math.sin(lam)))
    gmst_deg = (280.46061837 + 360.98564736629 * n) % 360.0
    ha = math.radians((gmst_deg + lon) % 360.0 - ra)
    latr, decr = math.radians(lat), math.radians(dec)
    s = math.sin(latr) * math.sin(decr) + math.cos(latr) * math.cos(decr) * math.cos(ha)
    return math.degrees(math.asin(s))


@pytest.mark.parametrize(
    "when,lat,lon",
    [
        (datetime(2025, 6, 21, 4, 0, tzinfo=timezone.utc), -30.24, -70.74),
        (datetime(2024, 12, 5, 18, 30, tzinfo=timezone.utc), 28.76, -17.89),
        (datetime(2026, 2, 14, 9, 15, tzinfo=timezone.utc), 38.61, 93.9),
    ],
)
def test_sun_altitude_against_independent_model(when, lat, lon):
    ours = sun_altitude(when, 0, GeoCoord(lat, lon))
    theirs = _sun_altitude_michalsky(when, lat, lon)
    assert ours == pytest.approx(theirs, abs=0.5)


def test_visibility_windows_never_visible():
    grid = TimeGrid(datetime(2025, 6, 21, 0, 0, tzinfo=timezone.utc), 1, 240)
    wins = visibility_windows(SkyCoord(0.0, -80.0), GeoCoord(60.0, 0.0), grid)
    assert wins == []


def test_visibility_windows_full_span_when_constraints_disabled():
    # dec == lat == 60: the target never drops below 30 deg altitude, and the
    # sun/airmass limits are switched off
    grid = TimeGrid(datetime(2025, 6, 21, 0, 0, tzinfo=timezone.utc), 1, 240)
    cons = VisibilityConstraints(max_airmass=math.inf, max_sun_altitude_deg=91.0)
    wins = visibility_windows(SkyCoord(10.0, 60.0), GeoCoord(60.0, 0.0), grid, cons)
    assert len(wins) == 1
    assert (wins[0].start_step, wins[0].end_step) == (0, 240)


def _per_step_predicate(target, site, grid, cons):
    """The windows' defining predicate, recomputed step by step through the
    scalar functions."""
    out = []
    for k in range(grid.horizon_steps):
        lst = local_sidereal_time(grid.epoch_utc, k, site, step_minutes=grid.step_minutes)
        alt = altitude(target, site, lst)
        x = airmass(alt, min_altitude_deg=cons.min_altitude_deg)
        sun = sun_altitude(grid.epoch_utc, k, site, step_minutes=grid.step_minutes)
        out.append(
            alt > cons.min_altitude_deg
            and x <= cons.max_airmass
            and sun <= cons.max_sun_altitude_deg
        )
    return np.array(out)


@pytest.mark.parametrize("seed", range(6))
def test_visibility_windows_match_per_step_predicate(seed):
    rng = np.random.default_rng(seed)
    target = SkyCoord(rng.uniform(0, 360), rng.uniform(-60, 60))
    site = GeoCoord(rng.uniform(-45, 45), rng.uniform(-179, 180))
    grid = TimeGrid(
        datetime(2025, 1, 1, tzinfo=timezone.utc) + timedelta(hours=float(rng.uniform(0, 8760))),
        1,
        240,
    )
    cons = VisibilityConstraints()
    mask, am = visibility_mask(target, site, grid, cons)
    expected = _per_step_predicate(target, site, grid, cons)
    assert np.array_equal(mask, expected)

    wins = visibility_windows(target, site, grid, cons)
    rebuilt = np.zeros(grid.horizon_steps, dtype=bool)
    last_end = -1
    for w in wins:
        assert w.start_step < w.end_step
        assert w.start_step > last_end  # disjoint and maximal: no touching
        last_end = w.end_step
        rebuilt[w.start_step : w.end_step] = True
        assert w.min_airmass_in_window == pytest.approx(np.min(am[w.start_step : w.end_step]))
    assert np.array_equal(rebuilt, mask)


def test_skycoord_normalization():
    c = SkyCoord(400.0, 95.0)
    assert c.ra == pytest.approx(40.0)
    assert c.dec == 90.0
    with pytest.raises(ValueError):
        GeoCoord(95.0, 0.0)
    with pytest.raises(ValueError):
        GeoCoord(0.0, 181.0)


# --- sky coverage: the dark-step, block-pruned union flags ---------------------

SITES = [s.coord for s in default_sites()]


def _brute_union(ra, dec, sites, grid, cons):
    union = np.zeros((len(ra), grid.horizon_steps), dtype=bool)
    for site in sites:
        m, _ = visibility_masks_multi(ra, dec, site, grid, cons)
        union |= m
    return union


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    site_idx=st.lists(st.integers(0, len(SITES) - 1), min_size=1, max_size=5, unique=True),
    minutes=st.integers(0, 366 * 24 * 60),
    step_minutes=st.integers(1, 5),
    horizon=st.one_of(
        st.integers(1, 3 * COVERAGE_BLOCK + 7),
        st.sampled_from([COVERAGE_BLOCK - 1, COVERAGE_BLOCK, COVERAGE_BLOCK + 1, 1440]),
    ),
    max_airmass=st.sampled_from([1.2, 2.0, 3.0, math.inf]),
    min_altitude=st.floats(-5.0, 40.0),
    max_sun=st.sampled_from([-18.0, -12.0, 0.0, 91.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sky_coverage_matches_brute_force_union(
    site_idx, minutes, step_minutes, horizon, max_airmass, min_altitude, max_sun, seed
):
    sites = [SITES[i] for i in site_idx]
    grid = TimeGrid(
        datetime(2025, 1, 1, tzinfo=timezone.utc) + timedelta(minutes=minutes), step_minutes, horizon
    )
    cons = VisibilityConstraints(max_airmass, min_altitude, max_sun)
    rng = np.random.default_rng(seed)
    ra = rng.uniform(0.0, 360.0, 40)
    dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 40)))
    union = _brute_union(ra, dec, sites, grid, cons)
    skies = site_skies(sites, grid, cons)
    full, some = sky_coverage(ra, dec, skies, horizon, cons)
    assert np.array_equal(full, union.all(axis=1))
    assert np.array_equal(some, union.any(axis=1))
    full_only, none = sky_coverage(ra, dec, skies, horizon, cons, want_some=False)
    assert none is None and np.array_equal(full_only, full)


def test_sky_coverage_tells_full_from_partial_across_blocks():
    # without sun and airmass limits a southern circumpolar target is up at
    # every step from Chile, while an equatorial one rises and sets; a
    # horizon of 2.5 blocks ends inside a partial block
    site = SITES[0]
    horizon = 2 * COVERAGE_BLOCK + COVERAGE_BLOCK // 2
    grid = TimeGrid(datetime(2025, 6, 21, tzinfo=timezone.utc), 4, horizon)
    cons = VisibilityConstraints(max_airmass=math.inf, max_sun_altitude_deg=91.0)
    ra, dec = np.array([0.0, 0.0, 0.0]), np.array([-80.0, 0.0, 80.0])
    full, some = sky_coverage(ra, dec, site_skies([site], grid, cons), horizon, cons)
    union = _brute_union(ra, dec, [site], grid, cons)
    assert full.tolist() == [True, False, False] and some.tolist() == [True, True, False]
    assert np.array_equal(full, union.all(axis=1)) and np.array_equal(some, union.any(axis=1))


@pytest.mark.parametrize("edge", ["dawn", "dusk"])
def test_sky_coverage_sees_the_last_step_of_a_block(edge):
    # a circumpolar target is observable exactly while it is dark; shift the
    # epoch so that dawn (dusk) falls on the last step of the first block,
    # leaving that one step uncovered (the only covered one)
    site = SITES[0]
    cons = VisibilityConstraints(max_airmass=math.inf)
    ra, dec = np.array([0.0]), np.array([-80.0])
    day = TimeGrid(datetime(2025, 6, 21, tzinfo=timezone.utc), 1, 1440)
    (dark,) = _brute_union(ra, dec, [site], day, cons)
    flips = np.flatnonzero(dark[:-1] & ~dark[1:] if edge == "dawn" else ~dark[:-1] & dark[1:]) + 1
    k = int(flips[flips >= COVERAGE_BLOCK][0])
    grid = TimeGrid(day.time_at(k - (COVERAGE_BLOCK - 1)), 1, COVERAGE_BLOCK)
    (union,) = _brute_union(ra, dec, [site], grid, cons)
    last = np.arange(COVERAGE_BLOCK) == COVERAGE_BLOCK - 1
    assert np.array_equal(union, ~last if edge == "dawn" else last)
    full, some = sky_coverage(ra, dec, site_skies([site], grid, cons), grid.horizon_steps, cons)
    assert full.tolist() == [False] and some.tolist() == [True]


def test_lowest_min_altitude_has_no_warning():
    import warnings

    site = default_sites()[0].coord
    grid = TimeGrid(datetime(2025, 6, 21, 0, 0, tzinfo=timezone.utc), 1, 240)
    ra, dec = np.linspace(0.0, 350.0, 36), np.linspace(-80.0, 80.0, 36)
    cons = VisibilityConstraints(min_altitude_deg=-6.0, max_airmass=np.inf, max_sun_altitude_deg=91.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask, am = visibility_masks_multi(ra, dec, site, grid, cons)
    assert mask.any() and not np.isnan(am).any()
