"""Sidereal time, altitude, airmass, solar position, and window extraction.

The physics cases run on the package's vector forms, one element at a
time; the per-step predicate the window masks must equal is built from
the scalar reference forms in ephemeris_reference.py."""
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ephemeris_reference import airmass, altitude, local_sidereal_time, sun_altitude
from obsched.ephemeris import (
    COVERAGE_STRIDE,
    UNOBSERVABLE,
    GeoCoord,
    SkyCoord,
    TimeGrid,
    VisibilityConstraints,
    _altitude_vec,
    _kasten_young,
    _step_jds,
    _sun_radec_vec,
    site_skies,
    sky_coverage,
    visibility_masks_multi,
    visibility_windows,
)
from obsched.scenario import default_sites

J2000 = datetime(2000, 1, 1, 12, 0, tzinfo=timezone.utc)
SIDEREAL_DAY_S = 86164.0905308


def _lst(epoch: datetime, step: int, site: GeoCoord) -> float:
    """Local sidereal time at one-minute step ``step`` from ``epoch``, as ``site_skies`` gives it."""
    return float(site_skies([site], TimeGrid(epoch, 1, step + 1))[0].lst[step])


def _alt(target: SkyCoord, site: GeoCoord, lst: float) -> float:
    return float(_altitude_vec(np.array([target.ra]), np.array([target.dec]), site.lat, np.array([lst]))[0])


def _sun_alt(when: datetime, site: GeoCoord) -> float:
    """Sun altitude at ``when``, from the runtime's sun position and sidereal time."""
    grid = TimeGrid(when, 1, 1)
    ra, dec = _sun_radec_vec(_step_jds(grid))
    return float(_altitude_vec(ra, dec, site.lat, site_skies([site], grid)[0].lst)[0])


def test_gmst_at_j2000():
    # the polynomial's constant term evaluated independently at T=0; at
    # longitude 0 the local sidereal time is GMST
    assert _lst(J2000, 0, GeoCoord(0.0, 0.0)) == pytest.approx(280.46061837, abs=1e-9)


def test_lst_periodic_over_sidereal_day():
    site = GeoCoord(10.0, 0.0)
    e1 = datetime(2025, 6, 21, 4, 0, tzinfo=timezone.utc)
    e2 = e1 + timedelta(seconds=SIDEREAL_DAY_S)
    l1 = _lst(e1, 0, site)
    l2 = _lst(e2, 0, site)
    assert abs(l1 - l2) < 1e-6


def test_lst_longitude_is_additive():
    e = datetime(2024, 3, 1, 2, 30, tzinfo=timezone.utc)
    l0 = _lst(e, 17, GeoCoord(0.0, 0.0))
    l90 = _lst(e, 17, GeoCoord(0.0, 90.0))
    assert (l90 - l0) % 360.0 == pytest.approx(90.0, abs=1e-9)


def test_altitude_zenith_transit():
    assert _alt(SkyCoord(50.0, 35.0), GeoCoord(35.0, 0.0), 50.0) == pytest.approx(90.0)


def test_altitude_equatorial_horizon():
    assert _alt(SkyCoord(0.0, 0.0), GeoCoord(0.0, 0.0), 90.0) == pytest.approx(0.0, abs=1e-9)


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
    assert _alt(SkyCoord(ra, dec), GeoCoord(lat, 0.0), lst) == pytest.approx(oracle, abs=1e-9)


def test_altitude_wraps_in_ra_and_lst():
    t = SkyCoord(123.4, -20.0)
    site = GeoCoord(-30.0, 0.0)
    base = _alt(t, site, 77.0)
    assert _alt(SkyCoord(123.4 + 360.0, -20.0), site, 77.0) == pytest.approx(base)
    assert _alt(t, site, 77.0 + 360.0) == pytest.approx(base)


def test_airmass_zenith():
    assert _kasten_young(90.0) == pytest.approx(1.0, abs=1e-3)


def test_airmass_below_cutoff_is_unobservable():
    assert airmass(0.5) == UNOBSERVABLE
    assert airmass(5.0) == UNOBSERVABLE  # boundary: at the cutoff counts as below


def test_airmass_at_30_degrees():
    # direct evaluation of the Kasten & Young formula, frozen
    assert _kasten_young(30.0) == pytest.approx(1.9942928525292503, rel=1e-12)


def test_airmass_strictly_decreasing_in_altitude():
    xs = _kasten_young(np.linspace(5.01, 90.0, 500))
    assert np.all(np.diff(xs) < 0)


def test_sun_altitude_equinox_noon_equator():
    # 2025 March equinox; apparent noon at lon 0 is ~12:07 UTC
    when = datetime(2025, 3, 20, 12, 7, tzinfo=timezone.utc)
    assert _sun_alt(when, GeoCoord(0.0, 0.0)) == pytest.approx(90.0, abs=2.0)


def test_sun_altitude_antipodal_symmetry():
    when = datetime(2025, 3, 20, 12, 7, tzinfo=timezone.utc)
    a = _sun_alt(when, GeoCoord(0.0, 0.0))
    b = _sun_alt(when, GeoCoord(0.0, 180.0))
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
    ours = _sun_alt(when, GeoCoord(lat, lon))
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
    (mask,), (am,) = visibility_masks_multi(target.ra, target.dec, site, grid, cons)
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


# --- sky coverage: the dark-step union flags, decided in two passes ------------

SITES = [s.coord for s in default_sites()]


def _brute_union(ra, dec, sites, grid, cons):
    union = np.zeros((len(ra), grid.horizon_steps), dtype=bool)
    for site in sites:
        m, _ = visibility_masks_multi(ra, dec, site, grid, cons)
        union |= m
    return union


# one-site draws take the run-extremes path, as every airmass limit drawn is
# at least the zenith's; 30-minute steps and all-dark skies (max_sun 91)
# give runs longer than a sidereal day
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    site_idx=st.one_of(
        st.lists(st.integers(0, len(SITES) - 1), min_size=1, max_size=1),
        st.lists(st.integers(0, len(SITES) - 1), min_size=1, max_size=5, unique=True),
    ),
    minutes=st.integers(0, 366 * 24 * 60),
    step_minutes=st.integers(1, 30),
    horizon=st.one_of(
        st.integers(1, 3 * COVERAGE_STRIDE + 7),
        st.sampled_from([COVERAGE_STRIDE - 1, COVERAGE_STRIDE, COVERAGE_STRIDE + 1, 1440]),
    ),
    max_airmass=st.sampled_from([1.0, 1.2, 2.0, 3.0, math.inf]),
    min_altitude=st.floats(-6.07995, 40.0),
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    site_i=st.integers(0, len(SITES) - 1),
    minutes=st.integers(0, 366 * 24 * 60),
    step_minutes=st.integers(1, 30),
    horizon=st.integers(2, 400),
    ra=st.floats(0.0, 359.999),
    dec=st.floats(-89.0, 89.0),
)
def test_one_site_coverage_finds_the_highest_and_lowest_step(site_i, minutes, step_minutes, horizon, ra, dec):
    # an altitude cutoff halfway between the two highest (lowest) step
    # altitudes of an all-dark sky admits the highest step alone (every
    # step but the lowest); the one-site path must find that step even
    # when it is the one after a culmination or lies days into the horizon
    site = SITES[site_i]
    grid = TimeGrid(
        datetime(2025, 1, 1, tzinfo=timezone.utc) + timedelta(minutes=minutes), step_minutes, horizon
    )
    (sky,) = site_skies([site], grid, VisibilityConstraints(max_sun_altitude_deg=91.0))
    alt = np.sort([altitude(SkyCoord(ra, dec), site, lst) for lst in sky.lst])
    for lo, hi in ((alt[-2], alt[-1]), (alt[0], alt[1])):
        if hi - lo < 1e-6 or (lo + hi) / 2 < -6.07995:
            continue
        cons = VisibilityConstraints(math.inf, (lo + hi) / 2, 91.0)
        full, some = sky_coverage(np.array([ra]), np.array([dec]), [sky], horizon, cons)
        assert full.tolist() == [False] and some.tolist() == [True]
    if alt[0] - 1e-6 >= -6.07995:
        cons = VisibilityConstraints(math.inf, alt[0] - 1e-6, 91.0)
        full, some = sky_coverage(np.array([ra]), np.array([dec]), [sky], horizon, cons)
        assert full.tolist() == [True] and some.tolist() == [True]


def test_sky_coverage_tells_full_from_partial_across_blocks():
    # without sun and airmass limits a southern circumpolar target is up at
    # every step from Chile, while an equatorial one rises and sets; a
    # horizon of 2.5 blocks ends inside a partial block
    site = SITES[0]
    horizon = 2 * COVERAGE_STRIDE + COVERAGE_STRIDE // 2
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
    k = int(flips[flips >= COVERAGE_STRIDE][0])
    grid = TimeGrid(day.epoch_utc + timedelta(minutes=k - (COVERAGE_STRIDE - 1)), 1, COVERAGE_STRIDE)
    (union,) = _brute_union(ra, dec, [site], grid, cons)
    last = np.arange(COVERAGE_STRIDE) == COVERAGE_STRIDE - 1
    assert np.array_equal(union, ~last if edge == "dawn" else last)
    full, some = sky_coverage(ra, dec, site_skies([site], grid, cons), grid.horizon_steps, cons)
    assert full.tolist() == [False] and some.tolist() == [True]


@pytest.mark.parametrize("culmination", ["lower", "upper"])
def test_two_site_coverage_decides_between_sampled_steps(culmination):
    # in an all-dark sky, an altitude cutoff halfway between the two lowest
    # (highest) step altitudes leaves exactly one step uncovered (covered):
    # the one at the lower (upper) culmination, put strictly between two
    # steps of the first pass, which therefore reads the target as full
    # (never seen).  La Palma never sees this target, but makes the union
    # a several-site one.
    pachon, la_palma = SITES[0], SITES[1]
    horizon, k = 2 * COVERAGE_STRIDE + 7, COVERAGE_STRIDE + 17
    grid = TimeGrid(datetime(2025, 3, 1, tzinfo=timezone.utc), 1, horizon)
    lst = [local_sidereal_time(grid.epoch_utc, s, pachon) for s in range(horizon)]
    ra = (lst[k] + 0.1 + (180.0 if culmination == "lower" else 0.0)) % 360.0
    alt = np.array([altitude(SkyCoord(ra, -70.0), pachon, x) for x in lst])
    order = np.argsort(alt)
    pair = order[:2] if culmination == "lower" else order[-2:]
    assert k in pair and k % COVERAGE_STRIDE
    cons = VisibilityConstraints(math.inf, alt[pair].mean(), 91.0)
    ra, dec = np.array([ra]), np.array([-70.0])
    (union,) = _brute_union(ra, dec, [pachon, la_palma], grid, cons)
    at_k = np.arange(horizon) == k
    assert np.array_equal(union, ~at_k if culmination == "lower" else at_k)
    skies = site_skies([pachon, la_palma], grid, cons)
    full, some = sky_coverage(ra, dec, skies, horizon, cons)
    assert full.tolist() == [False] and some.tolist() == [True]
    full, _ = sky_coverage(ra, dec, skies, horizon, cons, want_some=False)
    assert full.tolist() == [False]


@pytest.mark.parametrize(
    "sites, grid, cons, tied",
    [
        # a June night from Cerro Pachon and La Palma: at 11:00 UTC both
        # have the sun up, so the first step taken has no dark site
        (SITES[:2], TimeGrid(datetime(2025, 6, 21, 4, tzinfo=timezone.utc), 1, 1440),
         VisibilityConstraints(), False),
        # an all-dark sky: every sampled step ties on its count of dark sites
        (SITES[:2], TimeGrid(datetime(2025, 3, 1, tzinfo=timezone.utc), 1, 3 * COVERAGE_STRIDE + 11),
         VisibilityConstraints(max_sun_altitude_deg=91.0), True),
    ],
    ids=["no-dark-site", "all-tied"],
)
def test_selective_step_order_keeps_the_union_flags(sites, grid, cons, tied):
    skies = site_skies(sites, grid, cons)
    counts = sum(sky.dark[:: COVERAGE_STRIDE] for sky in skies)
    assert counts.min() == (counts.max() if tied else 0) and counts[0] > 0
    rng = np.random.default_rng(8)
    ra = np.concatenate([rng.uniform(0.0, 360.0, 200), [0.0, 120.0, 240.0]])
    dec = np.concatenate([np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 200))), [-80.0, -85.0, 85.0]])
    union = _brute_union(ra, dec, sites, grid, cons)
    full, some = sky_coverage(ra, dec, skies, grid.horizon_steps, cons)
    assert np.array_equal(full, union.all(axis=1)) and np.array_equal(some, union.any(axis=1))
    assert 0 < some.sum() < ra.size and full.any() == tied
    full_only, _ = sky_coverage(ra, dec, skies, grid.horizon_steps, cons, want_some=False)
    assert np.array_equal(full_only, full)


def test_no_airmass_below_the_horizon():
    # the Kasten-Young formula falls again below -1.757 deg, under 1.0
    # near -6 deg; airmass is the horizon's there instead, so this target,
    # which sinks through -5.4..-6 deg from Cerro Pachon in a dark run,
    # never meets a limit of 1.0
    site = SITES[0]
    grid = TimeGrid(datetime(2025, 1, 1, tzinfo=timezone.utc), 1, 15)
    cons = VisibilityConstraints(max_airmass=1.0, min_altitude_deg=-6.0, max_sun_altitude_deg=0.0)
    assert airmass(-5.5, min_altitude_deg=-6.0) == airmass(0.0, min_altitude_deg=-6.0) > 37.9
    ra, dec = np.array([353.10]), np.array([59.78])
    (union,) = _brute_union(ra, dec, [site], grid, cons)
    assert not union.any()
    full, some = sky_coverage(ra, dec, site_skies([site], grid, cons), grid.horizon_steps, cons)
    assert full.tolist() == [False] and some.tolist() == [False]


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
