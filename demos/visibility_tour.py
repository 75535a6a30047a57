#!/usr/bin/env python3
"""Where and when can one target be observed?

Walks a single sky position through the bundled five-site array over a
4-hour window and prints each site's visibility windows with their best
airmass, after its sky at the first step: dark (the sun at or below the
limit) or day, and the local sidereal time.
Run from anywhere: python demos/visibility_tour.py
"""
from datetime import datetime, timezone

from obsched.ephemeris import (
    SkyCoord,
    TimeGrid,
    VisibilityConstraints,
    site_skies,
    visibility_windows,
)
from obsched.scenario import default_sites

# a target in the southern sky, and the default northern-winter epoch
target = SkyCoord(ra=260.0, dec=-25.0)
grid = TimeGrid(epoch_utc=datetime(2025, 6, 21, 4, 0, tzinfo=timezone.utc), horizon_steps=240)
cons = VisibilityConstraints()  # airmass <= 3, altitude > 5 deg, sun <= -12 deg

print(f"target ra={target.ra} dec={target.dec}, {grid.horizon_steps} one-minute steps")
print(f"constraints: airmass <= {cons.max_airmass}, sun <= {cons.max_sun_altitude_deg} deg\n")

sites = default_sites()
for i, (site, sky) in enumerate(zip(sites, site_skies([s.coord for s in sites], grid, cons))):
    wins = visibility_windows(target, site.coord, grid, cons, site_index=i)
    line = ", ".join(
        f"[{w.start_step:3d},{w.end_step:3d}) X>={w.min_airmass_in_window:.2f}" for w in wins
    ) or "never visible"
    sky0 = "dark" if sky.dark[0] else "day"
    print(f"{site.name:>16}  {sky0:>4}  lst={sky.lst[0]:6.1f}  ->  {line}")

print(
    "\nSites in daylight (sun above -12) contribute nothing; the dark sites"
    "\ndisagree about airmass, which is what the distributed site rules exploit."
)
