"""Grounding risk from chart polygons and the narrow-channel adjustment.

Shallow-water polygons are densified into boundary points; each point in
the arena contributes a grounding risk, and the maximum is the vessel's
grounding exposure. Inside a channel narrower than the domain beam, the
domain is shrunk so ordinary transits are not flagged as risky.
"""

import numpy as np

from seamanship import (
    ObstacleSet,
    RiskParams,
    StateArrays,
    VesselState,
    VesselType,
    make_domain,
    scenario_risks,
)


def wall(e0, e1, n0=-500.0, n1=2500.0):
    return np.array([[n0, e0], [n0, e1], [n1, e1], [n1, e0], [n0, e0]])


state = VesselState(time=0.0, north=0.0, east=0.0, speed=5.0, heading=0.0,
                    length=100.0, vessel_type=VesselType.CARGO)
domain = make_domain(state)
print(f"open-water domain: semi-minor {domain.semi_minor:.0f} m "
      f"(beam {2 * domain.semi_minor:.0f} m)\n")

own = StateArrays.of([state])
for width in (800.0, 400.0, 260.0, 180.0):
    half = width / 2.0
    obstacles = ObstacleSet([wall(-half - 200.0, -half), wall(half, half + 200.0)],
                            spacing=50.0)
    shrunk, fixed = (
        float(scenario_risks(own, state.time, [], obstacles, RiskParams(channel_adjust=adjust))
              .grounding[0])
        for adjust in (True, False)
    )
    print(f"channel {width:>5.0f} m: grounding risk {shrunk:.4f} with the shrink, "
          f"{fixed:.4f} without")

print("\nOnly channels narrower than the domain beam trigger the")
print("adjustment, and it keeps the grounding exposure of an ordinary")
print("transit roughly flat instead of exploding as the walls close in.")
