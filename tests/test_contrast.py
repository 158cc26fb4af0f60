"""Contrast suite: the grade must rank a better passage above a worse one.

The paper's product is "a comprehensive metric of good seamanship". Each
scene here pairs passages of one ownship against the same target, which
holds course, and grades each through the public API
(``compute_risk_series``, ``sr_star_series``, ``score_series``). The
passages differ only in when the ownship acts: it alters 35 degrees to
starboard for 150 s and then runs parallel to its old course, early
(t = 60 s) or late (t = 330 s), or it holds course. Each asserted order
names its source, a COLREG rule.

Not asserted, because the grade does not give them yet:
- in the head-on, a turn to starboard above the same turn to port
  (Rule 14): both grade alike;
- in a channel, an easing inside the lane above a cut across the bank:
  the bank crossing grades higher.
"""

import math

import numpy as np
import pytest

from seamanship import (
    Hyperparameters,
    KinodynamicParams,
    RiskParams,
    VesselTrack,
    compute_risk_series,
    score_series,
    sr_star_series,
)

LENGTH = 120.0
DT = 10.0
WINDOW = (0.0, 600.0)
RISK = RiskParams(horizon_T=300.0, horizon_step=30.0)
SEARCH = Hyperparameters(n_t=2, n_alpha=5, n_v=3, horizon_T=300.0)
TURN = math.radians(35.0)
TURN_FOR = 150.0
EARLY, LATE = 60.0, 330.0


def track(track_id, north, east, speed, heading_at):
    """A track sampled every ``DT`` over the window, whose heading is
    ``heading_at(t)`` from each sample to the next."""
    t = np.arange(WINDOW[0], WINDOW[1] + DT / 2, DT)
    heading = np.array([heading_at(x) for x in t])
    run = speed * DT
    return VesselTrack(
        track_id,
        t,
        north + np.concatenate([[0.0], np.cumsum(run * np.cos(heading[:-1]))]),
        east + np.concatenate([[0.0], np.cumsum(run * np.sin(heading[:-1]))]),
        np.full(t.size, speed),
        np.mod(heading, 2.0 * math.pi),
        LENGTH,
    )


# ownship north from the origin at its speed; the target's start, speed and
# heading; each pair would collide at t = 450 s if both held course
SCENES = {
    # Rule 14: meeting end on, 5.4 km apart at 6 m/s each
    "head_on": (6.0, (5400.0, 0.0, 6.0, math.pi)),
    # Rules 15 and 16: the target crosses from starboard, so the ownship gives way
    "crossing_give_way": (6.0, (2700.0, 2700.0, 6.0, 1.5 * math.pi)),
    # Rule 13: the ownship overtakes a slower target 1.8 km ahead on its course
    "overtaking": (8.0, (1800.0, 0.0, 4.0, 0.0)),
}


def grade(scene, turn_at):
    """The grade of the ownship's passage in ``scene`` when it turns at
    ``turn_at`` (None: it holds course)."""
    own_speed, (north, east, speed, heading) = SCENES[scene]

    def own_heading(t):
        return TURN if turn_at is not None and turn_at <= t < turn_at + TURN_FOR else 0.0

    tracks = {
        "own": track("own", 0.0, 0.0, own_speed, own_heading),
        "target": track("target", north, east, speed, lambda t: heading),
    }
    series = compute_risk_series(tracks, "own", *WINDOW, params=RISK)
    star = sr_star_series(tracks, "own", series.times, SEARCH, KinodynamicParams(), RISK)
    return score_series("own", series.times, series.scenario, star, risk_params=RISK).gss


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_early_action_grades_above_late_action(scene):
    # Rule 8(a): action to avoid collision is taken in ample time; Rule 16:
    # a give-way vessel takes early and substantial action
    assert grade(scene, EARLY) > grade(scene, LATE)


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_late_action_grades_above_holding_course(scene):
    # Rule 14: each vessel meeting end on alters course to starboard;
    # Rule 16: the give-way vessel keeps well clear; Rule 13: the
    # overtaking vessel keeps out of the way
    assert grade(scene, LATE) > grade(scene, None)
