"""`RandomWaypoint` against random-waypoint theory, run alone with no
simulator.

After a burn-in, three time averages over a window must match their
closed forms within 5 batch-means standard errors.  With E[L] the mean
leg, (2 + sqrt 2 + 5 ln(1 + sqrt 2)) / 15 times the square's side, and
E[1/v] = ln(v_max / v_min) / (v_max - v_min), so that a leg lasts
E[T] = E[L] E[1/v] on average:
- the paused fraction is p / (p + E[T]);
- the time-average speed is E[L] / (E[T] + p);
- the share of time in the central quarter of the arena mixes 1/4 at
  the waypoints with the legs' share, which a Palm sampler gives: legs
  drawn with weight proportional to their length, and a uniform point on
  each (Le Boudec and Vojnovic, INFOCOM 2005).

The tick bounds the snap.  A node that reaches its waypoint within a tick
rests there for the rest of that tick, so every leg takes a whole number
of ticks: E[T] + rho of them on average, with 0 <= rho < dt.  The pause
then lasts exactly p, a multiple of dt here, and each cycle samples the
waypoint p + dt of its time.  Each expected value is therefore a range,
taken at rho = 0 and at rho = dt, and the measured value must fall
within 5 standard errors of it.
"""

import functools
import math
import random
import statistics
from dataclasses import dataclass

import pytest

from antmanet.engine import RandomWaypoint
from antmanet.model import NodeAttributes

BATCHES = 20  # batches of nodes: the nodes move independently
PALM_LEGS = 60_000


@dataclass(frozen=True)
class Params:
    side: float
    speed_min: float
    speed_max: float
    pause: float
    dt: float
    nodes: int
    burn_in: float
    window: float


SETS = {
    # soak.yaml's arena, speeds, pause and update interval.  Its legs
    # last about 290 s, and the time-average speed settles last, after
    # about 400 s.
    "soak": Params(600.0, 0.5, 2.0, 5.0, 1.0, nodes=500, burn_in=400.0,
                   window=600.0),
    # Pauses as long as the legs, which last about 42 s, in a smaller arena
    # so that the burn-in spans several cycles.
    "long-pause": Params(200.0, 1.0, 5.0, 40.0, 1.0, nodes=400,
                         burn_in=200.0, window=400.0),
}


def central_fraction(ax, ay, bx, by):
    """The fraction of segment (ax, ay)-(bx, by) inside the unit square's
    central quarter, [1/4, 3/4] squared, by clipping the segment."""
    t0, t1 = 0.0, 1.0
    for p, d in ((ax, bx - ax), (ay, by - ay)):
        if d == 0.0:
            if not 0.25 <= p <= 0.75:
                return 0.0
            continue
        u, v = sorted(((0.25 - p) / d, (0.75 - p) / d))
        t0, t1 = max(t0, u), min(t1, v)
    return max(0.0, t1 - t0)


@functools.cache
def palm_leg_share():
    """The share of a moving node's time in the central quarter, with its
    batch-means standard error: legs between uniform points weighted by
    their length, each scored by the exact fraction of it inside, which
    is the mean over a uniform point on it.  The share does not depend on
    the square's side."""
    rng = random.Random(35)
    shares = []
    for _ in range(BATCHES):
        length = inside = 0.0
        for _ in range(PALM_LEGS // BATCHES):
            ax, ay, bx, by = (rng.random() for _ in range(4))
            leg = math.hypot(bx - ax, by - ay)
            length += leg
            inside += leg * central_fraction(ax, ay, bx, by)
        shares.append(inside / length)
    return statistics.fmean(shares), _stderr(shares)


def _stderr(values):
    return statistics.stdev(values) / math.sqrt(len(values))


@functools.cache
def measured(name):
    """{statistic: (mean, standard error)} over the window of set `name`,
    from BATCHES batches of its nodes."""
    s = SETS[name]
    rng = random.Random(f"{name}:start")
    nodes = {i: NodeAttributes(position=(rng.uniform(0.0, s.side),
                                         rng.uniform(0.0, s.side)))
             for i in range(s.nodes)}
    mobility = RandomWaypoint((s.side, s.side), s.speed_min, s.speed_max,
                              s.pause, 10.0, random.Random(f"{name}:moves"))
    order = [nodes[i] for i in range(s.nodes)]
    lo, hi = s.side / 4, 3 * s.side / 4
    paused, moved, central = ([0.0] * BATCHES for _ in range(3))
    first = round(s.burn_in / s.dt)
    ticks = first + round(s.window / s.dt)
    for k in range(ticks):
        if k == first:
            last = [a.position for a in order]
        mobility.step(nodes, k * s.dt, s.dt)
        if k < first:
            continue
        for i, a in enumerate(order):
            b = i % BATCHES
            x, y = a.position
            px, py = last[i]
            last[i] = a.position
            if a.velocity == (0.0, 0.0):
                paused[b] += 1
            else:
                moved[b] += math.hypot(x - px, y - py)
            if lo <= x <= hi and lo <= y <= hi:
                central[b] += 1
    samples = s.nodes // BATCHES * (ticks - first)
    return {stat: (statistics.fmean(v / samples for v in values),
                   _stderr([v / samples for v in values]))
            for stat, values in (("paused", paused),
                                 ("speed", [d / s.dt for d in moved]),
                                 ("central", central))}


def expected(name, stat):
    """The range of `stat` on set `name` for 0 <= rho <= dt, and the
    standard error it carries from the Palm sampler."""
    s = SETS[name]
    root2 = math.sqrt(2)
    mean_leg = (2 + root2 + 5 * math.log(1 + root2)) / 15 * s.side
    leg_time = mean_leg * math.log(s.speed_max / s.speed_min) / (
        s.speed_max - s.speed_min)
    leg_share, leg_stderr = palm_leg_share()
    values = []
    for rho in (0.0, s.dt):
        cycle = s.pause + leg_time + rho
        values.append({
            "paused": s.pause / cycle,
            "speed": mean_leg / cycle,
            "central": ((s.pause + s.dt) * 0.25
                        + (leg_time + rho - s.dt) * leg_share) / cycle,
        }[stat])
    # The legs' share enters the central share with a weight below 1.
    return min(values), max(values), leg_stderr if stat == "central" else 0.0


@pytest.mark.parametrize("stat", ["paused", "speed", "central"])
@pytest.mark.parametrize("name", SETS)
def test_time_averages_match_theory(name, stat):
    mean, stderr = measured(name)[stat]
    lo, hi, palm_stderr = expected(name, stat)
    tolerance = 5 * math.hypot(stderr, palm_stderr)
    assert lo - tolerance <= mean <= hi + tolerance, (mean, stderr, lo, hi)


def test_palm_leg_share_near_the_product_form():
    """A cross-check of the sampler.  Bettstetter's product-form density,
    36 x(a-x) y(a-y) / a**6, puts 0.6875**2 = 0.473 of a moving node's
    time in the central quarter.  It only approximates the stationary
    density, and overstates the share by about 0.02."""
    share, stderr = palm_leg_share()
    product_form = 0.6875 ** 2
    assert product_form - 0.03 < share < product_form - 5 * stderr
