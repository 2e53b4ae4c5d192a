"""Sub-school formation through follower/leader links.

The link formator lets each fish sample one random peer per iteration and
follow it when the peer is heavier; an existing follower may switch leaders
when its own followers collectively outweigh the sampled peer. Links from a
follower grown heavier than its leader are broken after the pass, and links
that would close a cycle are refused, so the graph is always a forest.

The collective movements are leader-aware, with no school-wide aggregate:
the instinctive drift mixes only the fish's own displacement with its
leader's, ramped up by rho = t / horizon over the run, and the volitive
barycenter is computed per fish from the fish/leader pair (a leaderless fish
does not move). Both act on the whole school at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkGraph",
    "link_formator",
    "leader_instinctive_step",
    "leader_volitive_step",
]


@dataclass
class LinkGraph:
    """Follower-to-leader map; entry -1 means no leader."""

    leader: np.ndarray  # (n,) int

    @classmethod
    def empty(cls, n: int) -> "LinkGraph":
        return cls(leader=np.full(n, -1, dtype=np.int64))


def _chain_reaches(leader: list[int], start: int, target: int) -> bool:
    node = start
    while node >= 0:
        if node == target:
            return True
        node = leader[node]
    return False


def link_formator(
    weights: np.ndarray, links: LinkGraph, rng: np.random.Generator
) -> LinkGraph:
    """One link-formation pass over the school in index order.

    Each fish a samples one uniform random peer b != a. A leaderless a starts
    following a strictly heavier b; an a that already has a leader switches to
    b when the summed weight of a's own followers exceeds b's weight. Any link
    that would close a cycle is refused. Afterwards every link whose follower
    became strictly heavier than its leader is broken.
    """
    n = len(links.leader)
    if n < 2:
        return LinkGraph(leader=links.leader.copy())
    # The pass is scalar work per fish, so it runs on Python lists; the floats
    # and their summation order are those of the arrays.
    w = np.asarray(weights, dtype=float).tolist()
    leader = links.leader.tolist()
    raw = rng.integers(0, n - 1, size=n)
    partner = (raw + (raw >= np.arange(n))).tolist()

    follower_sum = [0.0] * n
    for a, l in enumerate(leader):
        if l >= 0:
            follower_sum[l] += w[a]

    for a, b in enumerate(partner):
        current = leader[a]
        if current < 0:
            if w[b] > w[a] and not _chain_reaches(leader, b, a):
                leader[a] = b
                follower_sum[b] += w[a]
        elif b != current:
            if follower_sum[a] > w[b] and not _chain_reaches(leader, b, a):
                leader[a] = b
                follower_sum[current] -= w[a]
                follower_sum[b] += w[a]

    for a, l in enumerate(leader):
        if l >= 0 and w[a] > w[l]:
            leader[a] = -1
    return LinkGraph(leader=np.array(leader, dtype=np.int64))


def leader_instinctive_step(
    positions: np.ndarray,
    delta_x: np.ndarray,
    delta_f: np.ndarray,
    links: LinkGraph,
    rho: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Leader-aware instinctive movement of the whole school.

    Each fish drifts by rho * (dx_i df_i + dx_l df_l) / (df_i + df_l), where l
    is its leader in the frozen link graph; a leaderless fish uses its own
    terms only. A zero denominator means no drift. Results are clipped into
    the box.
    """
    if rho < 0.0 or rho > 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    followers = np.flatnonzero(links.leader >= 0)
    num = delta_x * delta_f[:, None]
    den = delta_f.copy()
    li = links.leader[followers]
    num[followers] += delta_x[li] * delta_f[li, None]
    den[followers] += delta_f[li]
    drift = np.zeros_like(positions)
    np.divide(num, den[:, None], out=drift, where=den[:, None] != 0.0)
    drift *= rho
    drift += positions
    np.maximum(drift, lower, out=drift)
    return np.minimum(drift, upper, out=drift)


def leader_volitive_step(
    positions: np.ndarray,
    weights: np.ndarray,
    links: LinkGraph,
    step_vol: float | np.ndarray,
    weight_increased: bool,
    draws: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Leader-aware volitive movement of the whole school.

    Each follower steps step_vol * draw along the unit direction from its
    fish/leader pair barycenter: toward it when the school gained weight,
    away from it otherwise. A leaderless fish, and a fish exactly at its pair
    barycenter, stays put. ``draws`` holds one uniform [0, 1) row per fish;
    only rows of fish that move are consumed. Results are clipped into the
    box.
    """
    out = positions.copy()
    followers = np.flatnonzero(links.leader >= 0)
    if followers.size == 0:
        return out
    li = links.leader[followers]
    wf = weights[followers]
    wl = weights[li]
    at = positions[followers]
    pair_b = (at * wf[:, None] + positions[li] * wl[:, None]) / (wf + wl)[:, None]
    diff = at - pair_b
    dist = np.sqrt((diff * diff).sum(axis=1))  # what np.linalg.norm computes for real rows
    moving = dist > 0.0
    if not moving.all():
        followers, at, diff, dist = followers[moving], at[moving], diff[moving], dist[moving]
    if followers.size:
        sign = -1.0 if weight_increased else 1.0
        moved = at + sign * step_vol * draws[followers] * diff / dist[:, None]
        np.maximum(moved, lower, out=moved)
        out[followers] = np.minimum(moved, upper, out=moved)
    return out
