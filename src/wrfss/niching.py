"""Sub-school formation through follower/leader links.

The link formator lets each fish meet one random peer per iteration, drawn
by the engine, and follow it when the peer is heavier; an existing follower
may switch leaders when its own followers collectively outweigh the peer.
Links from a follower grown heavier than its leader are broken after the
pass, and links that would close a cycle are refused, so the graph is always
a forest. No function here draws a random number.

The collective movements are leader-aware, with no school-wide aggregate:
the instinctive drift mixes only the fish's own displacement with its
leader's, ramped up by rho = t / horizon over the run, and the volitive
barycenter is computed per fish from the fish/leader pair (a leaderless fish
does not move). Both act on the whole school at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "LinkGraph",
    "link_formator",
    "leader_instinctive_step",
    "leader_volitive_step",
]


@dataclass
class LinkGraph:
    """Follower-to-leader map; entry -1 means no leader. The map is not changed in place."""

    leader: np.ndarray  # (n,) int

    @classmethod
    def empty(cls, n: int) -> "LinkGraph":
        return cls(leader=np.full(n, -1, dtype=np.int64))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The indices of the fish that have a leader, and of their leaders.

        Worked out once per graph: the volitive move of one iteration and the
        instinctive drift of the next read the same links.
        """
        followers = (self.leader >= 0).nonzero()[0]
        return followers, self.leader[followers]


def _chain_reaches(leader: list[int], start: int, target: int) -> bool:
    node = start
    while node >= 0:
        if node == target:
            return True
        node = leader[node]
    return False


def link_formator(weights: np.ndarray, links: LinkGraph, partners: np.ndarray) -> LinkGraph:
    """One link-formation pass over the school in index order.

    Each fish a meets its sampled peer b = ``partners[a]``. A leaderless a
    starts following a strictly heavier b; an a that already has a leader
    switches to b when the summed weight of a's own followers exceeds b's
    weight. Any link that would close a cycle is refused. Afterwards every
    link whose follower became strictly heavier than its leader is broken.

    The pass draws nothing: the engine samples each peer uniformly among the
    other fish of the same run and passes stack-wide indices, so no link
    crosses runs and one pass gives each run the links it gets alone. A
    school of one-fish runs has no peers; its ``partners`` is empty and its
    links stay empty.
    """
    # The pass is scalar work per fish, so it runs on Python lists; the floats
    # and their summation order are those of the arrays.
    w = weights.tolist()
    leader = links.leader.tolist()
    follower_sum = [0.0] * len(leader)
    for a, l in enumerate(leader):
        if l >= 0:
            follower_sum[l] += w[a]

    for a, b in enumerate(partners.tolist()):
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
    followers, li = links.pairs
    num = delta_x * delta_f[:, None]
    den = delta_f.copy()
    # The right-hand sides are read before the in-place adds write.
    num[followers] += num[li]
    den[followers] += den[li]
    drift = np.zeros(positions.shape)
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
    weight_increased: bool | np.ndarray,
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

    A school of R runs of n consecutive fish may pass ``weight_increased`` as
    R flags and ``step_vol`` as R rows, one (D,) step per run.
    """
    out = positions.copy()
    followers, li = links.pairs
    if followers.size == 0:
        return out
    wf = weights[followers]
    wl = weights[li]
    at = positions[followers]
    pair_b = (at * wf[:, None] + positions[li] * wl[:, None]) / (wf + wl)[:, None]
    diff = at - pair_b
    dist = np.sqrt(np.add.reduce(diff * diff, axis=1))  # what np.linalg.norm computes for real rows
    moving = dist > 0.0
    if not moving.all():
        followers, at, diff, dist = followers[moving], at[moving], diff[moving], dist[moving]
    if followers.size:
        # A multiplication by -1 or 1 is exact, so the signed step has the bits
        # of sign * step_vol whichever way it is formed.
        if isinstance(weight_increased, np.ndarray) and weight_increased.size > 1:
            run = followers // (len(positions) // weight_increased.size)
            step = np.where(weight_increased, -1.0, 1.0)[run, None]
            step = step * (step_vol[run] if np.ndim(step_vol) == 2 else step_vol)
        else:
            step = (-1.0 if weight_increased else 1.0) * step_vol
        moved = at + step * draws[followers] * diff / dist[:, None]
        np.maximum(moved, lower, out=moved)
        out[followers] = np.minimum(moved, upper, out=moved)
    return out
