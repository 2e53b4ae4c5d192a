import numpy as np
import pytest

from wrfss.niching import (
    LinkGraph,
    leader_instinctive_step,
    leader_volitive_step,
    link_formator,
)

from oracles import is_forest, random_partners

LO, HI = -100.0, 100.0


def instinctive(positions, delta_x, delta_f, leader, rho, lo=LO, hi=HI):
    return leader_instinctive_step(
        np.asarray(positions, float), np.asarray(delta_x, float), np.asarray(delta_f, float),
        LinkGraph(leader=np.asarray(leader)), rho, lo, hi,
    )


def volitive(positions, weights, leader, step_vol, gained, draws, lo=LO, hi=HI):
    return leader_volitive_step(
        np.asarray(positions, float), np.asarray(weights, float),
        LinkGraph(leader=np.asarray(leader)), step_vol, gained, draws, lo, hi,
    )


def partners(*peers):
    return np.array(peers, dtype=np.int64)


class TestLinkFormator:
    def test_two_fish_heavier_gets_followed(self):
        weights = np.array([5.0, 1.0])
        links = LinkGraph.empty(2)
        # fish 0 samples 1 (lighter: nothing), fish 1 samples 0 (heavier: link)
        out = link_formator(weights, links, partners(1, 0))
        assert out.leader.tolist() == [-1, 0]

    def test_follower_grown_heavier_breaks_link(self):
        links = LinkGraph(leader=np.array([-1, 0]))
        weights = np.array([1.0, 5.0])  # follower 1 now heavier than leader 0
        out = link_formator(weights, links, partners(1, 0))
        assert out.leader[1] == -1

    def test_single_fish_graph_stays_empty(self):
        out = link_formator(np.array([3.0]), LinkGraph.empty(1), partners())
        assert out.leader.tolist() == [-1]

    def test_equal_weights_never_link(self):
        rng = np.random.default_rng(5)
        links = LinkGraph.empty(8)
        weights = np.full(8, 4.0)
        for _ in range(100):
            links = link_formator(weights, links, random_partners(rng, 8))
            assert np.all(links.leader == -1)

    def test_leader_switch_on_follower_weight_sum(self):
        # a=0 follows c=2 and carries follower 3 (weight 9); it samples b=1.
        # follower_sum(0) = 9 > w[1] = 6, so a leaves c and follows b, and the
        # break pass keeps the link because w[0] = 5 <= w[1] = 6.
        weights = np.array([5.0, 6.0, 7.0, 9.0])
        links = LinkGraph(leader=np.array([2, -1, -1, 0]))
        out = link_formator(weights, links, partners(1, 3, 1, 2))
        assert out.leader[0] == 1
        # 3 -> 0 is broken by the break pass (w[3] = 9 > w[0] = 5)
        assert out.leader[3] == -1

    def test_no_switch_when_follower_sum_small(self):
        # a=0 follows c=2; a's followers weigh 3 < w[b=1] = 4 -> keep c
        weights = np.array([5.0, 4.0, 6.0, 3.0])
        links = LinkGraph(leader=np.array([2, -1, -1, 0]))
        out = link_formator(weights, links, partners(1, 3, 1, 2))
        assert out.leader[0] == 2

    def test_cycle_refused(self):
        # 1 follows 0; fish 0 samples 1 which is heavier -> would close a cycle
        weights = np.array([1.0, 2.0])
        links = LinkGraph(leader=np.array([-1, 0]))
        out = link_formator(weights, links, partners(1, 0))
        assert out.leader[0] == -1
        # the break pass removes 1 -> 0 anyway since w[1] > w[0]
        assert is_forest(out.leader)

    def test_forest_under_random_hammering(self):
        rng = np.random.default_rng(23)
        n = 12
        links = LinkGraph.empty(n)
        for _ in range(300):
            weights = rng.uniform(1.0, 10.0, n)
            links = link_formator(weights, links, random_partners(rng, n))
            assert is_forest(links.leader)
            # no fish follows a strictly lighter fish after the break pass
            followers = np.flatnonzero(links.leader >= 0)
            assert np.all(weights[followers] <= weights[links.leader[followers]])

    def test_follower_weight_sum(self):
        # a=0 (weight 5) follows c=2 and carries followers 1 and 3, which weigh
        # 3 each; it samples b=4. a switches only when the summed weight of
        # all its followers, 6, strictly exceeds w[b].
        links = LinkGraph(leader=np.array([2, 0, -1, 0, -1]))
        for w_b, new_leader in ((6.0, 2), (5.5, 4)):
            weights = np.array([5.0, 3.0, 9.0, 3.0, w_b])
            out = link_formator(weights, links, partners(4, 2, 1, 2, 1))
            assert out.leader.tolist() == [new_leader, 0, -1, 0, -1]


def test_is_forest_oracle():
    assert is_forest([]) and is_forest([-1]) and is_forest([-1, 0, 0, 1])
    for cyclic in ([0], [1, 0], [-1, 2, 3, 1]):
        assert not is_forest(cyclic)


def reference_link_formator(weights, links, partner):
    """The link pass written on numpy arrays and scalars, kept as an oracle
    for the list-based ``link_formator``."""

    def chain_reaches(leader, start, target):
        node = start
        while node >= 0:
            if node == target:
                return True
            node = int(leader[node])
        return False

    n = len(links.leader)
    leader = links.leader.copy()
    if n < 2:
        return LinkGraph(leader=leader)
    weights = np.asarray(weights, dtype=float)

    follower_sum = np.zeros(n)
    for a, l in enumerate(leader):
        if l >= 0:
            follower_sum[l] += weights[a]

    for a in range(n):
        b = int(partner[a])
        current = int(leader[a])
        if current < 0:
            if weights[b] > weights[a] and not chain_reaches(leader, b, a):
                leader[a] = b
                follower_sum[b] += weights[a]
        elif b != current:
            if follower_sum[a] > weights[b] and not chain_reaches(leader, b, a):
                leader[a] = b
                follower_sum[current] -= weights[a]
                follower_sum[b] += weights[a]

    for a in range(n):
        l = int(leader[a])
        if l >= 0 and weights[a] > weights[l]:
            leader[a] = -1
    return LinkGraph(leader=leader)


def random_forest(rng, n):
    """A random link forest: each fish follows nobody or a fish earlier in a
    random order, so no chain can close a cycle."""
    order = rng.permutation(n)
    leader = np.full(n, -1, dtype=np.int64)
    for k in range(1, n):
        if rng.random() < 0.6:
            leader[order[k]] = order[rng.integers(0, k)]
    return LinkGraph(leader=leader)


@pytest.mark.parametrize("case", range(60))
def test_link_formator_matches_reference(case):
    setup = np.random.default_rng([7, case])
    n = int(setup.integers(1, 41))
    links = random_forest(setup, n)
    assert is_forest(links.leader)
    # Integer weights give ties, which exercise the strict comparisons.
    ties = case % 3 == 0
    for _ in range(5):
        weights = setup.integers(1, 6, n).astype(float) if ties else setup.uniform(1, 5000, n)
        peers = random_partners(setup, n)
        got = link_formator(weights, links, peers)
        want = reference_link_formator(weights, links, peers)
        assert got.leader.dtype == np.int64
        assert np.array_equal(got.leader, want.leader)
        links = got


class TestInstinctiveWithLeader:
    def test_no_leader_reduces_to_own_delta(self):
        out = instinctive([[0.0, 0.0], [1.0, 1.0]], [[1.0, 2.0], [-1.0, 0.5]], [2.0, 0.5],
                          [-1, -1], rho=1.0)
        assert np.allclose(out, [[1.0, 2.0], [0.0, 1.5]])

    def test_leader_mix_hand_value(self):
        # fish 0 follows fish 1: (1*1 + 3*1) / (1 + 1) = 2
        out = instinctive([[0.0], [9.0]], [[1.0], [3.0]], [1.0, 1.0], [1, -1], rho=1.0)
        assert np.allclose(out[0], [2.0])

    def test_rho_zero_freezes(self):
        positions = [[0.0], [9.0]]
        out = instinctive(positions, [[1.0], [3.0]], [1.0, 1.0], [1, -1], rho=0.0)
        assert np.array_equal(out, positions)

    def test_zero_denominator_guard(self):
        # own delta_f 0 without a leader, and deltas that cancel with the leader
        out = instinctive([[0.0], [9.0], [4.0]], [[1.0], [3.0], [2.0]], [0.0, -1.0, 1.0],
                          [-1, -1, 1], rho=0.7)
        assert out[0, 0] == 0.0
        assert out[2, 0] == 4.0

    def test_rho_validated(self):
        for rho in (-0.1, 1.5):
            with pytest.raises(ValueError):
                instinctive([[0.0]], [[0.0]], [0.0], [-1], rho=rho)


class TestVolitiveWithLeader:
    def test_leaderless_fish_does_not_move(self):
        positions = [[3.0, 4.0], [0.0, 0.0]]
        out = volitive(positions, [2.0, 5.0], [-1, -1], 0.5, True, np.ones((2, 2)))
        assert np.array_equal(out, positions)

    def test_pair_barycenter_hand_value(self):
        # fish 0 follows fish 1; pair barycenter (0*1 + 3*2) / 3 = 2;
        # attract: 0 - 0.5*1*(0-2)/2 = 0.5, and the leader stays
        out = volitive([[0.0], [3.0]], [1.0, 2.0], [1, -1], 0.5, True, np.ones((2, 1)))
        assert np.allclose(out, [[0.5], [3.0]])
        # spread moves the other way
        out = volitive([[0.0], [3.0]], [1.0, 2.0], [1, -1], 0.5, False, np.ones((2, 1)))
        assert np.allclose(out, [[-0.5], [3.0]])

    def test_fish_at_pair_barycenter_stays(self):
        draws = np.random.default_rng(1).random((2, 1))
        out = volitive([[2.0], [2.0]], [1.0, 5.0], [1, -1], 0.5, True, draws)
        assert np.array_equal(out, [[2.0], [2.0]])

    def test_result_clamped(self):
        out = volitive([[1.0], [-1.0]], [1.0, 1.0], [1, -1], 5.0, False, np.ones((2, 1)),
                       lo=-1.0, hi=1.0)
        assert out[0, 0] == 1.0


def test_empty_linkgraph_reproduces_base_behavior():
    # with no links: the instinctive drift is each fish's own ramped delta,
    # and the volitive move leaves everyone in place
    rng = np.random.default_rng(3)
    for _ in range(20):
        positions = rng.uniform(-5, 5, (4, 2))
        delta_x = rng.normal(size=(4, 2))
        delta_f = np.abs(rng.normal(size=4)) + 0.1
        rho = rng.random()
        empty = [-1] * 4
        out = instinctive(positions, delta_x, delta_f, empty, rho)
        assert np.allclose(out, positions + rho * delta_x)
        out = volitive(positions, np.full(4, 2.0), empty, 0.5, True, rng.random((4, 2)))
        assert np.array_equal(out, positions)
