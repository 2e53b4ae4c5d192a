import dataclasses
import math

import numpy as np
import pytest

from wrfss.constraint_handling import (
    EpsilonSchedule,
    RunningExtremes,
    best_index,
    epsilon_less_arrays,
    initial_epsilon,
    normalized_feeding,
)
from wrfss.engine import Variant, _active_objective


def pairs(*items):
    """(fitness, violation) arrays from (f, v) tuples."""
    f, v = np.array(items, dtype=float).T
    return f, v


def random_pairs(rng, n, feasible_share=0.4):
    f = rng.normal(size=n) * 10
    v = np.where(rng.random(n) < feasible_share, 0.0, rng.exponential(2.0, n))
    return f, v


def feasibility_rules(f1, v1, f2, v2):
    """Deb's rules written out case by case, as the oracle for eps = 0."""
    feas1, feas2 = v1 == 0.0, v2 == 0.0
    return np.where(feas1 & feas2, f1 < f2, np.where(feas1 != feas2, feas1, v1 < v2))


def better(a, b):
    """The engine's comparison at zero tolerance, i.e. the feasibility rules."""
    return epsilon_less_arrays(*a, *b, 0.0)


def epsilon_less_oracle(a, b, eps):
    """The epsilon rule for one pair of (f, v) tuples, written out."""
    if (a[1] <= eps and b[1] <= eps) or a[1] == b[1]:
        return a[0] < b[0]
    return a[1] < b[1]


class TestDebBetter:
    def test_feasible_beats_infeasible(self):
        assert better(pairs((9, 0)), pairs((1, 0.1))).all()

    def test_feasible_pair_compares_fitness(self):
        assert better(pairs((1, 0)), pairs((2, 0))).all()
        assert not better(pairs((2, 0)), pairs((1, 0))).any()

    def test_infeasible_pair_compares_violation(self):
        assert better(pairs((9, 2)), pairs((1, 5))).all()

    def test_ties_are_not_better(self):
        assert not better(pairs((1, 0)), pairs((1, 0))).any()
        assert not better(pairs((3, 2)), pairs((3, 2))).any()

    def test_strict_weak_order(self):
        rng = np.random.default_rng(17)
        pool = random_pairs(rng, 60)
        assert not better(pool, pool).any()
        a, b, c = (tuple(x[i] for x in pool) for i in rng.integers(0, 60, (3, 3000)))
        ab, ba, bc, cb, ac, ca = (
            better(x, y) for x, y in ((a, b), (b, a), (b, c), (c, b), (a, c), (c, a))
        )
        assert not (ab & ba).any()
        assert not (ab & bc & ~ac).any()
        # incomparability is transitive as well
        assert not (~ab & ~ba & ~bc & ~cb & (ac | ca)).any()


class TestEpsilonComparison:
    def test_infinite_epsilon_is_fitness_order(self):
        rng = np.random.default_rng(23)
        a, b = random_pairs(rng, 300), random_pairs(rng, 300)
        assert np.array_equal(epsilon_less_arrays(*a, *b, math.inf), a[0] < b[0])

    def test_zero_epsilon_matches_feasibility_rules(self):
        # continuous violations: exact positive ties do not occur
        rng = np.random.default_rng(29)
        a, b = random_pairs(rng, 500), random_pairs(rng, 500)
        assert np.array_equal(better(a, b), feasibility_rules(*a, *b))

    def test_within_band_fitness_decides(self):
        # both violations within eps=1 -> fitness wins
        assert epsilon_less_arrays(*pairs((2, 0.9)), *pairs((3, 0.5)), 1.0).all()
        assert not epsilon_less_arrays(*pairs((3, 0.5)), *pairs((2, 0.9)), 1.0).any()

    def test_outside_band_violation_decides(self):
        assert epsilon_less_arrays(*pairs((9, 0.5)), *pairs((1, 3.0)), 1.0).all()

    def test_equal_violations_fitness_decides(self):
        assert epsilon_less_arrays(*pairs((1, 2.0)), *pairs((5, 2.0)), 0.5).all()

    def test_non_strict_variant(self):
        # a <= b under the rule is "b does not beat a"
        def leq(x, y, eps):
            return not epsilon_less_arrays(*pairs(y), *pairs(x), eps).any()

        assert leq((1, 0.2), (1, 0.3), 1.0)
        assert not epsilon_less_arrays(*pairs((1, 0.2)), *pairs((1, 0.3)), 1.0).any()
        assert leq((4, 2.0), (4, 2.0), 0.0)
        assert not leq((1, 0.5), (1, 0.2), 0.3)

    def test_array_form_matches_scalar(self):
        rng = np.random.default_rng(31)
        a, b = random_pairs(rng, 200), random_pairs(rng, 200)
        for eps in (0.0, 0.7, math.inf):
            got = epsilon_less_arrays(*a, *b, eps)
            expected = [epsilon_less_oracle(x, y, eps) for x, y in zip(zip(*a), zip(*b))]
            assert got.tolist() == expected


class TestEpsilonSchedule:
    def test_endpoints(self):
        s = EpsilonSchedule(eps0=8.0, cutoff=100, cp_min=3.0)
        assert s.value_at(0) == 8.0
        assert s.value_at(100) == 0.0
        assert s.value_at(100000) == 0.0

    def test_decay_exponent_formula(self):
        s = EpsilonSchedule(eps0=8.0, cutoff=100, cp_min=3.0)
        # (-5 - log10(8)) / log10(0.05) = 4.537... > cp_min
        assert s.cp == pytest.approx((-5 - math.log10(8)) / math.log10(0.05))
        assert s.value_at(50) == pytest.approx(8.0 * 0.5**s.cp)

    def test_midpoint_hand_value(self):
        # decay shape at cp = 3: eps0 * (1 - 50/100)**3 = eps0 / 8, so 8 -> 1.0
        assert 8.0 * (1.0 - 50 / 100) ** 3 == 1.0
        # cp_min binds for small eps0: (-5 - log10(0.05))/log10(0.05) = 2.843 < 3
        s = EpsilonSchedule(eps0=0.05, cutoff=100, cp_min=3.0)
        assert s.cp == 3.0
        assert s.value_at(50) == pytest.approx(0.05 * 0.5**3)

    def test_cp_floor(self):
        s = EpsilonSchedule(eps0=1e-9, cutoff=10, cp_min=3.0)
        assert s.cp == 3.0

    def test_zero_start_is_identically_zero(self):
        s = EpsilonSchedule(eps0=0.0, cutoff=50, cp_min=3.0)
        assert s.cp == 3.0
        assert all(s.value_at(t) == 0.0 for t in range(0, 120, 7))

    def test_non_increasing_and_zero_after_cutoff(self):
        s = EpsilonSchedule(eps0=4.2, cutoff=777, cp_min=3.0)
        values = [s.value_at(t) for t in range(0, 2000)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(v == 0.0 for v in values[777:])

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(eps0=-1.0, cutoff=10)
        with pytest.raises(ValueError):
            EpsilonSchedule(eps0=1.0, cutoff=10, cp_min=0.0)
        with pytest.raises(ValueError):
            EpsilonSchedule(eps0=1.0, cutoff=10).value_at(-1)


class TestInitialEpsilon:
    def test_hand_value(self):
        # mean([2, 4]) = 3, min = 2 -> 0.5 * (3 + 2)
        assert initial_epsilon(np.array([2.0, 4.0])) == 2.5

    def test_feasible_school(self):
        assert initial_epsilon(np.zeros(7)) == 0.0

    def test_single_fish(self):
        assert initial_epsilon(np.array([3.7])) == pytest.approx(3.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            initial_epsilon(np.array([]))


class TestPenalizedFitness:
    """The penalty variant's phase-2 objective: fitness + violation."""

    @staticmethod
    def penalized(f, v):
        return _active_objective(np.asarray(f, float), np.asarray(v, float), 2, Variant("penalty"))

    def test_feasible_unchanged(self):
        assert self.penalized([1.0], [0.0]).tolist() == [1.0]

    def test_hand_value(self):
        assert self.penalized([1.0], [2.5]).tolist() == [3.5]
        # phase 1 still minimizes the violation alone
        assert _active_objective(np.array([1.0]), np.array([2.5]), 1, Variant("penalty")) == 2.5

    def test_preserves_feasible_order(self):
        rng = np.random.default_rng(37)
        fits = rng.normal(size=50)
        penalized = self.penalized(fits, np.zeros(50))
        assert np.array_equal(np.argsort(fits), np.argsort(penalized))


class TestNormalizedFeeding:
    def test_extremes_map_to_bounds(self):
        w = normalized_feeding(np.array([0.0, 4.0]), 0.0, 4.0, 10.0)
        assert w[0] == 10.0
        assert w[1] == 1.0

    def test_hand_value(self):
        # 10 + (1 - 10) * 0.5 = 5.5
        w = normalized_feeding(np.array([2.0]), 0.0, 4.0, 10.0)
        assert w[0] == 5.5

    def test_degenerate_range(self):
        w = normalized_feeding(np.array([3.0, 3.0]), 3.0, 3.0, 10.0)
        assert np.all(w == 5.0)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            lo = rng.normal() * 10
            hi = lo + rng.exponential(5.0) + 1e-9
            vals = np.sort(rng.uniform(lo, hi, 8))
            w = normalized_feeding(vals, lo, hi, 5000.0)
            assert np.all(w >= 1.0) and np.all(w <= 5000.0)
            assert np.all(np.diff(w) <= 0.0)

    def test_rejects_inverted_extremes(self):
        with pytest.raises(ValueError):
            normalized_feeding(np.array([1.0]), 2.0, 1.0, 10.0)


def test_best_index_follows_feasibility_rules():
    f = np.array([[5.0, 1.0, 3.0, 2.0]] * 2)
    v = np.array([[0.0, 2.0, 0.0, 1.0], [3.0, 2.0, 4.0, 1.0]])
    # best fitness among feasible; least violation when none is feasible
    assert best_index(f, v).tolist() == [2, 3]
    assert best_index(f[:1], v[:1]).tolist() == [2]
    assert best_index(f[1:], v[1:]).tolist() == [3]
    # no member of a random population beats the one chosen for its row
    rng = np.random.default_rng(43)
    for _ in range(200):
        runs, k = int(rng.integers(1, 4)), int(rng.integers(1, 12))
        f, v = (a.reshape(runs, k) for a in random_pairs(rng, runs * k))
        for r, i in enumerate(best_index(f, v).tolist()):
            assert not feasibility_rules(f[r], v[r], f[r, i], v[r, i]).any()


def test_running_extremes():
    empty = RunningExtremes.empty(2)
    assert not (empty.min <= empty.max).any()  # nothing seen yet
    ext = empty.update(np.array([[3.0, -1.0], [5.0, 6.0]])).update(np.array([[2.0], [7.0]]))
    assert not (empty.min <= empty.max).any()  # update returns a new pair
    assert ext.min.tolist() == [[-1.0], [5.0]]
    assert ext.max.tolist() == [[3.0], [7.0]]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ext.min = 0.0
