"""Unit tests for the five grouping policies.

The deterministic policies are checked against a brute-force transcription
of their prose definitions, built here from plain python lists so it shares
no code with the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nkdiff import (
    ConfigurationError,
    RoundPlan,
    check_policy,
    group_btb,
    group_eq,
    group_oo,
    group_pom,
    group_rgbt,
    rank_models,
    validate_plan,
)


def ranked(ids):
    return np.array(list(ids), dtype=np.int64)


def btb_reference(ascending, capacity):
    """Best teachers take contiguous best-first buckets of students."""
    n = len(ascending)
    k = n // capacity
    descending = list(reversed(ascending))
    teachers = descending[:k]
    students = descending[k:]
    groups = []
    for j, teacher in enumerate(teachers):
        bucket = students[j * (capacity - 1) : (j + 1) * (capacity - 1)]
        groups.append((teacher, tuple(bucket)))
    return groups


def eq_reference(ascending, capacity):
    """Students dealt one at a time over the teachers, best students first."""
    n = len(ascending)
    k = n // capacity
    descending = list(reversed(ascending))
    teachers = descending[:k]
    students = descending[k:]
    assignment = {t: [] for t in teachers}
    for i, student in enumerate(students):
        assignment[teachers[i % k]].append(student)
    return [(t, tuple(assignment[t])) for t in teachers]


class TestPolicyConfig:
    def test_pom_requires_capacity_two(self):
        with pytest.raises(ConfigurationError):
            check_policy("pom", 5, 10)

    def test_pom_requires_even_population(self):
        with pytest.raises(ConfigurationError):
            check_policy("pom", 2, 9)

    def test_group_policies_require_divisibility(self):
        with pytest.raises(ConfigurationError):
            check_policy("btb", 3, 10)
        check_policy("btb", 5, 10)

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            check_policy("boost", 2, 10)

    def test_oo_needs_only_capacity_within_population(self):
        check_policy("oo", 3, 10)
        check_policy("oo", 10, 10)
        with pytest.raises(ConfigurationError, match="exceeds population 10"):
            check_policy("oo", 11, 10)
        with pytest.raises(ConfigurationError):
            check_policy("oo", 1, 10)


class TestOracleOnly:
    def test_single_group_smallest_capacity(self):
        plan = group_oo(10, 2, np.random.default_rng(0))
        assert len(plan.groups) == 1
        teacher, learners = plan.groups[0]
        assert teacher == 9
        assert len(learners) == 1
        assert learners[0] in range(9)

    def test_full_capacity_teaches_everyone(self):
        plan = group_oo(10, 10, np.random.default_rng(0))
        teacher, learners = plan.groups[0]
        assert teacher == 9
        assert sorted(learners) == list(range(9))

    def test_selection_is_uniform(self):
        rng = np.random.default_rng(42)
        counts = np.zeros(9, dtype=int)
        draws = 1000
        for _ in range(draws):
            _, learners = group_oo(10, 2, rng).groups[0]
            counts[learners[0]] += 1
        p = 1.0 / 9.0
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_capacity_exceeding_population(self):
        with pytest.raises(ConfigurationError):
            group_oo(4, 6, np.random.default_rng(0))


class TestValidatePlan:
    @pytest.mark.parametrize(
        "groups, tag, message",
        [
            ([(4, (0,))], "btb", "teacher id 4 out of range"),
            ([(0, (4,))], "btb", r"learner ids \(4,\) out of range"),
            ([(1, (1,))], "btb", "model 1 assigned to teach itself"),
            ([(0, (1, 2))], "btb", "has 2 learners, capacity allows 1"),
            ([(0, (1,)), (2, (1,))], "btb", "model 1 appears twice"),
            ([(0, (1,)), (1, (0,)), (2, (3,)), (2, (3,))], "pom", "once as teacher and once as learner"),
        ],
        ids=["teacher_out_of_range", "learner_out_of_range", "teaches_itself", "over_capacity",
             "appears_twice", "pom_teacher_twice"],
    )
    def test_broken_plan_rejected(self, groups, tag, message):
        with pytest.raises(ValueError, match=message):
            validate_plan(RoundPlan(groups, tag), 4, capacity=2)


class TestPom:
    def test_two_models_pair_up(self):
        plan = group_pom(2, np.random.default_rng(0))
        assert sorted(plan.groups) == [(0, (1,)), (1, (0,))]

    def test_everyone_teaches_and_learns_once(self):
        plan = group_pom(8, np.random.default_rng(3))
        teachers = sorted(t for t, _ in plan.groups)
        learners = sorted(l for _, ls in plan.groups for l in ls)
        assert teachers == list(range(8))
        assert learners == list(range(8))
        validate_plan(plan, 8, capacity=2)

    def test_odd_population_rejected(self):
        with pytest.raises(ConfigurationError):
            group_pom(5, np.random.default_rng(0))

    def test_matchings_are_uniform(self):
        # N=4 has exactly 3 perfect matchings
        rng = np.random.default_rng(11)
        counts = {}
        draws = 1000
        for _ in range(draws):
            plan = group_pom(4, rng)
            pairs = frozenset(
                frozenset((t, ls[0])) for t, ls in plan.groups
            )
            counts[pairs] = counts.get(pairs, 0) + 1
        assert len(counts) == 3
        p = 1.0 / 3.0
        sigma = np.sqrt(draws * p * (1 - p))
        for count in counts.values():
            assert abs(count - draws * p) <= 3 * sigma


class TestRgbt:
    def test_oracle_always_teaches_its_group(self):
        scores = np.linspace(0.1, 1.0, 10)
        rng = np.random.default_rng(0)
        for _ in range(50):
            plan = group_rgbt(scores, 5, rng)
            oracle_group_teacher = next(
                t for t, ls in plan.groups if 9 in (t, *ls)
            )
            assert oracle_group_teacher == 9

    def test_manual_argmax_per_group(self):
        scores = np.array([0.1, 0.2, 0.3, 1.0])
        seen = set()
        rng = np.random.default_rng(5)
        for _ in range(200):
            plan = group_rgbt(scores, 2, rng)
            partition = frozenset(
                frozenset((t, *ls)) for t, ls in plan.groups
            )
            for teacher, learners in plan.groups:
                members = (teacher, *learners)
                best = max(members, key=lambda i: (scores[i], -i))
                assert teacher == best
            seen.add(partition)
        assert len(seen) == 3  # all partitions of 4 into pairs show up

    def test_group_sizes_exact(self):
        scores = np.linspace(0.1, 1.0, 10)
        plan = group_rgbt(scores, 5, np.random.default_rng(1))
        assert len(plan.groups) == 2
        for _, learners in plan.groups:
            assert len(learners) == 4

    def test_divisibility_violation(self):
        scores = np.linspace(0.1, 1.0, 10)
        with pytest.raises(ConfigurationError):
            group_rgbt(scores, 4, np.random.default_rng(0))

    def test_oracle_wins_a_tie_with_a_perfect_trainee(self):
        scores = np.ones(4)
        rng = np.random.default_rng(4)
        for _ in range(50):
            plan = group_rgbt(scores, 2, rng)
            assert any(t == 3 for t, _ in plan.groups)

    def test_teacher_tie_breaks_to_lower_id(self):
        scores = np.array([0.5, 0.5, 0.5, 1.0])
        rng = np.random.default_rng(9)
        for _ in range(50):
            plan = group_rgbt(scores, 2, rng)
            for teacher, learners in plan.groups:
                if 3 in (teacher, *learners):
                    continue
                assert teacher == min((teacher, *learners))


class TestBtb:
    def test_split_in_two_example(self):
        plan = group_btb(ranked(range(10)), 5)
        assert plan.groups == [(9, (7, 6, 5, 4)), (8, (3, 2, 1, 0))]

    def test_split_in_five_example(self):
        plan = group_btb(ranked(range(10)), 2)
        assert plan.groups == [(9, (4,)), (8, (3,)), (7, (2,)), (6, (1,)), (5, (0,))]

    def test_best_student_joins_oracle_group(self):
        rng = np.random.default_rng(0)
        for capacity in (2, 5):
            k = 10 // capacity
            for _ in range(20):
                order = rng.permutation(9).tolist() + [9]
                plan = group_btb(ranked(order), capacity)
                best_student = order[-(k + 1)]  # highest-ranked non-teacher
                oracle_group = next(ls for t, ls in plan.groups if t == 9)
                assert best_student in oracle_group

    def test_deterministic_no_rng(self):
        a = group_btb(ranked(range(10)), 5)
        b = group_btb(ranked(range(10)), 5)
        assert a.groups == b.groups


class TestEq:
    def test_split_in_two_example(self):
        plan = group_eq(ranked(range(10)), 5)
        assert plan.groups == [(9, (7, 5, 3, 1)), (8, (6, 4, 2, 0))]

    def test_round_robin_spans_accuracy_range(self):
        plan = group_eq(ranked(range(12)), 4)
        # teachers 11,10,9; each group takes one student per round-robin pass
        for j, (teacher, learners) in enumerate(plan.groups):
            expected = tuple(range(8 - j, -1, -3))
            assert learners == expected

    def test_capacity_two_matches_btb(self):
        plan_eq = group_eq(ranked(range(10)), 2)
        plan_btb = group_btb(ranked(range(10)), 2)
        assert plan_eq.groups == plan_btb.groups


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    def test_btb_and_eq_match_reference(self, half_n, rnd):
        n = 2 * half_n
        order = list(range(n))
        rnd.shuffle(order)
        for capacity in (2, n // 2, n):
            if capacity < 2 or n % capacity:
                continue
            rl = ranked(order)
            assert group_btb(rl, capacity).groups == btb_reference(order, capacity)
            assert group_eq(rl, capacity).groups == eq_reference(order, capacity)


@st.composite
def population_and_capacity(draw):
    capacity = draw(st.integers(2, 5))
    k = draw(st.integers(1, 4))
    n = capacity * k
    scores = draw(
        st.lists(
            st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1
        )
    )
    return n, capacity, np.array(scores + [1.0])


class TestPlanInvariants:
    @settings(max_examples=200, deadline=None)
    @given(population_and_capacity(), st.integers(0, 2**32 - 1))
    def test_group_policies_produce_valid_plans(self, case, seed):
        n, capacity, scores = case
        rng = np.random.default_rng(seed)
        rl = rank_models(scores)
        plans = [
            group_oo(n, capacity, rng),
            group_rgbt(scores, capacity, rng),
            group_btb(rl, capacity),
            group_eq(rl, capacity),
        ]
        if n % 2 == 0:
            plans.append(group_pom(n, rng))
        for plan in plans:
            validate_plan(plan, n, capacity)
            if plan.policy_tag in ("rgbt", "btb", "eq"):
                for _, learners in plan.groups:
                    assert len(learners) == capacity - 1

    @settings(max_examples=100, deadline=None)
    @given(population_and_capacity(), st.integers(0, 2**32 - 1))
    def test_oracle_teaches_every_round_except_pom(self, case, seed):
        n, capacity, scores = case
        rng = np.random.default_rng(seed)
        rl = rank_models(scores)
        for plan in (
            group_oo(n, capacity, rng),
            group_rgbt(scores, capacity, rng),
            group_btb(rl, capacity),
            group_eq(rl, capacity),
        ):
            assert any(t == n - 1 for t, _ in plan.groups)
