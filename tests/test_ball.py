"""Tests for limited-magnitude error ball generation."""

from itertools import product

import pytest

from latile.ball import ErrorBall, ball_size, generate_ball


def brute_force_vectors(n, t, k_plus, k_minus):
    """Reference: filter the full cube [-k_minus, k_plus]^n by weight."""
    out = []
    for v in product(range(-k_minus, k_plus + 1), repeat=n):
        if sum(1 for x in v if x != 0) <= t:
            out.append(v)
    return sorted(out)


class TestGenerate:
    def test_standard_small_case(self):
        ball = generate_ball(3, 2, 1, 1)
        assert len(ball) == 19
        assert (0, 0, 0) in ball.vectors
        assert (1, -1, 0) in ball.vectors
        assert (1, 1, 1) not in ball.vectors

    def test_weight_bound_at_dimension_gives_full_cube(self):
        ball = generate_ball(2, 2, 1, 1)
        assert sorted(ball.vectors) == sorted(product((-1, 0, 1), repeat=2))

    def test_zero_radius_is_origin_only(self):
        ball = generate_ball(4, 0, 2, 2)
        assert ball.vectors == ((0, 0, 0, 0),)

    def test_vectors_sorted_and_distinct(self):
        ball = generate_ball(4, 2, 2, 1)
        assert list(ball.vectors) == sorted(set(ball.vectors))

    def test_entries_stay_in_magnitude_window(self):
        ball = generate_ball(5, 3, 2, 1)
        for v in ball.vectors:
            assert all(-1 <= x <= 2 for x in v)
            assert sum(1 for x in v if x != 0) <= 3

    @pytest.mark.parametrize(
        "n,t,kp,km",
        [(1, 1, 1, 1), (2, 1, 2, 0), (3, 2, 1, 1), (3, 3, 2, 2), (4, 2, 2, 1)],
    )
    def test_matches_brute_force(self, n, t, kp, km):
        ball = generate_ball(n, t, kp, km)
        assert list(ball.vectors) == brute_force_vectors(n, t, kp, km)

    def test_symmetric_window_gives_negation_closed_ball(self):
        ball = generate_ball(4, 2, 1, 1)
        vecs = set(ball.vectors)
        assert all(tuple(-x for x in v) in vecs for v in vecs)

    def test_asymmetric_window_is_not_negation_closed(self):
        ball = generate_ball(3, 1, 2, 1)
        vecs = set(ball.vectors)
        assert (2, 0, 0) in vecs and (-2, 0, 0) not in vecs


class TestEntries:
    def test_entries_are_the_nonzero_entries_of_the_vectors(self):
        # (vector index, position, value) for every nonzero entry, in
        # vector order and position order within a vector
        for n in range(1, 6):
            for t in range(0, min(n, 3) + 1):
                for kp in range(0 if t == 0 else 1, 4):
                    for km in range(0, kp + 1):
                        ball = generate_ball(n, t, kp, km)
                        expected = [
                            (i, p, vec[p])
                            for i, vec in enumerate(ball.vectors)
                            for p in range(n)
                            if vec[p] != 0
                        ]
                        assert list(ball.entries) == expected
                        assert len(expected) == sum(
                            sum(1 for x in v if x) for v in brute_force_vectors(n, t, kp, km)
                        )

    def test_entries_stay_out_of_the_dict_and_the_comparison(self):
        ball = generate_ball(3, 2, 1, 1)
        assert "entries" not in ball.as_dict()
        same = ErrorBall(3, 2, 1, 1, ball.vectors)
        assert same == ball and same.entries == ball.entries

    @pytest.mark.parametrize(
        "vectors", [((-5,), (0,), (5,)), ((0, 0), (1, 0), (1, 1)), ((0,), (-1,), (1,))]
    )
    def test_vectors_outside_the_parameters_raise(self, vectors):
        with pytest.raises(ValueError) as info:
            ErrorBall(len(vectors[0]), 1, 1, 0, vectors)
        assert str(info.value) == f"vectors outside B({len(vectors[0])},1,1,0)"

    @pytest.mark.parametrize(
        "n,vectors,message",
        [
            (1, ((0, 0), (0, 1), (0, -1)), "vector (0, 0) of B(1,1,1,1) does not have 1 entries"),
            (2, ((0, 0), (1,), (0, 1)), "vector (1,) of B(2,1,1,1) does not have 2 entries"),
            (2, ((0, 0), (0, 0, 1)), "vector (0, 0, 1) of B(2,1,1,1) does not have 2 entries"),
        ],
    )
    def test_vectors_of_the_wrong_length_raise_naming_the_ball(self, n, vectors, message):
        with pytest.raises(ValueError) as info:
            ErrorBall(n, 1, 1, 1, vectors)
        assert str(info.value) == message


class TestSize:
    @pytest.mark.parametrize(
        "n,expected",
        [(3, 19), (4, 33), (5, 51), (11, 243)],
    )
    def test_quadratic_closed_form(self, n, expected):
        assert ball_size(n, 2, 1, 1) == expected == 2 * n * n + 1

    def test_single_error_asymmetric(self):
        for n in range(1, 8):
            assert ball_size(n, 1, 1, 0) == n + 1

    def test_closed_form_matches_enumeration_everywhere(self):
        for n in range(1, 9):
            for t in range(0, min(n, 3) + 1):
                for kp in range(0, 3):
                    for km in range(0, kp + 1):
                        if t >= 1 and kp == 0:
                            continue
                        assert ball_size(n, t, kp, km) == len(
                            generate_ball(n, t, kp, km)
                        )

    def test_worked_example(self):
        assert ball_size(5, 3, 2, 1) == 376


class TestValidation:
    def test_rejects_weight_above_dimension(self):
        with pytest.raises(ValueError):
            generate_ball(2, 3, 1, 1)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            generate_ball(3, -1, 1, 1)
        with pytest.raises(ValueError):
            generate_ball(3, 1, 1, -1)

    def test_rejects_k_minus_above_k_plus(self):
        with pytest.raises(ValueError):
            generate_ball(3, 1, 1, 2)

    def test_rejects_zero_magnitude_with_positive_weight(self):
        with pytest.raises(ValueError):
            generate_ball(3, 1, 0, 0)

    @pytest.mark.parametrize("function", [generate_ball, ball_size])
    @pytest.mark.parametrize("args", [(3, 2, 1.5, 1), (3.0, 2, 1, 1), (3, 2, 1, "1")])
    def test_rejects_non_integer_parameters(self, function, args):
        with pytest.raises(ValueError, match="must be integers"):
            function(*args)

    def test_dataclass_dict_shape(self):
        ball = generate_ball(2, 1, 1, 1)
        d = ball.as_dict()
        assert d["n"] == 2 and d["t"] == 1
        assert d["k_plus"] == 1 and d["k_minus"] == 1
        assert len(d["vectors"]) == 5


def test_error_ball_len_protocol():
    assert len(generate_ball(3, 2, 1, 1)) == 19
    assert isinstance(generate_ball(3, 2, 1, 1), ErrorBall)
