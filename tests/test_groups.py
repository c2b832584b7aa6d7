import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from barnorm.chains import _key
from barnorm.errors import EnumerationTooLarge
from barnorm.groups import (
    Cyclic,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    growth_constant,
    parse_model,
)
from oracles import TupleFreeWords, bfs_distances, bfs_spheres, lattice_sphere_count

F2 = FreeGroup(2)
w = F2.word
Z = FreeAbelian(1)
Z2 = FreeAbelian(2)
Z5 = Cyclic(5)
Z7 = Cyclic(7)


def diameter_cases():
    """``(model, BFS distances to radius 4, ball(2), rng)`` for the free,
    free abelian, cyclic and product kinds; points of ball(2) are at most 4
    apart."""
    for model in (F2, Z2, Z7, DirectProduct([F2, Z5])):
        yield model, bfs_distances(model, 4), model.ball(2), random.Random(9)


def bfs_diameter(model, dist, points):
    """Max over pairs of |g⁻¹h|, each length read off the BFS table."""
    return max(dist[model.multiply(model.inverse(g), h)]
               for g in points for h in points)


class TestMultiplication:
    def test_inverse_cancellation(self):
        assert F2.multiply(w(1), w(-1)) == F2.identity == b""

    def test_reduction_at_junction(self):
        # ab * Ba reduces to a^2
        assert F2.multiply(w(1, 2), w(-2, 1)) == w(1, 1)

    def test_vector_addition(self):
        assert Z2.multiply((1, 2), (3, -2)) == (4, 0)

    def test_group_laws_exhaustive_cyclic(self):
        for m in (2, 3, 5, 7):
            model = Cyclic(m)
            elements = list(range(m))
            for g in elements:
                assert model.multiply(g, model.inverse(g)) == 0
                assert model.multiply(g, 0) == g == model.multiply(0, g)
                for h in elements:
                    for k in elements:
                        assert model.multiply(model.multiply(g, h), k) == \
                            model.multiply(g, model.multiply(h, k))

    @pytest.mark.parametrize("model,radius", [
        (F2, 3), (Z2, 4), (FreeAbelian(3), 3),
        (DirectProduct([F2, Z5]), 3),
        (DirectProduct([DirectProduct([F2, Cyclic(3)]), FreeAbelian(1)]), 3),
    ])
    def test_group_laws_randomized(self, model, radius):
        rng = random.Random(11)
        ball = model.ball(radius)
        for _ in range(1000):
            g, h, k = (ball[rng.randrange(len(ball))] for _ in range(3))
            assert model.multiply(model.multiply(g, h), k) == \
                model.multiply(g, model.multiply(h, k))
            assert model.multiply(g, model.identity) == g
            assert model.multiply(model.identity, g) == g
            assert model.multiply(g, model.inverse(g)) == model.identity

    @pytest.mark.parametrize("model,radius", [
        (F2, 3), (Z2, 3), (Z7, 3),
        (DirectProduct([F2, Z5]), 2),
    ])
    def test_left_divide_is_inverse_times(self, model, radius):
        # the boundary's re-based 0th face; free words sharing a prefix
        # take the shortcut, every other pair falls back to the group law
        ball = model.ball(radius)
        for g in ball:
            for h in ball:
                assert model._left_divide(g, h) == \
                    model.multiply(model.inverse(g), h)

    def test_power(self):
        assert F2.power(w(1), 5) == w(1) * 5
        assert F2.power(w(1), -2) == w(-1, -1)
        assert Z5.power(2, 7) == 14 % 5


class TestWordLength:
    def test_identity_is_zero(self):
        for model in (F2, Z2, Z5):
            assert model.word_length(model.identity) == 0

    def test_reduced_word_length(self):
        assert F2.word_length(w(1, 2, -1)) == 3

    def test_cyclic_matches_bfs(self):
        dist = bfs_distances(Z5, 3)
        assert dist[4] == 1
        for g in range(5):
            assert Z5.word_length(g) == dist[g]

    @pytest.mark.parametrize("model,radius", [
        (F2, 6), (Z2, 6), (FreeAbelian(3), 4), (Z7, 3),
        (DirectProduct([FreeGroup(2), Cyclic(3)]), 4),
    ])
    def test_matches_bfs_on_ball(self, model, radius):
        dist = bfs_distances(model, radius)
        for g, d in dist.items():
            assert model.word_length(g) == d

    def test_subadditive_and_symmetric(self):
        rng = random.Random(5)
        ball = F2.ball(4)
        for _ in range(500):
            g = ball[rng.randrange(len(ball))]
            h = ball[rng.randrange(len(ball))]
            assert F2.word_length(F2.multiply(g, h)) <= \
                F2.word_length(g) + F2.word_length(h)
            assert F2.word_length(g) == F2.word_length(F2.inverse(g))


class TestDistanceAndDiameter:
    def test_examples(self):
        assert F2.distance(w(1), w(1, 2)) == 1
        assert F2.distance(w(1), w(2)) == 2
        assert Z2.distance((0, 0), (2, 3)) == 5

    def test_left_invariance(self):
        rng = random.Random(3)
        ball = F2.ball(3)
        for _ in range(300):
            x, g, h = (ball[rng.randrange(len(ball))] for _ in range(3))
            assert F2.distance(F2.multiply(x, g), F2.multiply(x, h)) == \
                F2.distance(g, h)

    def test_triangle_inequality_exhaustive_ball4(self):
        ball = F2.ball(4)
        index = {g: i for i, g in enumerate(ball)}
        size = len(ball)
        dist = [[0] * size for _ in range(size)]
        for g, i in index.items():
            gi = F2.inverse(g)
            row = dist[i]
            for h, j in index.items():
                row[j] = len(F2.multiply(gi, h))
        for i in range(size):
            di = dist[i]
            for j in range(size):
                dij = di[j]
                dj = dist[j]
                for k in range(size):
                    assert di[k] <= dij + dj[k]

    def test_diameter_examples(self):
        assert F2.diameter((w(1),)) == 1
        assert F2.diameter((w(1), w(1, 2))) == 2
        for model in (F2, Z2, Z5):
            assert model.diameter((model.identity,) * 3) == 0
        # random simplices of degree <= 4 on ball(2), against BFS distances;
        # diameters takes the same simplices' chain keys a degree at a time
        for model, dist, ball, rng in diameter_cases():
            by_degree = {degree: [] for degree in range(5)}
            for _ in range(200):
                degree = rng.randrange(5)
                verts = tuple(rng.choice(ball) for _ in range(degree))
                expected = bfs_diameter(model, dist, (model.identity, *verts))
                assert model.diameter(verts) == expected
                by_degree[degree].append((verts, expected))
            for degree, cases in by_degree.items():
                keys = [_key(verts) for verts, _ in cases]  # as a chain keys them
                assert list(model.diameters(keys, degree)) == \
                    [expected for _, expected in cases]
                assert list(model.diameters([], degree)) == []

    @pytest.mark.parametrize("model", [F2, Z2, Z7, DirectProduct([F2, Z5])])
    def test_distance_is_length_of_left_quotient(self, model):
        # ball(3) holds prefix pairs, equal words and the identity
        ball = model.ball(3)
        for g in ball:
            for h in ball:
                assert model.distance(g, h) == \
                    model.word_length(model._left_divide(g, h))

    def test_diameter_translation_invariant(self):
        # {x, x·g1, …, x·gk} has the diameter of {e, g1, …, gk}
        for model, dist, ball, rng in diameter_cases():
            for _ in range(200):
                degree = rng.randrange(5)
                verts = tuple(rng.choice(ball) for _ in range(degree))
                x = rng.choice(ball)
                translated = (x, *(model.multiply(x, v) for v in verts))
                assert model.diameter(verts) == \
                    bfs_diameter(model, dist, translated)


class TestSpheresAndBalls:
    def test_f2_small_spheres(self):
        assert set(F2.sphere(1)) == {w(1), w(-1), w(2), w(-2)}
        assert len(F2.sphere(2)) == 12
        assert F2.sphere(0) == (w(),)

    def test_z2_sphere_brute_force(self):
        assert len(Z2.sphere(3)) == 12 == lattice_sphere_count(2, 3)
        for r in range(8):
            assert Z2.sphere_size(r) == lattice_sphere_count(2, r)
        for r in range(6):
            assert FreeAbelian(3).sphere_size(r) == lattice_sphere_count(3, r)

    @pytest.mark.parametrize("model,radius", [(F2, 6), (Z2, 12), (Z7, 3)])
    def test_spheres_match_bfs(self, model, radius):
        oracle = bfs_spheres(model, radius)
        seen = set()
        for r in range(radius + 1):
            sphere = model.sphere(r)
            assert len(sphere) == len(set(sphere)) == model.sphere_size(r)
            assert set(sphere) == oracle[r]
            assert not (set(sphere) & seen)  # spheres partition the ball
            seen.update(sphere)
        assert seen == set(model.ball(radius))

    def test_ball_sizes_closed_forms(self):
        assert F2.ball_size(2) == 17
        for r in range(8):
            assert F2.ball_size(r) == 2 * 3**r - 1
            assert Z2.ball_size(r) == 2 * r * r + 2 * r + 1
            assert Z.ball_size(r) == 2 * r + 1
        assert Z7.ball_size(3) == 7 == Z7.ball_size(10)

    @pytest.mark.parametrize("rank", range(1, 5))
    def test_free_ball_size_is_the_sphere_sum(self, rank):
        model = FreeGroup(rank)
        for r in range(61):
            assert model.ball_size(r) == sum(map(model.sphere_size,
                                                 range(r + 1)))
        huge = 10**7  # past the exact-count limit
        assert model.ball_size(huge) == (2 * huge + 1 if rank == 1
                                         else math.inf)

    def test_cap_guard(self):
        with pytest.raises(EnumerationTooLarge):
            F2.sphere(50)
        with pytest.raises(EnumerationTooLarge):
            F2.ball(40, cap=1000)
        # the bound is computed without enumeration
        err = None
        try:
            F2.sphere(30, cap=10)
        except EnumerationTooLarge as exc:
            err = exc
        assert err is not None and err.bound == 4 * 3**29

    def test_cap_guard_on_cached_ball(self):
        model = FreeGroup(2)
        assert len(model.ball(3)) == 53
        with pytest.raises(EnumerationTooLarge):
            model.ball(3, cap=10)
        assert len(model.ball(3, cap=53)) == 53

    def test_astronomical_sizes_do_not_materialize(self):
        assert F2.sphere_size(10**7) == math.inf


class TestProductModel:
    def test_structure(self):
        model = parse_model("product:[free:2,cyclic:3]")
        assert model.describe() == "product:[free:2,cyclic:3]"
        g = (w(1, 2), 2)
        assert model.word_length(g) == 3
        assert model.multiply(g, model.inverse(g)) == model.identity

    def test_spheres_match_bfs(self):
        model = DirectProduct([FreeAbelian(1), Cyclic(3)])
        oracle = bfs_spheres(model, 4)
        for r in range(5):
            assert set(model.sphere(r)) == oracle[r]
            assert model.sphere_size(r) == len(oracle[r])

    def test_generators_symmetric(self):
        for model in (F2, Z2, Z5, parse_model("product:[abelian:2,cyclic:4]")):
            gens = set(model.generators)
            assert model.identity not in gens
            assert {model.inverse(s) for s in gens} == gens


class TestSerialization:
    def test_free_words(self):
        assert F2.element_to_str(w(1, -2, 1)) == "aBa"
        assert F2.element_from_str("aBa") == w(1, -2, 1)
        assert F2.element_from_str("") == w()
        # unreduced input is reduced on parse
        assert F2.element_from_str("aA") == w()

    @pytest.mark.parametrize("rank", range(1, 27))
    def test_every_letter_round_trips(self, rank):
        # "e" spells the fifth generator from rank 5 on, not the identity
        model = FreeGroup(rank)
        for g in model.generators:
            assert model.element_from_str(model.element_to_str(g)) == g
        expected = model.word(5) if rank >= 5 else model.identity
        assert model.element_from_str("e") == expected

    def test_vectors_and_residues(self):
        assert Z2.element_to_str((1, -2)) == "1,-2"
        assert Z2.element_from_str("1,-2") == (1, -2)
        assert Z5.element_from_str("4") == 4

    def test_bool_components_rejected(self):
        # True == 1 hashes alike but serializes as "True", which the
        # parsers cannot read back
        for model, g in ((Z2, (True, 0)), (Z2, (0, False)), (Z5, True),
                         (parse_model("product:[free:1,cyclic:3]"), (b"", True))):
            with pytest.raises(ValueError, match="bad"):
                model.validate(g)
        Z2.validate((1, 0))
        Z5.validate(1)

    def test_product_elements(self):
        model = parse_model("product:[free:2,cyclic:3]")
        g = (w(1, 2), 2)
        assert model.element_from_str(model.element_to_str(g)) == g

    def test_nested_product_elements(self):
        # product-valued components are bracketed; flat products are not
        flat = parse_model("product:[free:2,cyclic:3]")
        nested = parse_model("product:[product:[free:2,cyclic:3],abelian:1]")
        assert flat.element_to_str((w(1, 2), 2)) == "ab;2"
        assert nested.element_to_str(((w(1), 0), (0,))) == "[a;0];0"
        assert nested.element_from_str("[a;0];0") == ((w(1), 0), (0,))
        for model in (flat, nested):
            for g in model.ball(3):
                assert model.element_from_str(model.element_to_str(g)) == g
        with pytest.raises(ValueError, match="expected 2 components"):
            nested.element_from_str("a;0;0")
        with pytest.raises(ValueError, match="needs brackets"):
            nested.element_from_str("a;0")

    def test_descriptor_round_trip(self):
        for desc in ("free:2", "abelian:3", "cyclic:7",
                     "product:[free:2,cyclic:3]",
                     "product:[abelian:2,product:[cyclic:2,cyclic:3]]"):
            assert parse_model(desc).describe() == desc

    def test_bad_descriptors(self):
        for desc in ("simple:4", "free:x", "product:[free:2", "free"):
            with pytest.raises(ValueError):
                parse_model(desc)


class TestGrowthConstant:
    def test_examples(self):
        assert growth_constant(Z, 1, 10) == 3
        assert growth_constant(Z2, 2, 10) == 5
        assert growth_constant(Z, 2, 10) == 3

    def test_exact_and_range_checked(self):
        assert growth_constant(Z, 3, 10) == Fraction(3)
        assert isinstance(growth_constant(Z, 3, 10), Fraction)
        with pytest.raises(ValueError, match="r_max"):
            growth_constant(Z, 1, 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="growth degree"):
            growth_constant(Z2, -1, 10)

    def test_bound_holds_on_range(self):
        for model, degree in ((Z, 1), (Z2, 2), (FreeAbelian(3), 3)):
            constant = growth_constant(model, degree, 12)
            for r in range(1, 13):
                assert model.ball_size(r) <= constant * r**degree


@st.composite
def letter_sequences(draw, count=1):
    """A rank in 1..3 and ``count`` sequences of its signed letters."""
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([s * i for i in range(1, rank + 1)
                               for s in (1, -1)])
    return rank, [tuple(draw(st.lists(letters, max_size=12)))
                  for _ in range(count)]


def letters_of(model, g):
    return tuple((i + 1) * e for i, e in model.generator_word(g))


class TestByteWords:
    """``FreeGroup``'s byte words against the tuple-word reference."""

    @settings(max_examples=300, deadline=None)
    @given(letter_sequences())
    def test_word_and_generator_word_round_trip(self, case):
        rank, [letters] = case
        model, ref = FreeGroup(rank), TupleFreeWords(rank)
        g = model.word(*letters)
        model.validate(g)
        assert letters_of(model, g) == ref.reduce(letters)
        assert model.word(*letters_of(model, g)) == g
        assert len(g) == model.word_length(g) == len(ref.reduce(letters))

    @settings(max_examples=300, deadline=None)
    @given(letter_sequences(count=2))
    def test_group_law_matches_reference(self, case):
        rank, sequences = case
        model, ref = FreeGroup(rank), TupleFreeWords(rank)
        g_ref, h_ref = (ref.reduce(letters) for letters in sequences)
        g, h = (model.word(*letters) for letters in sequences)
        assert model.multiply(g, h) == model.word(*ref.multiply(g_ref, h_ref))
        assert model.inverse(g) == model.word(*ref.inverse(g_ref))
        assert model._left_divide(g, h) == \
            model.word(*ref.left_divide(g_ref, h_ref))
        for word in (model.multiply(g, h), model.inverse(g),
                     model._left_divide(g, h)):
            model.validate(word)

    @settings(max_examples=300, deadline=None)
    @given(letter_sequences())
    def test_text_matches_reference(self, case):
        rank, [letters] = case
        model, ref = FreeGroup(rank), TupleFreeWords(rank)
        g = model.word(*letters)
        text = model.element_to_str(g)
        assert text == ref.to_str(ref.reduce(letters))
        assert model.element_from_str(text) == g
        # unreduced text is reduced on parse, as word() reduces letters
        assert model.element_from_str(ref.to_str(letters)) == g

    @settings(max_examples=200, deadline=None)
    @given(letter_sequences(count=6))
    def test_sort_key_order_matches_reference(self, case):
        rank, sequences = case
        model, ref = FreeGroup(rank), TupleFreeWords(rank)
        words = [ref.reduce(letters) for letters in sequences]
        by_bytes = sorted((model.word(*g) for g in words), key=model.sort_key)
        by_letters = sorted(words, key=ref.sort_key)
        assert by_bytes == [model.word(*g) for g in by_letters]

    @settings(max_examples=200, deadline=None)
    @given(letter_sequences(count=2), st.data())
    def test_validate_rejects_non_canonical(self, case, data):
        rank, sequences = case
        model = FreeGroup(rank)
        g, h = (model.word(*letters) for letters in sequences)
        bad = data.draw(st.integers(2 * rank, 255))
        with pytest.raises(ValueError, match="out of range"):
            model.validate(g + bytes((bad,)) + h)
        letter = data.draw(st.sampled_from(model.generators))
        unreduced = g + letter + model.inverse(letter) + h
        with pytest.raises(ValueError, match="not reduced"):
            model.validate(unreduced)
        with pytest.raises(ValueError, match="FreeGroup.word"):
            model.validate(tuple(sequences[0]))

    @pytest.mark.parametrize("rank", [2, 3])
    def test_validate_accepts_positive_words(self, rank):
        model = FreeGroup(rank)
        positive = model.positive_generators
        for length in range(5):
            for letters in itertools.product(positive, repeat=length):
                model.validate(b"".join(letters))

    def test_validate_still_rejects_non_canonical(self):
        # the positive-word fast path must not wave through what the full
        # checks reject
        with pytest.raises(ValueError, match="not reduced"):
            F2.validate(bytes((2, 1)))
        with pytest.raises(ValueError, match="out of range"):
            F2.validate(bytes((2, 3, 4)))
        with pytest.raises(ValueError, match="FreeGroup.word"):
            F2.validate((2, 3))

    def test_identity_and_letter_errors(self):
        assert F2.identity == b"" == w()
        for letter in (0, 3, -3, 1.0):
            with pytest.raises(ValueError, match="out of range"):
                w(letter)
