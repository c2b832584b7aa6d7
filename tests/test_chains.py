import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from barnorm.chains import (
    Chain,
    GroupHomomorphism,
    boundary,
    chain_from_records,
    chain_to_records,
    identity_homomorphism,
    kernel_control_constant,
    push_forward,
    with_kernel_control,
)
from barnorm.diffusion import AnnuliConfig, DiffusionOperator
from barnorm.errors import EnumerationTooLarge
from barnorm.groups import Cyclic, FreeAbelian, FreeGroup, parse_model
from barnorm.norms import INF, weighted_norm
from oracles import (coefficient_sum, tuple_boundary, tuple_chain_map,
                     tuple_cone, tuple_norm, tuple_push_forward, tuple_sum)

F2 = FreeGroup(2)
w = F2.word
Z = FreeAbelian(1)
Z2 = FreeAbelian(2)
Z3 = Cyclic(3)
Z5 = Cyclic(5)
Z7 = Cyclic(7)
F2xZ5 = parse_model("product:[free:2,cyclic:5]")


def random_simplex(model, ball, degree, rng):
    return tuple(ball[rng.randrange(len(ball))] for _ in range(degree))


def random_chain(model, degree, support, radius, rng):
    ball = model.ball(radius)
    terms = [
        (random_simplex(model, ball, degree, rng),
         Fraction(rng.randint(1, 6) * rng.choice((1, -1)), rng.randint(1, 4)))
        for _ in range(support)
    ]
    return Chain.from_terms(model, degree, terms)


MERGE_KEYS = [(g, h) for g in F2.ball(2) for h in F2.ball(2)]
COEFFICIENTS = st.sampled_from([Fraction(a, b) for a in range(-5, 6) if a
                                for b in range(1, 7)])


@st.composite
def operand_pairs(draw):
    """Two coefficient dicts, one 1 to 20 times the size of the other (either
    side first), sharing simplices whose coefficients cancel exactly under
    ``+`` or under ``-``."""
    n_small = draw(st.integers(1, 4))
    n_big = n_small * draw(st.integers(1, 20))
    small = draw(st.dictionaries(st.sampled_from(MERGE_KEYS), COEFFICIENTS,
                                 min_size=n_small, max_size=n_small))
    big = draw(st.dictionaries(st.sampled_from(MERGE_KEYS), COEFFICIENTS,
                               min_size=n_big, max_size=n_big))
    for key, coeff in small.items():
        shared = draw(st.sampled_from((None, -coeff, coeff)))
        if shared is not None:
            big[key] = shared
    return (small, big) if draw(st.booleans()) else (big, small)


def reference_sum(x: dict, y: dict, sign: int) -> dict:
    out = dict(x)
    for key, coeff in y.items():
        out[key] = out.get(key, 0) + sign * coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def has_no_zero(chain: Chain) -> bool:
    return all(coeff for _, coeff in chain.terms())


class TestChainArithmetic:
    def test_cancellation(self):
        c = Chain.single(F2, (w(1),))
        assert (c + c.scale(-1)).is_zero()

    def test_scale(self):
        c = Chain.from_terms(F2, 1, [((w(1),), 1), ((w(2),), 1)])
        half = c.scale(Fraction(1, 2))
        assert half.coefficient((w(1),)) == Fraction(1, 2)
        assert half.coefficient((w(2),)) == Fraction(1, 2)
        assert Fraction(1, 2) * c == half
        assert c.scale(0).is_zero()

    def test_disjoint_support_adds(self):
        rng = random.Random(2)
        a = random_chain(F2, 2, 5, 2, rng)
        terms = [((s[0], F2.multiply(s[1], w(1, 1, 1, 1, 1))), v)
                 for s, v in a.terms()]
        b = Chain.from_terms(F2, 2, terms)
        if not (set(a.support()) & set(b.support())):
            assert len(a + b) == len(a) + len(b)

    def test_from_terms_merges_duplicates(self):
        c = Chain.from_terms(F2, 1, [((w(1),), Fraction(1, 2)),
                                     ((w(1),), Fraction(1, 3))])
        assert c.coefficient((w(1),)) == Fraction(5, 6)

    def test_mismatch_errors(self):
        c1 = Chain.single(F2, (w(1),))
        c2 = Chain.single(Z2, ((1, 0),))
        with pytest.raises(ValueError):
            c1 + c2
        with pytest.raises(ValueError):
            c1 + Chain.single(F2, (w(1), w(2)))
        with pytest.raises(ValueError):
            Chain.from_terms(F2, 1, [((w(1) + w(-1),), 1)])  # unreduced word

    def test_degenerate_simplices_are_kept(self):
        e = F2.identity
        c = Chain.single(F2, (e, w(1), w(1)))
        assert len(c) == 1 and c.coefficient((e, w(1), w(1))) == 1

    @settings(max_examples=200, deadline=None)
    @given(operand_pairs())
    def test_merge_matches_fraction_reference(self, operands):
        x, y = operands
        a = Chain.from_terms(F2, 2, x.items())
        b = Chain.from_terms(F2, 2, y.items())
        for sign, result in ((1, a + b), (-1, a - b)):
            assert dict(result.terms()) == reference_sum(x, y, sign)
            assert has_no_zero(result)
        assert (a - a).is_zero()
        restored = a + b - b
        assert restored == a and has_no_zero(restored)

    def test_cancelled_content_leaves_the_denominator(self):
        # 5/3·[a] + 1/15·[b] − 1/15·[b] must be stored as 5 over 3, not 25
        # over 15: the norms compute a·(1/D) in floats, and 25·(1/15) is not
        # 5·(1/3) in the last bit
        a, b = w(1, 2), w(2)
        x = Chain.from_terms(F2, 1, [((a,), Fraction(5, 3)),
                                     ((b,), Fraction(1, 15))])
        cancelled = x - Chain.single(F2, (b,), Fraction(1, 15))
        assert cancelled._denom == 3
        reduced = Chain.single(F2, (a,), Fraction(5, 3))
        for n in (0, 1):
            for p in (INF, 1.5):
                assert weighted_norm(cancelled, n, p) == \
                    weighted_norm(reduced, n, p)


class TestBoundary:
    def test_two_simplex_expansion(self):
        # [e, a, a^2 b] -> [e, ab] - [e, a^2 b] + [e, a]
        bd = boundary(Chain.single(F2, (w(1), w(1, 1, 2))))
        assert bd.coefficient((w(1, 2),)) == 1
        assert bd.coefficient((w(1, 1, 2),)) == -1
        assert bd.coefficient((w(1),)) == 1
        assert len(bd) == 3

    def test_degree_one_vanishes(self):
        for g in F2.ball(3):
            assert boundary(Chain.single(F2, (g,))).is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            boundary(Chain.single(F2, ()))

    @pytest.mark.parametrize("model,radius",
                             [(F2, 3), (Z2, 3), (Z7, 3), (F2xZ5, 2)])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_boundary_squares_to_zero(self, model, radius, degree):
        rng = random.Random(degree)
        for _ in range(60):
            c = random_chain(model, degree, 8, radius, rng)
            bd = boundary(c)
            assert has_no_zero(bd)
            assert boundary(bd).is_zero()

    @settings(max_examples=80, deadline=None)
    @given(model_radius=st.sampled_from([(F2, 2), (Z2, 2), (Z7, 3),
                                         (F2xZ5, 1)]),
           degree=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           denom=st.integers(1, 12))
    def test_onto_adds_the_boundary(self, model_radius, degree, seed, denom):
        model, radius = model_radius
        rng = random.Random(seed)
        c = random_chain(model, degree, 6, radius, rng)
        bd = boundary(c)
        # some faces of ∂c cancel exactly; the rest of ``a`` sits over
        # another denominator
        cancelled = [(s, -coeff) for s, coeff in bd.terms()
                     if rng.random() < 0.5]
        others = random_chain(model, degree - 1, 4, radius, rng)
        a = (Chain.from_terms(model, degree - 1, cancelled)
             + others.scale(Fraction(1, denom)))
        before = (a._denom, dict(a._numer))
        result = boundary(c, onto=a)
        assert result == a + bd
        assert has_no_zero(result)
        assert (a._denom, dict(a._numer)) == before

    def test_onto_must_fit_as_for_a_sum(self):
        c = Chain.single(F2, (w(1), w(1, 2)))
        for onto in (Chain.single(F2, (w(1), w(2))),   # degree 2, not 1
                     Chain.single(Z2, ((1, 0),))):     # another model
            with pytest.raises(ValueError) as by_sum:
                onto + boundary(c)
            with pytest.raises(ValueError, match=re.escape(str(by_sum.value))):
                boundary(c, onto=onto)
        point = Chain.single(F2, (), Fraction(2, 3))
        assert boundary(Chain.single(F2, (w(1),)), onto=point) == point

    def test_linearity(self):
        rng = random.Random(17)
        a = random_chain(F2, 2, 6, 2, rng)
        b = random_chain(F2, 2, 6, 2, rng)
        lam = Fraction(3, 7)
        assert boundary(a + b.scale(lam)) == boundary(a) + boundary(b).scale(lam)


class TestHomomorphisms:
    def test_projection_collision_sum(self):
        proj = GroupHomomorphism(Z2, Z, [(1,), (0,)])
        c = Chain.from_terms(Z2, 1, [(((1, 0),), 1), (((1, 5),), 1)])
        image = push_forward(proj, c)
        assert image.coefficient(((1,),)) == 2 and len(image) == 1

    def test_identity_pushforward(self):
        hom = identity_homomorphism(F2)
        rng = random.Random(23)
        c = random_chain(F2, 2, 6, 2, rng)
        assert push_forward(hom, c) == c

    def test_fiber_cancellation(self):
        red = GroupHomomorphism(Z, Z3, [1])
        c = Chain.from_terms(Z, 1, [(((1,),), 1), (((4,),), -1)])
        assert push_forward(red, c).is_zero()

    @pytest.mark.parametrize("hom_factory", [
        lambda: GroupHomomorphism(Z2, Z, [(1,), (0,)]),
        lambda: GroupHomomorphism(Z, Z5, [1]),
        lambda: identity_homomorphism(F2),
    ])
    def test_chain_map_property(self, hom_factory):
        hom = hom_factory()
        rng = random.Random(31)
        for _ in range(200):
            c = random_chain(hom.source, 2, 6, 3, rng)
            assert boundary(push_forward(hom, c)) == \
                push_forward(hom, boundary(c))

    def test_linearity_and_coefficient_sum(self):
        proj = GroupHomomorphism(Z2, Z, [(1,), (0,)])
        rng = random.Random(41)
        for _ in range(50):
            a = random_chain(Z2, 2, 5, 3, rng)
            b = random_chain(Z2, 2, 5, 3, rng)
            lam = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 5))
            assert push_forward(proj, a + b.scale(lam)) == \
                push_forward(proj, a) + push_forward(proj, b).scale(lam)
            assert coefficient_sum(push_forward(proj, a)) == coefficient_sum(a)

    def test_relation_checks(self):
        # Z/5 -> Z cannot send the generator to a nonzero integer
        with pytest.raises(ValueError):
            GroupHomomorphism(Z5, Z, [(1,)])
        # abelian source needs commuting images
        with pytest.raises(ValueError):
            GroupHomomorphism(Z2, F2, [w(1), w(2)])
        # commuting free images are fine
        GroupHomomorphism(Z2, F2, [w(1), w(1, 1)])

    def test_product_images_commute_only_across_factors(self):
        # generators of one free factor need not commute with each other
        model = parse_model("product:[free:2,cyclic:3]")
        hom = identity_homomorphism(model)
        rng = random.Random(29)
        for _ in range(20):
            c = random_chain(model, 2, 6, 2, rng)
            assert push_forward(hom, c) == c
        # a, b, a: the free factor's images are free; b (first factor) and a
        # (second factor) must commute but do not
        source = parse_model("product:[free:2,abelian:1]")
        GroupHomomorphism(source, F2, [w(1), w(2), w()])
        with pytest.raises(ValueError, match="'b' and 'a' do not commute"):
            GroupHomomorphism(source, F2, [w(1), w(2), w(1)])
        with pytest.raises(ValueError, match="'a' violates the order-3"):
            GroupHomomorphism(model, F2, [w(1), w(2), w(1)])

    def test_wrong_model_rejected(self):
        proj = GroupHomomorphism(Z2, Z, [(1,), (0,)])
        with pytest.raises(ValueError):
            push_forward(proj, Chain.single(F2, (w(1),)))

    def test_kernel_certificates(self):
        proj = with_kernel_control(
            GroupHomomorphism(Z2, Z, [(1,), (0,)]), 1, 10)
        assert proj.kernel_control.constant == 3
        assert kernel_control_constant(proj, 0, 4) == 9  # {(0, t) : |t| <= 4}
        red = GroupHomomorphism(Z, Z5, [1])
        assert kernel_control_constant(red, 1, 12) == 1
        assert kernel_control_constant(red, 0, 12) == 5  # 2·⌊12/5⌋ + 1
        with pytest.raises(ValueError, match="r_max"):
            kernel_control_constant(red, 1, 0)
        for r in range(1, 13):
            assert kernel_control_constant(red, 0, r) == 2 * (r // 5) + 1

    def test_kernel_certificate_applies_each_element_once(self, monkeypatch):
        applied = []
        original = GroupHomomorphism.apply

        def apply(self, g):
            applied.append(g)
            return original(self, g)

        monkeypatch.setattr(GroupHomomorphism, "apply", apply)
        proj = GroupHomomorphism(Z2, Z, [(1,), (0,)])
        assert kernel_control_constant(proj, 1, 10) == 3
        assert sorted(applied) == sorted(Z2.ball(10))

    def test_kernel_certificates_take_the_cap(self):
        red = GroupHomomorphism(Z, Z5, [1])
        assert kernel_control_constant(red, 1, 2, cap=5) == 1
        with pytest.raises(EnumerationTooLarge, match=r"ball\(3\) of abelian:1"):
            kernel_control_constant(red, 1, 3, cap=5)
        with pytest.raises(EnumerationTooLarge):
            with_kernel_control(red, 1, 3, cap=5)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = random.Random(55)
        for model, radius in ((F2, 3), (Z2, 4)):
            c = random_chain(model, 2, 10, radius, rng)
            records = chain_to_records(c)
            blob = json.dumps(records)
            back = chain_from_records(model, json.loads(blob))
            assert back == c
            assert chain_to_records(back) == records

    def test_bool_vertices_rejected_so_records_round_trip(self):
        # a bool component would serialize as "True" and fail to parse back
        for model, vertex, canonical in ((Z2, (True, 0), (1, 0)),
                                         (Z5, True, 1)):
            with pytest.raises(ValueError, match="bad"):
                Chain.from_terms(model, 1, [((vertex,), Fraction(1, 2))])
            c = Chain.from_terms(model, 1, [((canonical,), Fraction(1, 2))])
            records = json.loads(json.dumps(chain_to_records(c)))
            assert chain_from_records(model, records) == c

    @settings(max_examples=40, deadline=None)
    @given(desc=st.sampled_from([
        "product:[free:2,cyclic:3]",
        "product:[abelian:2,free:1]",
        "product:[product:[free:2,cyclic:3],abelian:1]",
        "product:[cyclic:4,product:[free:1,product:[abelian:1,free:2]]]",
    ]), seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 3))
    def test_product_records_round_trip(self, desc, seed, degree):
        model = parse_model(desc)
        c = random_chain(model, degree, 6, 2, random.Random(seed))
        records = json.loads(json.dumps(chain_to_records(c)))
        back = chain_from_records(model, records)
        assert back == c
        assert chain_to_records(back) == records

    def test_coefficients_as_reduced_fractions(self):
        c = Chain.single(F2, (w(1),), Fraction(2, 4))
        assert chain_to_records(c) == [{"simplex": ["a"], "coeff": "1/2"}]

    def test_degree_inference_and_errors(self):
        with pytest.raises(ValueError):
            chain_from_records(F2, [])
        assert chain_from_records(F2, [], degree=2).is_zero()
        with pytest.raises(ValueError):
            chain_from_records(F2, [{"simplex": ["a"], "coeff": "1"},
                                    {"simplex": ["a", "b"], "coeff": "1"}])


# -- the key rule: a degree-1 simplex is keyed by its vertex ---------------------

# Per model: a vertex pool whose simplices have nonempty annuli at N = 2
# (cyclic:5 has no element of length 3 or 4, so its pool keeps diameters
# <= 1), and a non-injective homomorphism for the push-forward.  Abelian and
# product elements are tuples, so a stray zip over their keys transposes
# them instead of failing.
KEY_MODELS = {
    F2: (F2.ball(1), ((1, 0), (0, 1)), Z2),
    Z2: (Z2.ball(1), (1, 2), Z5),
    Z5: ((0, 1), (2,), Z5),
    F2xZ5: (F2xZ5.ball(1), ((1, 0), (0, 1), (0, 0)), Z2),
}
KEY_CONES = {model: DiffusionOperator(model, AnnuliConfig(degree=2))
             for model in KEY_MODELS}
KEY_HOMS = {model: GroupHomomorphism(model, target, images)
            for model, (_, images, target) in KEY_MODELS.items()}


@st.composite
def keyed_chains(draw, max_degree=3):
    """``(model, degree, terms)``: tuple-keyed terms, repeats allowed."""
    model = draw(st.sampled_from(list(KEY_MODELS)))
    degree = draw(st.integers(0, max_degree))
    simplex = st.tuples(*[st.sampled_from(KEY_MODELS[model][0])] * degree)
    terms = draw(st.lists(st.tuples(simplex, COEFFICIENTS), max_size=5))
    return model, degree, terms


def tuple_terms(chain):
    """The chain as a ``{vertex tuple: Fraction}`` dict, through ``terms``."""
    terms = dict(chain.terms())
    assert all(type(s) is tuple and len(s) == chain.degree for s in terms)
    return terms


class TestKeyRule:
    @settings(max_examples=150, deadline=None)
    @given(keyed_chains())
    def test_public_views_speak_tuples(self, drawn):
        model, degree, terms = drawn
        expected = tuple_sum(*((1, {s: a}) for s, a in terms))
        chain = Chain.from_terms(model, degree, terms)
        assert tuple_terms(chain) == expected
        assert sorted(chain.support(), key=repr) == sorted(expected, key=repr)
        key = model.sort_key
        assert chain.sorted_support() == sorted(
            expected, key=lambda s: tuple(key(v) for v in s))
        for s, _ in terms:
            assert chain.coefficient(s) == expected.get(s, 0)
            assert chain.coefficient(list(s)) == expected.get(s, 0)
            # a simplex of another degree is not in the chain
            assert chain.coefficient(s + s[:1] or (model.identity,)) == 0
            if degree == 1 and type(s[0]) is tuple:  # its vertex is no simplex
                assert chain.coefficient(s[0]) == 0
        assert Chain.from_terms(model, degree, chain.terms()) == chain
        back = chain_from_records(model, chain_to_records(chain), degree)
        assert back == chain
        assert all(len(r["simplex"]) == degree for r in chain_to_records(chain))

    @settings(max_examples=150, deadline=None)
    @given(keyed_chains(max_degree=4))
    def test_boundary_and_push_forward_match_the_tuple_oracle(self, drawn):
        model, degree, terms = drawn
        chain = Chain.from_terms(model, degree, terms)
        if degree:
            bd = boundary(chain)
            assert tuple_terms(bd) == tuple_boundary(model, tuple_terms(chain))
            if degree > 1:
                assert boundary(bd).is_zero()
        hom = KEY_HOMS[model]
        assert (tuple_terms(push_forward(hom, chain))
                == tuple_push_forward(hom, tuple_terms(chain)))

    @settings(max_examples=60, deadline=None)
    @given(keyed_chains())
    def test_cone_and_chain_map_match_the_tuple_oracle(self, drawn):
        model, degree, terms = drawn
        chain, operator = Chain.from_terms(model, degree, terms), KEY_CONES[model]
        expected = tuple_terms(chain)
        coned = operator.cone(chain)
        assert tuple_terms(coned) == tuple_cone(operator, expected)
        assert (tuple_terms(operator.chain_map(chain))
                == tuple_chain_map(operator, degree, expected))
        for c in (chain, coned):
            for n in range(3):
                for p in (1, 2, 2.5, INF):
                    assert weighted_norm(c, n, p) == pytest.approx(
                        tuple_norm(model, tuple_terms(c), n, p), rel=1e-12)
