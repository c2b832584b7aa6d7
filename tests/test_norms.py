import math
import random
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from barnorm.chains import (
    Chain,
    GroupHomomorphism,
    _key,
    identity_homomorphism,
    with_kernel_control,
)
from barnorm.diffusion import AnnuliConfig, DiffusionOperator
from barnorm.groups import Cyclic, FreeAbelian, FreeGroup, growth_constant
from barnorm.norms import (
    INF,
    ZETA2,
    FiberedFamily,
    NormParams,
    _weight_profile,
    check_contractivity,
    comparison_exponent,
    diameter_map,
    fibered_pushforward_norm,
    pushforward_holder_bound,
    pushforward_norm_bound,
    verify_comparison,
    verify_pushforward_estimate,
    weighted_norm,
    weighted_power_sum,
)
from barnorm.harness import RandomChainSpec, random_chain
from oracles import per_term_norm

F2 = FreeGroup(2)
Z = FreeAbelian(1)
Z2 = FreeAbelian(2)

word = F2.word
A = word(1)
B = word(2)
E = F2.identity


def chains_for(model, degree, count, seed, radius=3, support=8):
    spec = RandomChainSpec(degree=degree, support=support, radius=radius)
    rng = random.Random(seed)
    return [random_chain(model, spec, rng) for _ in range(count)]


class TestWeightedNorm:
    def test_single_generator_edge_is_one(self):
        c = Chain.single(F2, (A,))
        for n in (0, 1, 3):
            for p in (1, 1.5, 2, INF):
                assert weighted_norm(c, n, p) == 1.0

    def test_weighted_value(self):
        c = Chain.single(F2, (word(1, 2),), 2)
        assert abs(weighted_norm(c, 3, 2) - 2 * 2**1.5) < 1e-12

    def test_sup_norm(self):
        c = Chain.single(F2, (word(1, 1),), 3)
        assert weighted_norm(c, 1, INF) == 6.0

    def test_zero_weight_convention(self):
        degenerate = Chain.single(F2, (E, E))
        assert weighted_norm(degenerate, 0, 2) == 1.0  # plain lp norm at n=0
        assert weighted_norm(degenerate, 1, 2) == 0.0
        assert weighted_norm(degenerate, 2, INF) == 0.0

    def test_empty_chain(self):
        assert weighted_norm(Chain.zero(F2, 1), 2, 2) == 0.0

    def test_exact_power_sum(self):
        c = Chain.from_terms(F2, 1, [((A,), Fraction(1, 3)),
                                     ((word(1, 2),), Fraction(-2, 5))])
        assert weighted_power_sum(c, 1, 2) == \
            Fraction(1, 9) * 1 + Fraction(4, 25) * 2
        assert weighted_power_sum(c, 0, 1) == Fraction(1, 3) + Fraction(2, 5)

    def test_triangle_and_homogeneity(self):
        rng = random.Random(77)
        spec = RandomChainSpec(degree=1, support=6, radius=3)
        for n in (0, 1, 3):
            for p in (1, 2, 3, INF):
                for _ in range(500):
                    a = random_chain(F2, spec, rng)
                    b = random_chain(F2, spec, rng)
                    na, nb = weighted_norm(a, n, p), weighted_norm(b, n, p)
                    nsum = weighted_norm(a + b, n, p)
                    assert nsum <= na + nb + 1e-9 * (na + nb + 1)
                    lam = Fraction(-7, 3)
                    assert abs(weighted_norm(a.scale(lam), n, p)
                               - float(abs(lam)) * na) <= 1e-9 * (na + 1)

    def test_monotone_in_weight_degree(self):
        for c in chains_for(F2, 2, 20, seed=3, radius=2, support=6):
            assert all(d >= 1 for d in diameter_map(c).values())
            for p in (1, 2, INF):
                for n in (0, 1, 2):
                    assert weighted_norm(c, n, p) <= \
                        weighted_norm(c, n + 1, p) * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1, 1.5, 2, INF])
    def test_negative_weight_degree_rejected(self, p):
        c = Chain.single(F2, (word(1, 2),), 3)
        with pytest.raises(ValueError, match="weight degree"):
            weighted_norm(c, -1, p)

    def test_negative_weight_degree_rejected_in_power_sum(self):
        c = Chain.single(F2, (word(1, 2),), 3)
        with pytest.raises(ValueError, match="weight degree"):
            weighted_power_sum(c, -1, 2)

    def test_second_norm_computes_no_diameter(self, monkeypatch):
        model = FreeGroup(2)
        calls = []  # every simplex handed to model.diameters
        diameters = model.diameters

        def spy(simplices, degree):
            calls.extend(simplices)
            return diameters(simplices, degree)

        monkeypatch.setattr(model, "diameters", spy)
        grid = [(n, p) for n in range(4) for p in (1, 1.5, 2, INF)]
        for n, p in grid:
            c, = chains_for(model, 2, 1, seed=n, radius=2, support=8)
            calls.clear()
            weighted_norm(c, n, p)
            assert len(calls) == len(c)
            calls.clear()
            for n2, p2 in grid:
                weighted_norm(c, n2, p2)
            weighted_power_sum(c, 3, 2)
            assert calls == []

    def test_concurrent_first_norms_agree(self):
        # workers race to fill each chain's profile; every value must equal
        # the per-term reference, whichever worker stored the profile
        chains = chains_for(F2, 2, 30, seed=11, radius=2, support=8)
        grid = [(n, p) for n in range(3) for p in (1.5, 2, INF)]
        expected = [[per_term_norm(c, n, p) for n, p in grid] for c in chains]
        results = {}

        def work(k):
            results[k] = [[weighted_norm(c, n, p) for n, p in grid]
                          for c in chains]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [results[k] for k in range(4)] == [expected] * 4

    @pytest.mark.parametrize("p", [2, 3])
    def test_integer_exponent_roots_sums_beyond_float_range(self, p):
        # the power sum 12**300 exceeds float range; its root does not
        c = Chain.single(F2, (A * 12,))
        total = weighted_power_sum(c, 300, p)
        with localcontext() as ctx:
            ctx.prec = 40
            reference = (Decimal(total.numerator) / Decimal(total.denominator)
                         ) ** (Decimal(1) / p)
        assert math.isclose(weighted_norm(c, 300, p), float(reference),
                            rel_tol=1e-12)

    @pytest.mark.parametrize("p", [1.5, INF])
    def test_value_beyond_float_range_raises(self, p):
        # 10**200 · 12**150 leaves float range in a single term
        c = Chain.single(F2, (A * 12,), 10**200)
        with pytest.raises(OverflowError):
            weighted_norm(c, 150, p)

    def test_deterministic_across_support_order(self):
        # same chain built in two different term orders
        terms = [((A,), Fraction(1, 3)), ((B,), Fraction(2, 7)),
                 ((word(1, 2),), Fraction(-5, 11))]
        c1 = Chain.from_terms(F2, 1, terms)
        c2 = Chain.from_terms(F2, 1, terms[::-1])
        for p in (1.5, 2.5):
            assert weighted_norm(c1, 1, p) == weighted_norm(c2, 1, p)


class TestContractivity:
    def test_equality_on_unit_edge(self):
        r = check_contractivity(Chain.single(F2, (A,)), 0, 2, 4)
        assert r.norm_p == r.norm_q == 1.0 and r.ok

    def test_two_edges(self):
        c = Chain.from_terms(F2, 1, [((A,), 1), ((B,), 1)])
        r = check_contractivity(c, 0, 2, 4)
        assert abs(r.norm_q - 2**0.25) < 1e-12
        assert abs(r.norm_p - 2**0.5) < 1e-12
        assert r.ok

    def test_sup_comparison(self):
        r = check_contractivity(Chain.single(F2, (word(1, 1),), 5), 1, 2, 4)
        assert r.norm_sup == 10.0
        assert abs(r.norm_ceil - 10.0) < 1e-12
        assert r.ceil_m == 2
        assert r.ok

    def test_requires_ordered_exponents(self):
        with pytest.raises(ValueError):
            check_contractivity(Chain.single(F2, (A,)), 0, 4, 2)

    def test_overflow_raises_instead_of_passing(self):
        # both sides of the sup comparison would read inf, and inf <= inf
        # would pass
        c = Chain.single(F2, (A * 12,), 10**200)
        with pytest.raises(OverflowError):
            check_contractivity(c, 150, 1.5, INF)

    def test_random_sweep(self):
        rng = random.Random(13)
        spec = RandomChainSpec(degree=1, support=8, radius=3)
        for n in (0, 1, 3):
            for p, q in ((1, 2), (2, 3), (1.5, INF)):
                for _ in range(30):
                    c = random_chain(F2, spec, rng)
                    assert check_contractivity(c, n, p, q).ok


class TestComparison:
    def test_exponent_values(self):
        assert comparison_exponent(1, 0, 2, 4, 1) == 3
        assert comparison_exponent(1, 0, 2, INF, 1) == 2
        assert comparison_exponent(2, 1, 1, 2, 2) == 8

    def test_exponent_exactness_near_integers(self):
        # q * ((kD+2) * (1/p - 1/q) + n/p) = 3 exactly; ceiling must not slip
        assert comparison_exponent(1, 0, 2, 4, 1) == 3
        assert comparison_exponent(1, 1, 1, 2, 1) == 5

    def test_unit_edge_example(self):
        rep = verify_comparison(Chain.single(Z, ((1,),)), 0, 2, 4, 1, 3)
        assert rep.lhs == 1.0
        assert abs(rep.rhs - (3 * ZETA2) ** 0.25) < 1e-9
        assert rep.ok

    def test_empty_chain(self):
        rep = verify_comparison(Chain.zero(Z, 1), 0, 2, 4, 1, 3)
        assert rep.lhs == rep.rhs == 0.0 and rep.ok

    def test_sweep_on_polynomial_growth(self):
        for model, degree in ((Z, 1), (Z2, 2)):
            constant = growth_constant(model, degree, 10)
            for q in (2, 4, INF):
                p = 1 if q == 2 else 2
                for c in chains_for(model, 1, 50, seed=29, radius=8):
                    assert verify_comparison(c, 0, p, q, degree, constant).ok


class TestFiberedFamily:
    def test_constant_fiber_example(self):
        fam = FiberedFamily((1, 2), {1: "j", 2: "j"},
                            {1: Fraction(1), 2: Fraction(1)}, {1: 2, 2: 2})
        assert fibered_pushforward_norm(fam, 2) == 2.0
        report = pushforward_norm_bound(fam, 2)
        assert abs(report.rhs - math.sqrt(8)) < 1e-12 and report.ok

    def test_injective_projection_is_equality(self):
        fam = FiberedFamily((1, 2), {1: "x", 2: "y"},
                            {1: Fraction(3), 2: Fraction(-4)}, {1: 1, 2: 1})
        report = pushforward_norm_bound(fam, 2)
        assert report.lhs == report.rhs == 5.0

    def test_injective_projection_is_equality_at_infinity(self):
        fam = FiberedFamily((1, 2), {1: "x", 2: "y"},
                            {1: Fraction(5), 2: Fraction(1, 2)}, {1: 1, 2: 1})
        report = pushforward_norm_bound(fam, INF)
        assert report.lhs == report.rhs == 5.0 and report.ok

    def test_bound_hypothesis_validated(self):
        with pytest.raises(ValueError):
            FiberedFamily((1, 2), {1: "j", 2: "j"},
                          {1: Fraction(1), 2: Fraction(1)}, {1: 1, 2: 2})

    @staticmethod
    def random_family(rng, size=12, fiber_cap=3):
        index = tuple(range(size))
        targets = list(range(1 + size // fiber_cap))
        projection = {}
        counts = {}
        for i in index:
            j = rng.choice(targets)
            while counts.get(j, 0) >= fiber_cap:
                j = rng.choice(targets)
            projection[i] = j
            counts[j] = counts.get(j, 0) + 1
        values = {i: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for i in index}
        bound = {i: counts[projection[i]] for i in index}
        return FiberedFamily(index, projection, values, bound)

    def test_part_one_random_sweep(self):
        rng = random.Random(101)
        for _ in range(100):
            fam = self.random_family(rng)
            for p in (1.5, 2, 3):
                assert pushforward_norm_bound(fam, p).ok

    def test_part_two_random_sweep(self):
        rng = random.Random(103)
        for _ in range(100):
            fam = self.random_family(rng)
            weights = {i: Fraction(rng.randint(0, 5), rng.randint(1, 3))
                       for i in fam.index}
            for p, q in ((1.5, 3), (2, 4)):
                assert pushforward_holder_bound(fam, weights, p, q).ok

    def test_part_two_hand_example(self):
        fam = FiberedFamily((1, 2), {1: "j", 2: "j"},
                            {1: Fraction(1), 2: Fraction(1)}, {1: 2, 2: 2})
        report = pushforward_holder_bound(fam, {1: Fraction(1), 2: Fraction(1)},
                                          2, 4)
        # pushforward of f*w is 2 on one point; factors 2^(1/4) and 2^(3/4) * ...
        assert report.ok
        assert abs(report.lhs - 2.0) < 1e-12


class TestPushforwardEstimates:
    @staticmethod
    def projection():
        return with_kernel_control(
            GroupHomomorphism(Z2, Z, [(1,), (0,)]), 1, 10)

    def test_p1_degenerate_image_example(self):
        c = Chain.from_terms(Z2, 1, [(((1, 0),), 1), (((0, 7),), 1)])
        report = verify_pushforward_estimate(self.projection(), c, 0, 1)
        assert report.exact and report.lhs == 2.0 and report.rhs == 2.0
        assert report.ok and report.constant == 1.0 and report.m == 0

    def test_chain_off_the_source_rejected(self):
        chain = Chain.single(F2, (A,))
        with pytest.raises(ValueError, match="does not live over"):
            verify_pushforward_estimate(self.projection(), chain, 0, 2)

    def test_identity_is_isometric_at_p1(self):
        hom = identity_homomorphism(F2)
        for c in chains_for(F2, 1, 20, seed=7):
            report = verify_pushforward_estimate(hom, c, 1, 1)
            assert report.ok and report.lhs == report.rhs

    @pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, INF])
    @pytest.mark.parametrize("n", [0, 1])
    def test_sweeps(self, p, n):
        hom_z5 = with_kernel_control(
            GroupHomomorphism(Z, Cyclic(5), [1]), 1, 10)
        for hom, radius in ((self.projection(), 6), (hom_z5, 8)):
            spec = RandomChainSpec(degree=1, support=8, radius=radius)
            rng = random.Random(59)
            for _ in range(50):
                c = random_chain(hom.source, spec, rng)
                report = verify_pushforward_estimate(hom, c, n, p)
                assert report.ok

    def test_both_candidate_constants_reported(self):
        c = Chain.single(Z2, ((2, 3),))
        report = verify_pushforward_estimate(self.projection(), c, 0, 3)
        assert report.ratio_primary <= 1 + 1e-9
        assert report.ratio_primary != report.ratio_alternate

    def test_missing_certificate(self):
        bare = GroupHomomorphism(Z2, Z, [(1,), (0,)])
        with pytest.raises(ValueError):
            verify_pushforward_estimate(bare, Chain.single(Z2, ((1, 0),)), 0, 2)


class TestNormParams:
    def test_parse(self):
        assert NormParams.parse("2:3") == NormParams(2, 3.0)
        assert NormParams.parse("0:inf").p == INF
        assert NormParams.parse("1:1.5").p == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            NormParams(-1, 2)
        with pytest.raises(ValueError):
            NormParams(0, 0.5)


def _reference_norm(chain, n, p) -> float:
    """The (n, p) norm from the chain's Fraction coefficients, in exact
    rationals up to the final root."""
    terms = [(abs(c), chain.model.diameter(s) ** n if n else 1)
             for s, c in chain.terms()]
    if p == INF:
        return float(max((a * w for a, w in terms), default=0))
    return float(sum(a**p * w for a, w in terms)) ** (1 / p)


CONES = {model: DiffusionOperator(model, AnnuliConfig(degree=2))
         for model in (F2, Z2)}


@st.composite
def small_chains(draw, radius=2):
    model = draw(st.sampled_from([F2, Z2]))
    degree = draw(st.integers(0, 2))
    elements = model.ball(radius)
    simplex = st.tuples(*[st.sampled_from(elements)] * degree)
    coeff = st.fractions(-6, 6, max_denominator=5).filter(bool)
    return Chain.from_terms(model, degree,
                            draw(st.lists(st.tuples(simplex, coeff), max_size=6)))


@st.composite
def reducible_chains(draw):
    """Internal-form chains whose content ``Chain.__init__`` may reduce."""
    model = draw(st.sampled_from([F2, Z2, Cyclic(7)]))
    degree = draw(st.integers(0, 3))
    simplex = st.tuples(*[st.sampled_from(model.ball(2))] * degree)
    numer = draw(st.dictionaries(simplex, st.integers(-5, 5).filter(bool),
                                 max_size=8))
    content = draw(st.integers(1, 6))
    return Chain(model, degree, content * draw(st.integers(1, 4)),
                 {_key(s): content * a for s, a in numer.items()})


class TestNormProperties:
    @settings(max_examples=200, deadline=None)
    @given(reducible_chains())
    def test_supplied_diameters_give_the_generic_profile(self, chain):
        copy = Chain(chain.model, chain.degree, chain._denom, dict(chain._numer))
        diameters = [chain.model.diameter(s) for s in chain.support()]
        assert _weight_profile(chain, diameters) == _weight_profile(copy)

    @settings(max_examples=200, deadline=None)
    @given(small_chains(), st.sampled_from([0, 1, 2]),
           st.sampled_from([1, 2, 3, INF]))
    def test_weighted_norm_matches_exact_reference(self, chain, n, p):
        value = weighted_norm(chain, n, p)
        assert math.isclose(value, _reference_norm(chain, n, p), rel_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(small_chains(), small_chains(radius=1),
           st.sampled_from([1, 1.5, 2, 2.5, 3, Fraction(7, 3), INF]))
    def test_weighted_norm_equals_per_term_reference(self, chain, near, p):
        # cones repeat (|a|, diam) pairs, so profile counts exceed 1; their
        # size grows with the base's diameter, so cone a ball(1) chain
        coned = CONES[near.model].cone(near)
        for c in (chain, near, coned):
            for n in range(4):
                assert weighted_norm(c, n, p) == per_term_norm(c, n, p)

    @settings(max_examples=200, deadline=None)
    @given(small_chains(), st.sampled_from([1, 2, 3, INF]))
    def test_identity_projection_family_is_the_plain_norm(self, chain, p):
        values = dict(chain.terms())
        family = FiberedFamily(tuple(values), {s: s for s in values}, values,
                               {s: 1 for s in values})
        assert fibered_pushforward_norm(family, p) == weighted_norm(chain, 0, p)
