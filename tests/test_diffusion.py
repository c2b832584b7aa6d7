import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from barnorm import diffusion
from barnorm.chains import Chain, boundary
from barnorm.diffusion import AnnuliConfig, DiffusionOperator
from barnorm.errors import EmptyAnnulus, EnumerationTooLarge
from barnorm.groups import Cyclic, FreeAbelian, FreeGroup, parse_model
from barnorm.harness import RandomChainSpec, random_chain
from barnorm.norms import weighted_norm
from oracles import (accumulation_check, coefficient_sum, reference_cone,
                     shells_overlap)

F2 = FreeGroup(2)
Z2 = FreeAbelian(2)
w = F2.word
A = w(1)
E = F2.identity


# every kind, for the rules that rest on a symmetric generating set
MODELS = [F2, Z2, Cyclic(7), parse_model("product:[free:2,cyclic:5]")]


def operator(model=F2, degree=2, cap=None):
    config = AnnuliConfig(degree=degree) if cap is None else \
        AnnuliConfig(degree=degree, element_cap=cap)
    return DiffusionOperator(model, config)


def float_threshold_lengths(r, n):
    """Independent oracle: real-valued thresholds, scanned over lengths.

    Only lengths within the shell width of the upper bound can qualify, so
    the scan starts just below the real lower threshold.
    """
    hi = r**n
    lo = hi - r ** (n / 10)
    start = max(0, int(lo) - 2)
    return [length for length in range(start, hi + 1) if lo < length <= hi]


class TestAnnuli:
    def test_radius_one_is_unit_sphere(self):
        for n in (2, 3, 7, 12):
            op = operator(degree=n)
            assert set(op.annulus(1)) == set(F2.sphere(1))

    def test_radius_zero_is_identity(self):
        assert operator().annulus(0) == (E,)

    def test_radius_zero_is_the_memoized_ball_zero(self):
        model = FreeGroup(2)
        assert operator(model=model).annulus(0) is model.ball(0)

    def test_lengths_match_float_thresholds(self):
        for n in (2, 3, 5, 10, 20):
            op = operator(degree=n)
            for r in (1, 2, 3, 4):
                assert list(op.annulus_lengths(r)) == \
                    float_threshold_lengths(r, n), (r, n)

    def test_integer_width_boundary_is_excluded(self):
        # N = 10 gives integer widths r^1; the strict lower bound must hold
        op = operator(degree=10)
        for r in (2, 3):
            lengths = list(op.annulus_lengths(r))
            assert lengths[0] == r**10 - r + 1
            assert len(lengths) == r

    def test_degree_two_radius_three_size(self):
        op = operator(degree=2)
        assert list(op.annulus_lengths(3)) == [8, 9]
        with pytest.raises(EnumerationTooLarge) as info:  # predicted, unfilled
            operator(model=FreeGroup(2), cap=1).annulus(3)
        assert info.value.bound == 4 * 3**7 + 4 * 3**8 == 34992
        assert len(op.annulus(3)) == 34992

    def test_disjointness(self):
        for n in (2, 3, 12):
            operator(degree=n).check_annuli_disjoint(range(9))

    def test_range_check_matches_tenth_power_rule(self):
        for n in range(2, 31):
            op = operator(degree=n)
            for r1 in range(13):
                for r2 in range(r1 + 1, 13):
                    overlap = shells_overlap(r1, r2, n)
                    assert (op.annulus_lengths(r1).stop >
                            op.annulus_lengths(r2).start) == overlap
                    assert not overlap  # N >= 2 keeps every pair apart
                    op.check_annuli_disjoint([r2, r1])

    def test_range_check_matches_tenth_power_rule_where_shells_meet(self):
        # below the config's floor, at N = 1, the shell of r2 reaches r1
        # exactly when (r2 - r1)**10 < r2, as it does for 1023 and 1024
        op = operator()
        object.__setattr__(op.config, "degree", 1)
        overlaps = 0
        for r1 in range(1, 1100, 7):
            for r2 in range(r1 + 1, r1 + 4):
                overlap = shells_overlap(r1, r2, 1)
                overlaps += overlap
                if overlap:
                    with pytest.raises(RuntimeError, match=(
                            rf"^annuli for r={r1} and r={r2} overlap at N=1$")):
                        op.check_annuli_disjoint([r1, r2])
                else:
                    op.check_annuli_disjoint([r1, r2])
        assert overlaps > 100

    def test_forged_overlapping_lengths_refused(self, monkeypatch):
        op = operator()
        monkeypatch.setattr(op, "annulus_lengths", lambda r: range(r, r + 3))
        with pytest.raises(RuntimeError,
                           match=r"^annuli for r=1 and r=2 overlap at N=2$"):
            op._scaled_annuli([2, 1])

    def test_cap(self):
        op = operator(cap=1000)
        with pytest.raises(EnumerationTooLarge):
            op.annulus(3)
        # the failure reports the computed bound
        try:
            op.annulus(3)
        except EnumerationTooLarge as exc:
            assert exc.bound == 34992 and exc.cap == 1000

    def test_astronomical_annuli_fail_fast(self):
        op = operator(degree=3)
        with pytest.raises(EnumerationTooLarge):
            op.annulus(3)  # lengths {26, 27}: ~1.4e13 elements

    def test_memoization_is_stable(self):
        op = operator()
        assert op.annulus(2) is op.annulus(2)

    def test_filled_annulus_still_refused_past_a_lower_cap(self):
        # operators over one model share its memo; each call checks its cap
        model = FreeGroup(2)
        assert len(operator(model=model).annulus(3)) == 34992
        with pytest.raises(EnumerationTooLarge) as info:
            operator(model=model, cap=1000).annulus(3)
        assert info.value.bound == 34992 and info.value.cap == 1000
        assert str(info.value) == ("annulus(r=3, N=2) of free:2: predicted "
                                   "size 34992 exceeds cap 1000")

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    def test_annuli_are_inverse_closed(self, model):
        # the cone reads each annulus as its own set of re-based cone points
        op = operator(model=model)
        for r in range(4):
            annulus = op.annulus(r)
            assert set(map(model.inverse, annulus)) == set(annulus)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnnuliConfig(degree=1)
        assert not AnnuliConfig(degree=2).conforming
        assert AnnuliConfig(degree=12).conforming


class TestCone:
    def test_single_edge(self):
        op = operator()
        coned = op.cone(Chain.single(F2, (A,)))
        assert len(coned) == 4
        assert all(value == Fraction(1, 4) for _, value in coned.terms())
        assert coned.coefficient((w(-1), E)) == Fraction(1, 4)

    def test_zero_and_linearity(self):
        op = operator()
        assert op.cone(Chain.zero(F2, 1)).is_zero()
        rng = random.Random(19)
        spec = RandomChainSpec(degree=1, support=4, radius=2)
        for _ in range(10):
            c = random_chain(F2, spec, rng)
            d = random_chain(F2, spec, rng)
            lam = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            assert op.cone(c.scale(lam)) == op.cone(c).scale(lam)
            assert op.cone(c + d) == op.cone(c) + op.cone(d)

    def test_mass_preserved_per_simplex(self):
        op = operator()
        c = Chain.single(F2, (w(1, 2),), Fraction(5, 3))
        coned = op.cone(c)
        assert coefficient_sum(coned) == Fraction(5, 3)
        assert len(coned) == len(op.annulus(2))

    def test_degenerate_simplex_coned_on_identity(self):
        op = operator()
        coned = op.cone(Chain.single(F2, (E, E)))
        assert coned.coefficient((E, E, E)) == 1 and len(coned) == 1

    def test_empty_annulus_in_finite_group(self):
        op = operator(model=Cyclic(7))
        chain = Chain.single(Cyclic(7), (3,))  # diameter 3, lengths {8, 9}
        with pytest.raises(EmptyAnnulus):
            op.cone(chain)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    def test_matches_term_by_term_reference(self, model):
        op = operator(model=model)
        ball = model.ball(2)
        rng = random.Random(59)
        for degree in (0, 1, 2):
            for _ in range(5):
                terms = []
                while len(terms) < 3:
                    s = tuple(rng.choice(ball) for _ in range(degree))
                    if model.diameter(s) <= 2:
                        terms.append((s, Fraction(rng.randint(1, 5),
                                                  rng.randint(1, 3))))
                c = Chain.from_terms(model, degree, terms)
                assert op.cone(c) == reference_cone(op, c)

    def test_cone_during_annulus_fill(self, monkeypatch):
        # a cone racing the first fill of its annulus must wait for the
        # whole memo: iter_sphere blocks the filling thread at the annulus's
        # last sphere, so a fill that stores its entry sphere by sphere hands
        # the racing cone part of the annulus before the release
        model = FreeGroup(2)
        op = operator(model=model)
        last = op.annulus_lengths(2)[-1]
        filling, release = threading.Event(), threading.Event()
        filler = threading.Thread(target=op.annulus, args=(2,))
        original = model.iter_sphere

        def iter_sphere(r):
            if threading.current_thread() is filler and r == last:
                filling.set()
                release.wait(10)
            return original(r)

        monkeypatch.setattr(model, "iter_sphere", iter_sphere)
        c = Chain.single(model, (w(1, 2),), Fraction(1, 3))
        coned = []
        racer = threading.Thread(target=lambda: coned.append(op.cone(c)))
        filler.start()
        try:
            assert filling.wait(10)
            racer.start()
            racer.join(0.2)
            returned_before_release = not racer.is_alive()
        finally:
            release.set()
            filler.join(10)
            racer.join(10)
        assert not filler.is_alive() and not racer.is_alive()
        assert not returned_before_release
        assert coned == [reference_cone(op, c)]

    def test_forged_repeated_cone_point_collides(self, monkeypatch):
        op = operator()
        monkeypatch.setattr(op, "annulus", lambda r: (A, w(2), A, w(-1)))
        with pytest.raises(AssertionError, match=(
                r"^cone outputs collided; the accumulation control is broken$")):
            op.cone(Chain.single(F2, (w(1, 2),)))

    def test_different_model_rejected(self):
        with pytest.raises(ValueError):
            operator().cone(Chain.single(Z2, ((1, 0),)))


class TestChainMap:
    def test_single_edge_expansion(self):
        op = operator()
        mapped = op.chain_map(Chain.single(F2, (A,)))
        quarter = Fraction(1, 4)
        expected = Chain.from_terms(F2, 1, [
            ((E,), quarter), ((w(1, 1),), quarter),
            ((w(-2, 1),), quarter), ((w(2, 1),), quarter),
            ((A,), -quarter), ((w(-1),), -quarter),
            ((w(2),), -quarter), ((w(-2),), -quarter),
        ])
        assert mapped == expected

    def test_matches_operator_composition(self):
        op = operator()
        rng = random.Random(37)
        ball = F2.ball(2)
        for degree in (1, 2, 3):
            for _ in range(15):
                terms = []
                while len(terms) < 4:
                    s = tuple(ball[rng.randrange(len(ball))]
                              for _ in range(degree))
                    if F2.diameter(s) <= 2:
                        terms.append(
                            (s, Fraction(rng.randint(-5, 5) or 1,
                                         rng.randint(1, 3))))
                c = Chain.from_terms(F2, degree, terms)
                d_c = boundary(c)
                composed = c - boundary(op.cone(c))
                if d_c:
                    composed = composed - op.cone(d_c)
                assert op.chain_map(c) == composed

    @pytest.mark.parametrize("model", [
        F2, Z2, parse_model("product:[free:2,cyclic:5]")])
    def test_degenerate_simplices_match_operator_composition(self, model):
        # faces of a repeated vertex coincide; each must still be dropped or
        # kept exactly as the composition does, leaving no zero numerator
        op = operator(model=model)
        ball = model.ball(1)
        shapes = [(g, g) for g in ball] + [(g, g, g) for g in ball]
        for g in ball:
            for h in ball:
                if g != h:
                    shapes += [(g, g, h), (h, g, g), (g, h, h)]
        for s in shapes:
            c = Chain.single(model, s, Fraction(2, 3))
            composed = c - boundary(op.cone(c)) - op.cone(boundary(c))
            mapped = op.chain_map(c)
            assert mapped == composed
            assert all(coeff for _, coeff in mapped.terms())

    def test_degree_zero_fixed(self):
        op = operator()
        c = Chain.single(F2, (), Fraction(2, 3))
        assert op.chain_map(c) == c
        assert boundary(op.cone(c)).is_zero()

    def test_homotopy_identity_exact(self):
        op = operator()
        rng = random.Random(43)
        for degree in (1, 2):
            spec = RandomChainSpec(degree=degree, support=3, radius=2,
                                   max_diameter=2)
            for _ in range(20):
                c = random_chain(F2, spec, rng)
                mapped = op.chain_map(c)
                rhs = boundary(op.cone(c))
                d_c = boundary(c)
                if d_c:
                    rhs = rhs + op.cone(d_c)
                assert c - mapped == rhs

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_homotopy_identity_property(self, model, data):
        # c − E(c) = ∂B(c) + B(∂c) at N = 2 on chains of diameter <= 2
        op = operator(model=model)
        ball = model.ball(2)
        degree = data.draw(st.integers(1, 3), label="degree")
        simplex = st.tuples(*[st.sampled_from(ball)] * degree).filter(
            lambda s: model.diameter(s) <= 2)
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        terms = data.draw(st.lists(st.tuples(simplex, coeff), min_size=1,
                                   max_size=3), label="terms")
        c = Chain.from_terms(model, degree, terms)
        assert c - op.chain_map(c) == \
            boundary(op.cone(c)) + op.cone(boundary(c))

    def test_is_chain_map(self):
        op = operator()
        rng = random.Random(47)
        spec = RandomChainSpec(degree=2, support=3, radius=1)
        for _ in range(200):
            c = random_chain(F2, spec, rng)
            assert boundary(op.chain_map(c)) == op.chain_map(boundary(c))

    def test_cycle_case(self):
        op = operator()
        c = Chain.single(F2, (A,))  # degree-1 chains are cycles
        assert op.chain_map(c) == c - boundary(op.cone(c))



def small_chains(model, degrees=(1, 2), seed=71):
    """Three-simplex chains of diameter <= 2 per degree, from a fixed seed."""
    rng = random.Random(seed)
    for degree in degrees:
        spec = RandomChainSpec(degree=degree, support=3, radius=2,
                               max_diameter=2)
        for _ in range(4):
            yield random_chain(model, spec, rng)


def count_multiplies(monkeypatch, model):
    """A list that grows by one per ``model.multiply`` call (still run)."""
    calls = []
    original = model.multiply

    def multiply(g, h):
        calls.append(None)
        return original(g, h)

    monkeypatch.setattr(model, "multiply", multiply)
    return calls


class TestTranslationMemo:
    @pytest.mark.parametrize("model", [FreeGroup(2), FreeAbelian(2)],
                             ids=lambda m: m.describe())
    def test_cones_after_the_map_multiply_nothing(self, model, monkeypatch):
        # one pass makes each annulus·vertex product once: the cones of
        # c and ∂c read every translate the map has just made
        for c in small_chains(model):
            op = operator(model=model)
            d_c = boundary(c)
            calls = count_multiplies(monkeypatch, model)
            op.chain_map(c)
            by_map = len(calls)
            coned, coned_d = op.cone(c), op.cone(d_c)
            assert len(calls) == by_map
            monkeypatch.undo()
            assert coned == reference_cone(op, c)
            assert coned_d == reference_cone(op, d_c)

    def test_cone_alone_stores_nothing(self):
        op = operator()
        for c in small_chains(F2):
            assert op.cone(c) == reference_cone(op, c)
        assert op._translations == {}

    def test_memo_holds_the_last_map_only(self):
        op, fresh = operator(), operator()
        c1, c2 = list(small_chains(F2, degrees=(2,)))[:2]
        op.chain_map(c1)
        assert op._translations
        op.chain_map(c2)
        fresh.chain_map(c2)
        assert op._translations.keys() == fresh._translations.keys()
        op.chain_map(Chain.zero(F2, 2))
        assert op._translations == {}

    def test_cone_during_chain_map(self, monkeypatch):
        # a cone racing a map reads only whole translates: model.multiply
        # blocks the mapping thread once its memo holds a first entry
        model = FreeGroup(2)
        op = operator(model=model)
        for r in range(3):
            op.annulus(r)
        c = Chain.single(model, (w(1, 2), w(2)), Fraction(1, 3))
        expected = reference_cone(op, c)
        filling, release = threading.Event(), threading.Event()
        mapper = threading.Thread(target=op.chain_map, args=(c,))
        original = model.multiply

        def multiply(g, h):
            if threading.current_thread() is mapper and op._translations:
                filling.set()
                release.wait(10)
            return original(g, h)

        monkeypatch.setattr(model, "multiply", multiply)
        mapper.start()
        try:
            while mapper.is_alive() and not filling.wait(0.01):
                pass
            coned = op.cone(c)
        finally:
            release.set()
            mapper.join(10)
        assert filling.is_set() and not mapper.is_alive()
        assert coned == expected


def spy_passed_diameters(mp):
    """``(passed, model.diameters)`` per diameter list handed to the norms'
    ``_weight_profile`` from ``diffusion`` (the profile still reads it)."""
    seen = []
    original = diffusion._weight_profile

    def spy(chain, diameters=None):
        if diameters is not None:
            diameters = list(diameters)
            seen.append((diameters, list(
                chain.model.diameters(chain._numer, chain.degree))))
        return original(chain, diameters)

    mp.setattr(diffusion, "_weight_profile", spy)
    return seen


class TestConeDiameters:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_vertex_lengths_are_the_diameters(self, model, data):
        # the cone's profile reads its simplices' largest vertex lengths;
        # they must be the diameters, degenerate and r = 0 simplices included
        n_deg = data.draw(st.sampled_from((2, 3)), label="N")
        degree = data.draw(st.integers(0, 2), label="degree")
        radius = 2 if n_deg == 2 else 1
        ball = model.ball(radius)
        simplex = st.tuples(*[st.sampled_from(ball)] * degree).filter(
            lambda s: model.diameter(s) <= radius)
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        terms = data.draw(st.lists(st.tuples(simplex, coeff), max_size=3),
                          label="terms")
        c = Chain.from_terms(model, degree, terms)
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_passed_diameters(mp)
            report = operator(model=model, degree=n_deg).estimate_report(
                c, 1, 2, 4, ratio_exponent=2)
        [(passed, expected)] = seen
        assert passed == expected
        assert len(passed) == len(report.cone)

    def test_degree_zero_and_empty_sources(self, monkeypatch):
        # a degree-0 source gives one vertex column, an empty chain none
        seen = spy_passed_diameters(monkeypatch)
        op = operator()
        op.estimate_report(Chain.single(F2, (), Fraction(1, 2)), 1, 2, 4, 2)
        op.estimate_report(Chain.zero(F2, 1), 1, 2, 4, 2)
        assert seen == [([0], [0]), ([], [])]

class TestAccumulation:
    def test_single_simplex(self):
        op = operator()
        assert accumulation_check(op, Chain.single(F2, (A, w(1, 2)))) == \
            (len(op.annulus(2)), [])

    def test_exhaustive_small_ball(self):
        op = operator()
        ball = [g for g in F2.ball(2) if g != E]
        edges = Chain.from_terms(F2, 1, [((g,), 1) for g in ball])
        assert accumulation_check(op, edges)[1] == []
        pairs = [(g, h) for g in ball for h in ball
                 if F2.diameter((g, h)) <= 2][:60]
        triangles = Chain.from_terms(F2, 2, [(s, 1) for s in pairs])
        assert accumulation_check(op, triangles)[1] == []

    def test_lattice_random_chains(self):
        op = operator(model=Z2)
        rng = random.Random(53)
        spec = RandomChainSpec(degree=2, support=100, radius=3,
                               max_diameter=3)
        for _ in range(3):
            c = random_chain(Z2, spec, rng)
            assert accumulation_check(op, c)[1] == []

    def test_diameter_bound_is_two_r_to_the_n(self):
        op = operator()
        c = Chain.single(F2, (w(1, 2),))
        r = F2.diameter((w(1, 2),))
        bound = 2 * r**2
        for s in op.cone(c).support():
            assert F2.diameter(s) <= bound


class TestEstimateReport:
    def test_single_edge_bound(self):
        report = operator().estimate_report(
            Chain.single(F2, (A,)), 0, 2, 4, ratio_exponent=0)
        assert report.bound_ok
        assert abs(report.bound_lhs - (4 * 0.25**2) ** 0.5) < 1e-12
        assert report.bound_rhs == 1.0
        assert not report.conforming

    def test_empty_chain_ratios(self):
        report = operator().estimate_report(
            Chain.zero(F2, 1), 1, 2, 4, ratio_exponent=2)
        assert report.bound_lhs == report.bound_rhs == 0.0
        assert report.ratio_map == report.ratio_cone == 0.0
        assert report.ratio_boundary_cone == 0.0 and report.bound_ok

    def test_requires_ordered_exponents(self):
        with pytest.raises(ValueError):
            operator().estimate_report(Chain.single(F2, (A,)), 0, 4, 2, 0)

    def test_explicit_bound_sweep(self):
        rng = random.Random(61)
        for model, radius in ((F2, 2), (Z2, 3)):
            op = operator(model=model)
            spec = RandomChainSpec(degree=1, support=4, radius=radius)
            for _ in range(25):
                c = random_chain(model, spec, rng)
                for n in (0, 1, 2):
                    for p, q in ((1.5, 3), (2, 4)):
                        report = op.estimate_report(c, n, p, q, 2 * n)
                        assert report.bound_ok

    def test_conforming_flag(self):
        op = operator(degree=12)
        report = op.estimate_report(Chain.single(F2, (A,)), 0, 2, 4, 0)
        assert report.conforming and report.bound_ok


class TestExplicitBoundDirect:
    def test_matches_norm_inequality(self):
        # the asserted bound recomputed through the public norm API
        op = operator()
        rng = random.Random(67)
        spec = RandomChainSpec(degree=1, support=5, radius=2)
        for _ in range(20):
            c = random_chain(F2, spec, rng)
            coned = op.cone(c)
            for n in (0, 1, 2):
                for p in (1.5, 2.0, 3.0):
                    lhs = weighted_norm(coned, n, p)
                    rhs = 2 ** (n / p) * weighted_norm(c, 2 * n, p)
                    assert lhs <= rhs * (1 + 1e-9)
