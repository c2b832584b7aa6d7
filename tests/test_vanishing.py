import builtins
import gc
import sys
import threading
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

from barnorm import chains, vanishing
from barnorm.chains import Chain, boundary
from barnorm.errors import CollisionDetected, EnumerationTooLarge
from barnorm.groups import FreeGroup, GroupModel
from barnorm.harness import run_f2
from barnorm.norms import INF, _weight_profile, weighted_norm, weighted_power_sum
from barnorm.vanishing import (
    ALPHA,
    BETA,
    LevelData,
    VanishingConstruction,
    markers,
    suffix_pair,
)
from oracles import cone_simplices, level_markers

w = FreeGroup(2).word


@pytest.fixture(scope="module")
def construction():
    return VanishingConstruction()


class TestSuffixes:
    def test_level_zero_is_empty(self):
        assert suffix_pair(0) == (b"", b"")

    def test_small_levels(self):
        assert suffix_pair(1) == (w(1, 2), w(2, 1))
        assert suffix_pair(3) == (w(1, 1, 1, 2, 2, 2), w(2, 2, 2, 1, 1, 1))


def spy_sorted(monkeypatch):
    """Patch ``sorted`` to record every ``bytes`` item it is given."""
    seen, original = [], builtins.sorted

    def spy(iterable, *args, **kwargs):
        items = list(iterable)
        seen.extend(item for item in items if isinstance(item, bytes))
        return original(items, *args, **kwargs)

    monkeypatch.setattr(builtins, "sorted", spy)
    return seen


def words_of(construction):
    """Every word of every stored level."""
    return set().union(*(data.signs for data in construction._levels))


class TestLevels:
    def test_level_zero(self, construction):
        data = construction.level(0)
        assert tuple(data.signs) == (ALPHA,)
        assert list(markers(0)) == [b""]
        assert data.signs[ALPHA] == 1

    def test_level_one_words(self, construction):
        words = set(construction.level(1).signs)
        assert words == {w(1, 1, 2), w(1, 2), w(1, 2, 1), w(2, 1)}

    def test_level_one_signs(self, construction):
        signs = construction.level(1).signs
        assert signs[w(1, 1, 2)] == 1   # child of type x·m·s
        assert signs[w(1, 2)] == -1     # child of type m·s
        assert signs[w(1, 2, 1)] == 1   # child of type x·m·t
        assert signs[w(2, 1)] == -1     # child of type m·t

    def test_level_one_markers_shortlex(self, construction):
        for table in (dict(zip(construction.level(1).signs, markers(1))),
                      level_markers(construction.level(1))):
            assert table[w(1, 2)] == w(1, 1)
            assert table[w(2, 1)] == w(1, 2)
            assert table[w(1, 1, 2)] == w(2, 1)
            assert table[w(1, 2, 1)] == w(2, 2)

    @pytest.mark.parametrize("d", range(7))
    def test_sizes_and_injectivity(self, construction, d):
        data = construction.level(d)
        assert len(data.signs) == 4**d
        level = set(markers(d))
        assert len(level) == 4**d
        assert all(len(m) == 2 * d for m in level)
        # positive words only: no inverse letters ever appear
        assert all(set(x) <= set(ALPHA + BETA) for x in data.signs)

    @pytest.mark.parametrize("d", range(7))
    def test_markers_are_the_shortlex_index(self, construction, d):
        # the level is built in shortlex order, so the i-th key's marker is
        # the 2d-digit base-2 expansion of i, which the sorting oracle agrees on
        data = construction.level(d)
        assert list(data.signs) == sorted(data.signs, key=lambda x: (len(x), x))
        expected = [b"".join(BETA if (i >> k) & 1 else ALPHA
                             for k in reversed(range(2 * d)))
                    for i in range(4**d)]
        assert list(markers(d)) == expected
        assert list(level_markers(data).values()) == expected

    def test_top_level_builds_no_markers(self, monkeypatch):
        # run_f2(L) generates level L + 1 for the cone tips; nothing cones
        # it, so only levels 0..L derive markers: one stream to store each
        # level d + 1 < L + 1, and one for each chunk's tips (levels 1..L
        # again, since chunks take their tips from the one generator path)
        levels = []

        def spy(d, *suffixes):
            levels.append(d)
            return markers(d, *suffixes)

        monkeypatch.setattr(vanishing, "markers", spy)
        run_f2(3, [(0, 3)])
        assert Counter(levels) == {0: 2, 1: 2, 2: 2, 3: 1}
        assert [f.name for f in fields(LevelData)] == ["level", "signs"]

    def test_markers_out_of_shortlex_order_are_violations(self, monkeypatch):
        # parts taken in reverse order still give a valid construction, but
        # from level 1 on the key order is not shortlex, so the i-th word's
        # marker is not i in base 2: f2-levels counts one violation per level
        original = vanishing.markers
        monkeypatch.setattr(vanishing, "markers",
                            lambda d, *suffixes: reversed(list(original(d, *suffixes))))
        result = run_f2(3, [(0, 3)])
        _, rows, violations = result["f2-levels"]
        assert [row["markers_injective"] for row in rows] == [True] + [False] * 3
        assert violations == 3
        assert all(row["telescoping_ok"] for row in result["f2-decay"][1])

    def test_top_level_is_never_sorted(self, monkeypatch):
        # levels are built in shortlex order, so no level is ever sorted
        sorted_words = spy_sorted(monkeypatch)
        construction = VanishingConstruction()
        construction.decay_table(3, [(0, 3)])
        monkeypatch.undo()
        assert not set(sorted_words) & words_of(construction)
        assert [f.name for f in fields(LevelData)] == ["level", "signs"]

    def test_run_f2_sorts_no_level_and_keeps_no_markers(self, monkeypatch):
        sorted_words, constructions = spy_sorted(monkeypatch), []
        original = VanishingConstruction._build_next

        def build_next(self):
            original(self)
            constructions.append(self)

        monkeypatch.setattr(VanishingConstruction, "_build_next", build_next)
        run_f2(3, [(0, 3)])
        monkeypatch.undo()
        construction = constructions[-1]
        assert len(construction._levels) == 4
        assert not set(sorted_words) & words_of(construction)
        # no marker table on the construction or on any level
        assert set(vars(construction)) == {"model", "cap", "_levels", "_lock"}
        assert all(set(vars(data)) == {"level", "signs"}
                   for data in construction._levels)

    def test_concurrent_callers_share_each_level(self):
        # four threads ask a fresh construction for level 6 at once, with
        # thread switches forced every microsecond: one of them builds each
        # level, and all four get the same table
        construction, results = VanishingConstruction(), [None] * 4

        def call(k):
            results[k] = construction.level(6)

        threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
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
        assert isinstance(results[0], LevelData) and results[0].level == 6
        assert all(data is results[0] for data in results)
        assert [data.level for data in construction._levels] == list(range(7))

    def test_word_length_growth(self, construction):
        for d in range(7):
            bound = 1 + sum(4 * j - 2 for j in range(1, d + 1))
            realized = max(map(len, construction.level(d).signs))
            assert realized <= bound == 2 * d * d + 1

    def test_level_cap(self):
        small = VanishingConstruction(cap=16)
        with pytest.raises(EnumerationTooLarge, match="F2 level 3: "
                           "predicted size 64 exceeds cap 16"):
            small.level(3)
        assert len(small._levels) == 1  # refused before anything was built
        assert len(small.level(2).signs) == 16
        with pytest.raises(EnumerationTooLarge) as info:
            VanishingConstruction().level(10**8)  # 4**(10**8) is not computed
        assert info.value.bound == INF

    def test_negative_level_rejected(self):
        construction = VanishingConstruction()
        construction.level(3)
        with pytest.raises(ValueError, match="level must be >= 0, got -1"):
            construction.level(-1)  # not read from the end of the levels

    @pytest.mark.parametrize("top", [0, 3])
    @pytest.mark.parametrize("build", [
        lambda top: run_f2(top, [(0, 3)]),
        lambda top: VanishingConstruction().decay_table(top, [(0, 3)])],
        ids=["run_f2", "decay_table"])
    def test_builds_exactly_the_levels_asked_for(self, monkeypatch, build, top):
        # the top chunk's tips are generated, so level top + 1 is never built
        built = []
        original = VanishingConstruction._build_next

        def build_next(self):
            original(self)
            built.append(len(self._levels) - 1)

        monkeypatch.setattr(VanishingConstruction, "_build_next", build_next)
        build(top)
        assert built == list(range(1, top + 1))


class TestConeSimplices:
    def test_level_zero_pair(self, construction):
        s_a, t_a = cone_simplices(construction, ALPHA, 0)
        assert s_a == (w(1), w(1, 1, 2))
        assert t_a == (w(1), w(1, 2, 1))

    def test_diameter(self, construction):
        s_a, _ = cone_simplices(construction, ALPHA, 0)
        assert construction.model.diameter(s_a) == 3

    def test_diameter_bound_all_levels(self, construction):
        model = construction.model
        for d in range(5):
            table = level_markers(construction.level(d))
            for x in table:
                s_x, t_x = cone_simplices(construction, x, d, table)
                bound = len(x) + 4 * d + 2
                assert model.diameter(s_x) <= bound
                assert model.diameter(t_x) <= bound

    def test_boundary_expansion(self, construction):
        s_a, t_a = cone_simplices(construction, ALPHA, 0)
        st = Chain.from_terms(construction.model, 2, [(s_a, 1), (t_a, 1)])
        bd = boundary(st)
        assert bd.coefficient((w(1),)) == 2
        assert bd.coefficient((w(1, 2),)) == 1
        assert bd.coefficient((w(2, 1),)) == 1
        assert bd.coefficient((w(1, 1, 2),)) == -1
        assert bd.coefficient((w(1, 2, 1),)) == -1
        assert len(bd) == 5

    def test_unknown_word_rejected(self, construction):
        with pytest.raises(ValueError):
            cone_simplices(construction, w(2), 0)

    def test_negative_level_rejected(self, construction):
        construction.level(3)
        with pytest.raises(ValueError, match="level must be >= 0"):
            cone_simplices(construction, ALPHA, -1)


class TestPartialSums:
    def test_level_zero_sum(self, construction):
        b0 = construction.partial_sum(0)
        s_a, t_a = cone_simplices(construction, ALPHA, 0)
        assert b0.coefficient(s_a) == Fraction(1, 2)
        assert b0.coefficient(t_a) == Fraction(1, 2)
        assert len(b0) == 2

    def test_support_sizes(self, construction):
        assert len(construction.partial_sum(2)) == 42
        assert len(construction.partial_sum(5)) == 2730

    def test_uniform_coefficients_per_level(self, construction):
        for d in range(4):
            chunk = construction.level_chunk(d)
            expected = Fraction(1, 2 ** (d + 1))
            assert all(abs(v) == expected for _, v in chunk.terms())

    def test_coefficient_mass_closed_form(self, construction):
        for top in range(5):
            mass = weighted_power_sum(construction.partial_sum(top), 0, 1)
            assert mass == 2 ** (top + 1) - 1


class TestTelescoping:
    def test_level_zero_by_hand(self, construction):
        tail = construction.boundary_tail(0)
        half = Fraction(1, 2)
        assert tail.coefficient((w(1, 2),)) == half
        assert tail.coefficient((w(2, 1),)) == half
        assert tail.coefficient((w(1, 1, 2),)) == -half
        assert tail.coefficient((w(1, 2, 1),)) == -half
        assert len(tail) == 4

    @pytest.mark.parametrize("top", range(6))
    def test_exact_identity(self, construction, top):
        tail = construction.boundary_tail(top)
        assert len(tail) == 4 ** (top + 1)
        # tail coefficients all have magnitude 1/2^(top+1)
        expected = Fraction(1, 2 ** (top + 1))
        assert all(abs(v) == expected for _, v in tail.terms())

    @pytest.mark.parametrize("top", range(6))
    def test_running_boundary_matches_the_generic_one(self, construction, top):
        # the telescope adds each chunk's faces onto the running ∂b; the
        # generic boundary of the whole partial sum must agree with it
        assert (boundary(construction.partial_sum(top))
                == construction.boundary_tail(top)
                + Chain.single(construction.model, (ALPHA,)))

    @pytest.mark.parametrize("top", [0, 3])
    def test_tail_is_the_next_edge_sum(self, construction, top):
        assert (construction.boundary_tail(top)
                == -construction.edge_sum(top + 1))

    @pytest.mark.parametrize("forge", [
        lambda numer, _: numer.update({next(iter(numer)): -1}),
        lambda numer, _: numer.pop(list(numer)[1]),
        lambda numer, below: numer.update({next(iter(below)): 1})],
        ids=["flipped-sign", "dropped-tip", "foreign-simplex"])
    def test_forged_top_chunk_fails_the_identity(self, monkeypatch, forge):
        # the identity is checked against the top chunk's own simplices, so
        # each forgery leaves an [e,x] uncancelled or a face unmatched
        top, original = 2, VanishingConstruction.level_chunk

        def level_chunk(self, d):
            chunk = original(self, d)
            if d == top:
                numer = dict(chunk._numer)
                forge(numer, original(self, d - 1)._numer)
                chunk = Chain(self.model, 2, chunk._denom, numer)
            return chunk

        monkeypatch.setattr(VanishingConstruction, "level_chunk", level_chunk)
        construction = VanishingConstruction()
        construction.boundary_tail(top - 1)
        with pytest.raises(AssertionError, match=f"failed at level {top}"):
            construction.boundary_tail(top)

    def test_forged_tip_not_starting_with_its_base_fails(self, monkeypatch):
        # two same-sign simplices of chunk(2) swap their bases x: every [e,x]
        # still cancels and ∂b(2) keeps its support size, but a tip that does
        # not start with its base has no part past it
        top, original = 2, VanishingConstruction.level_chunk

        def level_chunk(self, d):
            chunk = original(self, d)
            if d == top:
                numer = dict(chunk._numer)
                (x, tip), sign = next(iter(numer.items()))
                y, other = next(key for key, a in numer.items()
                                if a == sign and key[0] != x)
                del numer[x, tip], numer[y, other]
                numer[y, tip] = numer[x, other] = sign
                chunk = Chain(self.model, 2, chunk._denom, numer)
            return chunk

        monkeypatch.setattr(VanishingConstruction, "level_chunk", level_chunk)
        construction = VanishingConstruction()
        construction.boundary_tail(top - 1)
        with pytest.raises(AssertionError, match=f"failed at level {top}"):
            construction.boundary_tail(top)

    def test_no_earlier_level_reachable_while_faces_accumulate(
            self, monkeypatch):
        # while chunk(d)'s faces are added, the only chain of the
        # construction alive is chunk(d): ∂b(d−1) and chunk(d−1) are released
        # (Python 3.10 keeps a call's arguments, so ∂b(d−1), on the caller's
        # stack until it returns)
        kept = sys.version_info < (3, 11)
        construction = VanishingConstruction()
        alive = []
        original = chains._accumulate

        def accumulate(out, pairs):
            alive.append(sorted(
                (chain.degree, chain._denom) for chain in gc.get_objects()
                if isinstance(chain, Chain)
                and chain.model is construction.model))
            original(out, pairs)

        monkeypatch.setattr(chains, "_accumulate", accumulate)
        construction.decay_table(4, [(0, 3), (1, 2.5)])
        assert alive == [[(1, 2**d)] * kept + [(2, 2 ** (d + 1))]
                         for d in range(5)]


class TestDecay:
    def test_closed_forms_at_weight_zero(self, construction):
        rows = construction.decay_table(6, [(0, 3), (0, 2)])
        for row in rows:
            if row.p == 3:
                inc = (2 * 4**row.level) ** (1 / 3) / 2 ** (row.level + 1)
                tail = (4 ** (row.level + 1)) ** (1 / 3) / 2 ** (row.level + 1)
                assert abs(row.increment_norm - inc) <= 1e-9 * inc
                assert abs(row.tail_norm - tail) <= 1e-9 * tail
                assert row.decreasing_from == 1
            else:
                assert abs(row.increment_norm - 2**0.5 / 2) <= 1e-9
                assert row.decreasing_from is None

    def test_decrease_kicks_in_within_range(self, construction):
        rows = construction.decay_table(6, [(1, 3)])
        assert rows[0].decreasing_from is not None

    def test_envelope_holds_for_weighted_norms(self, construction):
        # raises internally if the counted-support envelope were violated
        rows = construction.decay_table(5, [(n, p) for n in (0, 1, 2)
                                            for p in (3, 4)])
        for row in rows:
            assert row.increment_norm <= row.envelope * (1 + 1e-9)

    def test_stagnation_at_p_two_vs_decay_above(self, construction):
        rows3 = [r for r in construction.decay_table(6, [(0, 3)])]
        rows2 = [r for r in construction.decay_table(6, [(0, 2)])]
        incs3 = [r.increment_norm for r in rows3]
        incs2 = [r.increment_norm for r in rows2]
        assert all(a > b for a, b in zip(incs3, incs3[1:]))
        assert max(incs2) - min(incs2) <= 1e-9 * max(incs2)


def reference_chunk(construction, d):
    """The chunk built term by term through ``Chain.from_terms``."""
    data = construction.level(d)
    table, terms = level_markers(data), []
    for x, sign in data.signs.items():
        value = Fraction(sign, 2 ** (d + 1))
        terms += [(simplex, value)
                  for simplex in cone_simplices(construction, x, d, table)]
    return Chain.from_terms(construction.model, 2, terms)


def reference_edge_sum(construction, d):
    data = construction.level(d)
    return Chain.from_terms(
        construction.model, 1,
        [((y,), Fraction(sign, 2**d)) for y, sign in data.signs.items()])


class TestDirectChains:
    @pytest.mark.parametrize("d", range(6))
    def test_chunks_and_edge_sums_match_reference(self, construction, d):
        assert construction.level_chunk(d) == reference_chunk(construction, d)
        assert construction.edge_sum(d) == reference_edge_sum(construction, d)

    def test_each_word_validated_once(self, monkeypatch):
        calls, checked = [], []
        original, check_positive = FreeGroup.validate, vanishing._check_positive

        def validate(self, g):
            calls.append(g)
            return original(self, g)

        def spy(model, words):
            words = list(words)
            checked.extend(words)
            check_positive(model, words)

        monkeypatch.setattr(FreeGroup, "validate", validate)
        monkeypatch.setattr(vanishing, "_check_positive", spy)
        VanishingConstruction().decay_table(4, [(0, 3)])
        # each stored level once (the 340 words of levels 1..4; level 0 is
        # the literal α) and each chunk's tips once (682 for levels 0..4),
        # one C-level pass each: validate only names a failure
        assert len(checked) == 340 + 682
        assert len(set(checked)) == 340 + 512  # the top tips are new
        assert calls == []

    def test_chunk_needs_the_next_level(self):
        small = VanishingConstruction(cap=16)
        assert len(small.level_chunk(1)) == 8
        with pytest.raises(EnumerationTooLarge, match="F2 level 3"):
            small.level_chunk(2)
        assert len(small._levels) == 2  # refused before level 2 was built

    def test_negative_level_rejected(self):
        construction = VanishingConstruction()
        construction.level(3)
        with pytest.raises(ValueError, match="level must be >= 0"):
            construction.level_chunk(-1)


class TestCollisionGuards:
    def test_forged_duplicate_detected(self):
        # a LevelData with the wrong cardinality must refuse to exist
        with pytest.raises(CollisionDetected):
            LevelData(1, {w(1, 2): 1})

    def test_forged_cross_level_collision_detected(self, monkeypatch):
        original = VanishingConstruction.level_chunk
        forgery = {}

        def level_chunk(self, d):
            return original(self, d) + forgery.get(d, Chain.zero(self.model, 2))

        monkeypatch.setattr(VanishingConstruction, "level_chunk", level_chunk)
        construction = VanishingConstruction()
        s_a, t_a = cone_simplices(construction, ALPHA, 0)
        # a 2-cycle through chunk(0)'s simplices, added to chunk(1), leaves
        # every ∂b(d) as it was, but chunk(1) grows by four simplices
        cycle = boundary(Chain.single(construction.model, (ALPHA, *s_a[1:],
                                                           *t_a[1:])))
        forgery[1] = cycle.scale(Fraction(1, 4))
        with pytest.raises(AssertionError, match="failed at level 1"):
            construction.boundary_tail(2)
        # −s(α)/2 + t(α)/2 in a top chunk(1) passes that check (its faces at
        # α cancel, and each simplex leaves −a at its tip and a past α), but
        # it cancels chunk(0)'s s(α) and merges with its t(α)
        forgery[1] = Chain.from_terms(construction.model, 2, [
            (s_a, Fraction(-1, 2)), (t_a, Fraction(1, 2))])
        construction.boundary_tail(1)
        with pytest.raises(CollisionDetected, match="support 9, expected 10"):
            construction.partial_sum(1)

    def test_forged_equal_suffixes_fail_the_identity(self, monkeypatch):
        # s = t gives each word one 2-simplex, so its [e,x] stays uncancelled
        monkeypatch.setattr(vanishing, "suffix_pair",
                            lambda d: (ALPHA * d + BETA * d,) * 2)
        with pytest.raises(AssertionError, match="failed at level 0"):
            VanishingConstruction().boundary_tail(0)
        with pytest.raises(CollisionDetected, match="has 2 distinct words"):
            VanishingConstruction().level(1)

    def test_forged_non_positive_child_validated(self, monkeypatch):
        # level 1's first word is the part m(α)·s = s; the unreduced suffix
        # α·α⁻¹ only the full check of validate can reject, while the
        # reduced α⁻¹ (and the chunk's tip α·β⁻¹) the positivity pass names
        monkeypatch.setattr(vanishing, "suffix_pair",
                            lambda d: (w(1) + w(-1), w(2)))
        with pytest.raises(ValueError, match="not reduced"):
            VanishingConstruction().level(1)
        monkeypatch.setattr(vanishing, "suffix_pair", lambda d: (w(-1), w(-2)))
        with pytest.raises(ValueError, match="'A' is not positive"):
            VanishingConstruction().level(1)
        monkeypatch.setattr(vanishing, "suffix_pair", lambda d: (w(-2), w(-1)))
        with pytest.raises(ValueError, match="is not positive"):
            VanishingConstruction().level(1)
        with pytest.raises(ValueError, match="is not positive"):
            VanishingConstruction().level_chunk(0)


def recomputed_profile(chain):
    """The weight profile of a copy of ``chain`` without the supplied one."""
    return _weight_profile(Chain(chain.model, chain.degree, chain._denom,
                                 dict(chain._numer)))


class TestStructuralProfiles:
    @pytest.mark.parametrize("d", range(6))
    def test_supplied_profiles_match_recomputed(self, construction, d):
        for chain in (construction.level_chunk(d), construction.edge_sum(d)):
            assert chain._profile is not None
            assert chain._profile == recomputed_profile(chain)
        # the tail is −edge_sum(d+1), so the two share one profile
        tail = construction.boundary_tail(d)
        assert _weight_profile(tail) == construction.edge_sum(d + 1)._profile

    def test_tail_norms_match_the_tail_chain(self, construction):
        params = [(n, p) for n in range(3) for p in (2, 2.5, 3, INF)]
        for row in construction.decay_table(5, params):
            tail = construction.boundary_tail(row.level)
            assert row.tail_norm == weighted_norm(tail, row.n, row.p)

    def test_decay_table_calls_no_diameter(self, monkeypatch):
        calls = []
        original = GroupModel.diameter
        original_columns = GroupModel.diameters

        def diameter(self, vertices):
            calls.append(vertices)
            return original(self, vertices)

        def diameters(self, simplices, degree):
            calls.extend(simplices)
            return original_columns(self, simplices, degree)

        monkeypatch.setattr(GroupModel, "diameter", diameter)
        monkeypatch.setattr(GroupModel, "diameters", diameters)
        VanishingConstruction().decay_table(5, [(1, 3)])
        assert calls == []
