"""The explicit rank-2 free group 2-chain whose boundary is a generator edge.

Writing ``α, β`` for the free generators, the construction maintains per
level ``d`` a set of ``4**d`` distinct positive words (the *level words*),
together with an injective *marker* word of length ``2d`` per level word and
a sign in ``{+1, −1}``.  Level 0 is ``{α}`` with the empty marker and sign
``+1``.  A word ``x`` at level ``d`` spawns four children at level ``d+1``
via the suffix pair ``s = α^{d+1} β^{d+1}``, ``t = β^{d+1} α^{d+1}``:

    x·m(x)·s  (sign of x),      m(x)·s  (opposite sign),
    x·m(x)·t  (sign of x),      m(x)·t  (opposite sign).

All words consist of non-negative generator powers, so no cancellation can
occur; distinctness of all children within a level is asserted at build time
rather than assumed, and each child is validated there, once.  Markers are
canonical: the level's words in shortlex order receive the base-2 expansions
of their index (α for digit 0, β for digit 1), left-padded to length ``2d``
— determinism makes every derived norm value reproducible.  A level stores
one table, word ↦ sign, in build order: per parent word (in its level's
build order) the tips ``x·m·s``, ``x·m·t``, then their parts past ``x``.
Its shortlex words and markers are derived on first read, so the top level
built (which nothing cones) is never sorted and never has markers.

Each level word ``x`` at level ``d`` carries two 2-simplices

    s(x) = [e, x, x·m(x)·s_{d+1}],    t(x) = [e, x, x·m(x)·t_{d+1}],

whose boundary contributes ``2[e,x]`` plus the four child edges with the
signs arranged so that the level sums telescope: with

    b(D) = Σ_{d<=D} Σ_{x in level d} ε(x)/2^{d+1} · (s(x) + t(x))

one gets exactly ``∂b(D) = [e,α] − Σ_{y in level D+1} ε(y)/2^{D+1}·[e,y]``.
The children are the cone tips (a chunk reads them back from the next level)
and their parts past ``x``, so chunks and edge sums are built directly as ``±1``
numerators over ``2^{d+1}`` and ``2^d``, with the weight profiles positive words
give (``diam(x, x·m·s) = |x·m·s|``, ``diam(y) = |y|``).  Chunk faces add onto
``∂b(d−1)``; the identity is checked key by key against level d+1's signs, whose
word lengths give the tail's profile ``{(1, |y|): count}``.  The tail norm at
weight degree 0 decays iff p > 2 (the decay table shows it: level-D increments
have ``2·4^D`` distinct simplices of equal |coefficient| ``1/2^{D+1}``); only
``partial_sum`` adds the chunks up to ``b(D)``.  A level whose ``4**d`` words
exceed the enumeration cap raises ``EnumerationTooLarge`` before it is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .chains import Chain, boundary
from .errors import CollisionDetected, EnumerationTooLarge
from .groups import DEFAULT_ENUM_CAP, FreeGroup
from .norms import (INF, _profile_norm, _weight_profile, leq_with_slack,
                    weighted_norm)

ALPHA, BETA = FreeGroup(2).positive_generators
_MARKER_DIGITS = bytes.maketrans(b"01", ALPHA + BETA)


def suffix_pair(d: int) -> tuple[bytes, bytes]:
    """The positive words ``α^d β^d`` and ``β^d α^d`` (both empty at d=0)."""
    if d < 0:
        raise ValueError("suffix index must be >= 0")
    return ALPHA * d + BETA * d, BETA * d + ALPHA * d


def _marker(index: int, width: int) -> bytes:
    # base-2 expansion of index, α for 0-digit, β for 1-digit, left-padded
    if not width:
        return b""
    return format(index, f"0{width}b").encode("ascii").translate(_MARKER_DIGITS)


@dataclass(frozen=True)
class LevelData:
    """One construction level: its word ↦ sign table, in build order."""

    level: int
    signs: dict

    def __post_init__(self):
        if len(self.signs) != 4**self.level:
            raise CollisionDetected(
                f"level {self.level} has {len(self.signs)} distinct "
                f"words, expected {4 ** self.level}"
            )

    @cached_property
    def words(self) -> tuple:
        """The level's words in shortlex order (sorted on first read)."""
        return tuple(sorted(sorted(self.signs), key=len))  # stable

    @cached_property
    def markers(self) -> dict:
        """Word ↦ the base-2 expansion of its shortlex index (an idempotent
        fill on first read)."""
        width = 2 * self.level
        return {w: _marker(i, width) for i, w in enumerate(self.words)}


class VanishingConstruction:
    """Builds levels lazily within the cap; exposes partial sums and decay."""

    def __init__(self, cap: int = DEFAULT_ENUM_CAP):
        self.model = FreeGroup(2)
        self.cap = cap
        self._levels = [LevelData(0, {ALPHA: 1})]

    def level(self, d: int) -> LevelData:
        if 2 * d >= self.cap.bit_length():  # 4**d > cap, with no huge power
            raise EnumerationTooLarge(f"F2 level {d}",
                                      4**d if d < 1000 else INF, self.cap)
        while len(self._levels) <= d:
            self._build_next()
        return self._levels[d]

    def _build_next(self) -> None:
        d = len(self._levels)
        parent = self._levels[d - 1]
        markers = parent.markers
        s_next, t_next = suffix_pair(d)
        # per parent: tip s, tip t, their parts past x (level_chunk relies on it)
        signs: dict[bytes, int] = {}
        for x, sign in parent.signs.items():
            m_s, m_t = markers[x] + s_next, markers[x] + t_next
            signs[x + m_s] = signs[x + m_t] = sign
            signs[m_s] = signs[m_t] = -sign
        for child in signs:
            self.model.validate(child)
        self._levels.append(LevelData(d, signs))

    # -- simplices and partial sums -----------------------------------------

    def cone_simplices(self, x: bytes, d: int) -> tuple[tuple, tuple]:
        """The two 2-simplices attached to a level-``d`` word ``x``."""
        m_x = self.level(d).markers.get(x)
        if m_x is None:
            raise ValueError(f"{x!r} is not a level-{d} word")
        s_next, t_next = suffix_pair(d + 1)
        return (x, x + m_x + s_next), (x, x + m_x + t_next)

    def level_chunk(self, d: int) -> Chain:
        """Σ_{x in level d} ε(x)/2^{d+1} · (s(x) + t(x)) as an exact chain;
        its cone tips are read back from level ``d + 1``, built first."""
        children = iter(self.level(d + 1).signs)
        data = self.level(d)
        numer = {}
        for (x, sign), tip_s, tip_t, _, _ in zip(data.signs.items(),
                                                 *[children] * 4):
            numer[x, tip_s] = numer[x, tip_t] = sign
        if len(numer) != 2 * len(data.signs):
            raise CollisionDetected(
                f"level {d}: expected {2 * len(data.signs)} distinct "
                f"2-simplices, got {len(numer)}"
            )
        chunk = Chain(self.model, 2, 2 ** (d + 1), numer)
        _weight_profile(chunk, [len(tip) for _, tip in chunk._numer])
        return chunk

    def partial_sum(self, top_level: int) -> Chain:
        """b(D): the sum of the chunks of the telescoping pass through
        ``top_level`` (so every level's checks run), whose support must count
        ``2·Σ 4^d`` (``CollisionDetected`` otherwise)."""
        total, expected = Chain.zero(self.model, 2), 0
        for d, chunk, _, _ in self._telescope(top_level):
            total, expected = total + chunk, expected + 2 * 4**d
        if len(total) != expected:
            raise CollisionDetected(
                f"partial sum through level {top_level} has support "
                f"{len(total)}, expected {expected}"
            )
        return total

    def edge_sum(self, d: int) -> Chain:
        """Σ_{y in level d} ε(y)/2^d · [e, y] (the telescoped tail shape)."""
        signs = self.level(d).signs
        edges = Chain(self.model, 1, 2**d,
                      {(y,): sign for y, sign in signs.items()})
        _weight_profile(edges, map(len, signs))
        return edges

    def boundary_tail(self, top_level: int) -> Chain:
        """∂b(D) − [e,α], after asserting the exact telescoping identity

            ∂b(D) = [e,α] − Σ_{y in level D+1} ε(y)/2^{D+1} · [e,y].
        """
        for _, _, bd, _ in self._telescope(top_level):
            pass
        return bd - Chain.single(self.model, (ALPHA,))

    def _telescope(self, top_level: int) -> Iterator[tuple]:
        """Yield ``(d, chunk(d), ∂b(d), tail profile)``, d = 0..top_level.

        ``∂b(d)`` is ``∂b(d−1)`` with ``chunk(d)``'s faces added, and the
        telescoping identity must hold exactly against level ``d + 1``'s signs
        (``AssertionError`` otherwise).  No ``b(d)`` is built.
        """
        if top_level < 0:
            raise ValueError("top level must be >= 0")
        bd = Chain.zero(self.model, 1)
        for d in range(top_level + 1):
            chunk = self.level_chunk(d)
            bd = boundary(chunk, onto=bd)
            yield d, chunk, bd, self._checked_tail(d, bd)

    def _checked_tail(self, d: int, bd: Chain) -> Counter:
        """The tail's profile ``{(1, |y|): count}`` from level ``d + 1``'s word
        lengths, once ``∂b(d) == [e,α] − Σ_{y in level d+1} ε(y)/2^{d+1}·[e,y]``
        (over ``2^{d+1}``) is asserted key by key against that level's signs."""
        signs = self.level(d + 1).signs
        numer, denom = bd._numer, bd._denom
        if not (denom == 2 ** (d + 1) and ALPHA not in signs
                and len(numer) == len(signs) + 1
                and numer.get((ALPHA,)) == denom
                and all(numer.get((y,)) == -a for y, a in signs.items())):
            raise AssertionError(f"telescoping identity failed at level {d}")
        return Counter(zip(map(abs, signs.values()), map(len, signs)))

    # -- decay reporting ------------------------------------------------------

    def decay_table(self, top_level: int,
                    norm_params: Iterable[tuple[int, float]]) -> list["DecayRow"]:
        """Increment and tail norms for levels 1..top_level.

        The table is built on one telescoping pass through ``top_level``,
        so it asserts the exact identity at every level 0..top_level and
        raises ``AssertionError`` at the first level where it fails.
        Increments come from single chunks (``level_chunk`` counts each
        support) and tail norms from word lengths, so no sum is built.  Each
        row checks the realized increment norm against the counted
        support envelope ``(support · max|coeff|^p · max diam^n)^{1/p}``,
        which is an unconditional upper bound; for p > 2 the rows record
        from which level onward the observed increments strictly decrease
        (at weight degree 0 that is level 1).  Rows are ordered by norm
        pair, then by level.
        """
        norm_params = list(norm_params)
        # per norm pair: increment norms, tail norms, envelopes by level
        columns = [([], [], []) for _ in norm_params]
        for d, chunk, bd, tail_profile in self._telescope(top_level):
            if d == 0:
                continue
            profile = _weight_profile(chunk)
            max_coeff = max(a for a, _ in profile) / chunk._denom
            max_diam = max(diam for _, diam in profile)
            for (n, p), (increments, tails, envelopes) in zip(norm_params,
                                                               columns):
                inc = weighted_norm(chunk, n, p)
                if p == INF:
                    envelope = max_coeff * max_diam**n
                else:
                    envelope = (
                        len(chunk) * max_coeff ** float(p) * max_diam**n
                    ) ** (1 / float(p))
                if not leq_with_slack(inc, envelope):
                    raise AssertionError(
                        f"increment norm {inc} exceeds its support envelope "
                        f"{envelope} at level {d}, (n,p)=({n},{p})"
                    )
                increments.append(inc)
                tails.append(_profile_norm(tail_profile, bd._denom, n, p))
                envelopes.append(envelope)
        rows: list[DecayRow] = []
        for (n, p), (increments, tails, envelopes) in zip(norm_params, columns):
            decreasing_from = _strictly_decreasing_from(increments)
            rows += (DecayRow(d, n, float(p), inc, tail, envelope, decreasing_from)
                     for d, inc, tail, envelope in zip(
                         range(1, top_level + 1), increments, tails, envelopes))
        return rows


def _strictly_decreasing_from(values: list[float]) -> Optional[int]:
    """1-based level from which the sequence strictly decreases to the end
    (None when even the final step does not decrease)."""
    start = len(values) - 1
    while start > 0 and values[start - 1] > values[start]:
        start -= 1
    if start == len(values) - 1:
        return None
    return start + 1


@dataclass(frozen=True)
class DecayRow:
    level: int
    n: int
    p: float
    increment_norm: float
    tail_norm: float
    envelope: float
    decreasing_from: Optional[int]
