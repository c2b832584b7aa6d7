"""The explicit rank-2 free group 2-chain whose boundary is a generator edge.

Writing ``α, β`` for the free generators, level ``d`` holds ``4**d`` distinct
positive words, each with a sign ``ε`` in ``{+1, −1}`` and an injective
*marker* of length ``2d``: the base-2 expansion of its shortlex index (α for
digit 0, β for digit 1).  Level 0 is ``{α}`` with sign ``+1``.  A word ``x``
at level ``d`` spawns four children at level ``d+1`` via the suffix pair
``s = α^{d+1} β^{d+1}``, ``t = β^{d+1} α^{d+1}``: the parts ``m(x)·s, m(x)·t``
(opposite sign) and the tips ``x·m(x)·s, x·m(x)·t`` (sign of x).

Level ``d+1`` lists every part, then every tip, parent by parent in level
``d``'s order.  Parts have length ``4d+2`` and tips are longer, so by
induction from level 0 a stored level's key order is its shortlex order:
nothing sorts, and each marker comes by position from one stream of base-2
expansions.  A stored level is its table word ↦ sign, checked distinct and
positive (so nothing cancels).  Each level word ``x`` carries two 2-simplices

    s(x) = [e, x, x·m(x)·s_{d+1}],    t(x) = [e, x, x·m(x)·t_{d+1}],

whose boundary is ``2[e,x]`` plus the four child edges, signed so that

    b(D) = Σ_{d<=D} Σ_{x in level d} ε(x)/2^{d+1} · (s(x) + t(x))

has exactly ``∂b(D) = [e,α] − Σ_{y in level D+1} ε(y)/2^{D+1}·[e,y]``.  A
chunk (level d's sum) takes its tips and their signs from the generator, so a
telescope's top level is generated once and never stored.  Chunk faces add
onto ``∂b(d−1)``, released as they do; the identity is checked against the
chunk's own simplices, whose lengths (``diam(x, x·m·s) = |x·m·s|``) give the
chunk's and the tail's weight profiles.  The tail norm at weight degree 0
decays iff p > 2 (level-D increments have ``2·4^D`` simplices of equal
|coefficient| ``1/2^{D+1}``).  A level, or a chunk's tips, past the
enumeration cap raises ``EnumerationTooLarge`` before any build.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, product, repeat, tee
from operator import eq, itemgetter, neg, sub
from typing import Iterable, Iterator, Optional

from .chains import Chain, boundary
from .errors import CollisionDetected, EnumerationTooLarge
from .groups import DEFAULT_ENUM_CAP, FreeGroup
from .norms import (INF, _profile_norm, _weight_profile, leq_with_slack,
                    weighted_norm)

ALPHA, BETA = FreeGroup(2).positive_generators
_KEEP, _AB = bytes(range(256)), ALPHA + BETA  # translate(_KEEP, _AB) deletes α, β
_TIP, _BASE = itemgetter(1), itemgetter(0)  # of a chunk simplex (x, tip)


def suffix_pair(d: int) -> tuple[bytes, bytes]:
    """The positive words ``α^d β^d`` and ``β^d α^d`` (both empty at d=0)."""
    if d < 0:
        raise ValueError("suffix index must be >= 0")
    return ALPHA * d + BETA * d, BETA * d + ALPHA * d


def markers(d: int, suffixes: tuple = (b"",)) -> Iterator[bytes]:
    """Level ``d``'s markers in its key order, the ``2d``-digit base-2
    expansions of 0, 1, 2, … (α for 0, β for 1), each followed by each of
    ``suffixes`` in turn; each is joined from its two ``d``-digit halves."""
    halves = tuple(map(b"".join, product((ALPHA, BETA), repeat=d)))
    return map(b"".join, product(halves, halves, suffixes))


def _twice(view: Iterable) -> Iterator:
    """Each item of a dict or dict view twice in a row, in its order."""
    return chain.from_iterable(zip(view, view))


def _check_positive(model: FreeGroup, words: Iterable[bytes]) -> None:
    """Each word positive, in one C-level pass; ``validate`` names a failure."""
    words, probe = tee(words)
    for w in compress(words, map(bytes.translate, probe, repeat(_KEEP), repeat(_AB))):
        model.validate(w)
        raise ValueError(f"word {model.element_to_str(w)!r} is not positive")


@dataclass(frozen=True)
class LevelData:
    """One construction level: its word ↦ sign table, whose key order is
    the level's shortlex order (so the i-th word's marker is ``i`` in base 2)."""

    level: int
    signs: dict

    def __post_init__(self):
        if len(self.signs) != 4**self.level:
            raise CollisionDetected(
                f"level {self.level} has {len(self.signs)} distinct "
                f"words, expected {4 ** self.level}"
            )


class VanishingConstruction:
    """Builds levels lazily within the cap; exposes partial sums and decay."""

    def __init__(self, cap: int = DEFAULT_ENUM_CAP):
        self.model = FreeGroup(2)
        self.cap = cap
        self._levels = [LevelData(0, {ALPHA: 1})]
        self._lock = threading.RLock()  # one level builder at a time

    def level(self, d: int) -> LevelData:
        self.check_level(d)
        with self._lock:  # re-entered as a build reads the level below
            while len(self._levels) <= d:
                self._build_next()
        return self._levels[d]

    def check_level(self, d: int) -> None:
        """Refuse a negative level, and one whose words exceed the cap."""
        if d < 0:
            raise ValueError(f"F2 level must be >= 0, got {d}")
        if 2 * d >= self.cap.bit_length():  # 4**d > cap, with no huge power
            raise EnumerationTooLarge(f"F2 level {d}",
                                      4**d if d < 1000 else INF, self.cap)

    def _children(self, d: int, parts: Optional[Iterable[bytes]] = None
                  ) -> tuple[Iterator[bytes], Iterator[int]]:
        """Level ``d + 1``'s tips ``x·m·s, x·m·t`` and their signs ``ε(x)``,
        parent by parent in level ``d``'s order, from the level's parts
        ``m·s, m·t`` (sign ``−ε(x)``) in that order: joined from
        ``markers(d)`` when not given, so each marker ``m`` comes by position.
        Level ``d + 1`` lists every part, then every tip: its shortlex order."""
        signs = self.level(d).signs
        if parts is None:
            parts = markers(d, suffix_pair(d + 1))
        return map(bytes.__add__, _twice(signs), parts), _twice(signs.values())

    def _build_next(self) -> None:
        d = len(self._levels) - 1
        parts = list(markers(d, suffix_pair(d + 1)))
        signs = dict(zip(parts, map(neg, _twice(self._levels[d].signs.values()))))
        signs.update(zip(*self._children(d, parts)))
        _check_positive(self.model, signs)
        self._levels.append(LevelData(d + 1, signs))

    # -- simplices and partial sums -----------------------------------------

    def level_chunk(self, d: int) -> Chain:
        """Σ_{x in level d} ε(x)/2^{d+1} · (s(x) + t(x)) as an exact chain, its
        tips and their signs ε(x) from ``_children(d)``: level ``d + 1`` is
        counted against the cap first and never built."""
        self.check_level(d + 1)
        tips, signs = self._children(d)
        numer = dict(zip(zip(_twice(self.level(d).signs), tips), signs))
        _check_positive(self.model, map(_TIP, numer))
        chunk = Chain(self.model, 2, 2 ** (d + 1), numer)
        _weight_profile(chunk, map(len, map(_TIP, numer)))
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
        edges = Chain(self.model, 1, 2**d, dict(signs))
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
        """Yield ``(d, chunk(d), ∂b(d), tail profile)``, d = 0..top_level:
        ``∂b(d)`` is ``∂b(d−1)``, its only reference released in ``boundary``,
        plus chunk(d)'s faces, and must satisfy the identity exactly."""
        if top_level < 0:
            raise ValueError("top level must be >= 0")
        running = [Chain.zero(self.model, 1)]  # ∂b(d−1), popped into the call
        for d in range(top_level + 1):
            chunk = self.level_chunk(d)
            running.append(boundary(chunk, onto=running.pop()))
            yield d, chunk, running[0], self._checked_tail(d, chunk, running[0])

    def _checked_tail(self, d: int, chunk: Chain, bd: Chain) -> Counter:
        """The tail's profile, the chunk's plus ``{(|a|, |tip| − |x|): count}``,
        once the identity is asserted: each ``(x, tip)`` with numerator ``a``
        leaves ``−a`` at ``tip`` and ``a`` at ``tip.removeprefix(x)`` (so
        a tip not starting with ``x`` fails), α keeps ``2^{d+1}`` over
        ``2^{d+1}``, and nothing else remains.  Tips carry their parent's sign,
        so every ``[e,x]`` cancels and the count proves the children distinct."""
        get, numer = bd._numer.get, chunk._numer
        parts = map(bytes.removeprefix, map(_TIP, numer), map(_BASE, numer))
        if not (bd._denom == 2 ** (d + 1) and get(ALPHA) == bd._denom
                and len(bd) == 2 * len(numer) + 1
                and all(map(eq, map(get, map(_TIP, numer)), map(neg, numer.values())))
                and all(map(eq, map(get, parts), numer.values()))):
            raise AssertionError(f"telescoping identity failed at level {d}")
        past_x = map(sub, map(len, map(_TIP, numer)), map(len, map(_BASE, numer)))
        return _weight_profile(chunk) + Counter(zip(map(abs, numer.values()), past_x))

    # -- decay reporting ------------------------------------------------------

    def decay_table(self, top_level: int,
                    norm_params: Iterable[tuple[int, float]]) -> list["DecayRow"]:
        """Increment and tail norms for levels 1..top_level.

        One telescoping pass asserts the identity at every level (raising
        ``AssertionError`` at the first failure); increments come from single
        chunks and tail norms from their lengths, with no sum built and no
        chunk or ``∂b`` held past its level.  Each row checks the increment
        against the support envelope ``(support · max|coeff|^p · max
        diam^n)^{1/p}``, an upper bound; for p > 2 the rows record from which
        level on the increments strictly decrease (level 1 at weight degree
        0).  Rows are ordered by norm pair, then by level.
        """
        norm_params = list(norm_params)
        # per norm pair: increment norms, tail norms, envelopes by level
        columns = [([], [], []) for _ in norm_params]
        for d, chunk, bd, tail_profile in self._telescope(top_level):
            del bd  # the tail's denominator is chunk(d)'s, 2^{d+1}
            if d:
                profile, denom = _weight_profile(chunk), chunk._denom
                max_coeff = max(a for a, _ in profile) / denom
                max_diam = max(diam for _, diam in profile)
                for (n, p), (increments, tails, envelopes) in zip(norm_params, columns):
                    inc = weighted_norm(chunk, n, p)
                    envelope = max_coeff * max_diam**n if p == INF else (
                        len(chunk) * max_coeff ** float(p) * max_diam**n
                    ) ** (1 / float(p))
                    if not leq_with_slack(inc, envelope):
                        raise AssertionError(
                            f"increment norm {inc} exceeds its support "
                            f"envelope {envelope} at level {d}, (n,p)=({n},{p})"
                        )
                    increments.append(inc)
                    tails.append(_profile_norm(tail_profile, denom, n, p))
                    envelopes.append(envelope)
            del chunk  # not held while the next level is built
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
    return None if start == len(values) - 1 else start + 1


@dataclass(frozen=True)
class DecayRow:
    level: int
    n: int
    p: float
    increment_norm: float
    tail_norm: float
    envelope: float
    decreasing_from: Optional[int]
