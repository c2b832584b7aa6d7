"""Finitely generated group models with word metrics and sphere enumeration.

Supported kinds: free groups, free abelian groups, finite cyclic groups, and
finite direct products of these.  Every model is equipped with the standard
symmetric generating set of its kind (basis letters and their inverses for
free and free abelian groups, ``{+1, -1 mod m}`` for cyclic groups, the union
of embedded factor generators for products); word lengths, distances and
simplex diameters are always taken with respect to that set.  Each model may
define its own ``distance`` (by default ``word_length(g⁻¹h)``; a free group
reads it off a common prefix), and ``diameters`` maps it over pairs of vertex
columns, ``diameter`` over the vertex pairs of one simplex.

Elements are plain hashable values in a canonical form unique per group
element:

* free group of rank ``k``: a reduced word as ``bytes``, one byte a letter.
  Letter ``l`` of ``{±1, …, ±k}`` (``1`` is the first generator, ``-1`` its
  inverse, …) is byte ``l + k`` when negative and ``l + k − 1`` when
  positive, so inverse letters sum to ``2k − 1`` and byte order is letter
  order.  The identity is ``b""``; ``FreeGroup.word(*letters)`` builds the
  element a letter sequence spells.  Bytes cache their hash, and products,
  inverses, prefix tests and validation run at C level;
* free abelian group of rank ``n``: a length-``n`` tuple of ints;
* cyclic group of order ``m``: an int in ``[0, m)``;
* direct product: a tuple of component elements.

Word lengths for free generating sets equal reduced word lengths whether or
not the generating set is closed under inversion, so the symmetric closure is
metrically harmless; it is fixed here to make spheres and all derived norm
values reproducible bit for bit.

Model descriptors (used by the CLI and serialization) follow the grammar
``free:K``, ``abelian:N``, ``cyclic:M``, ``product:[DESC,DESC,…]``.  Free
group elements serialize as words over ``a, b, c, …`` with capital letters
for inverses (identity: ``""``, or ``e`` below rank 5); abelian and cyclic
elements as comma-separated integers; product elements join their components
with ``;``, each product-valued component in brackets (``a;[b;1];0,2``).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from operator import add, neg, sub
from typing import Callable, Iterable, Iterator

from .errors import EnumerationTooLarge

DEFAULT_ENUM_CAP = 10_000_000

# Beyond this radius, counting formulas with exponential terms are reported
# as math.inf instead of materializing astronomically large integers.
_EXACT_COUNT_LIMIT = 1_000_000


class GroupModel:
    """A finitely generated group with its marked symmetric generating set.

    Pure functions throughout, and models are safe to share: :meth:`spheres`
    memoizes under a lock, a product's ``_sphere_counts`` idempotently.
    """

    kind: str
    identity = None
    generators: tuple = ()
    positive_generators: tuple = ()

    # -- group law -------------------------------------------------------

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def _left_divide(self, g, h):
        """``g⁻¹h``; the re-based 0th face of the bar boundary."""
        return self.multiply(self.inverse(g), h)

    def power(self, g, n: int):
        if n < 0:
            return self.power(self.inverse(g), -n)
        result = self.identity
        square = g
        while n:
            if n & 1:
                result = self.multiply(result, square)
            square = self.multiply(square, square)
            n >>= 1
        return result

    def validate(self, g) -> None:
        """Raise ValueError unless ``g`` is a canonical element."""
        raise NotImplementedError

    def generator_word(self, g) -> Iterable[tuple[int, int]]:
        """Decompose ``g`` as an ordered product of positive-generator powers.

        Yields ``(index, exponent)`` pairs such that multiplying
        ``positive_generators[index] ** exponent`` in order gives ``g``.
        """
        raise NotImplementedError

    # -- metric ----------------------------------------------------------

    def word_length(self, g) -> int:
        raise NotImplementedError

    def distance(self, g, h) -> int:
        return self.word_length(self._left_divide(g, h))

    def diameter(self, vertices: tuple) -> int:
        """Max pairwise word distance among the identity and ``vertices``."""
        length, dist = self.word_length, self.distance
        best = 0
        for i, g in enumerate(vertices):
            n = length(g)
            if n > best:
                best = n
            for h in vertices[i + 1:]:
                n = dist(g, h)
                if n > best:
                    best = n
        return best

    def diameters(self, simplices, degree: int) -> Iterator[int]:
        """The :meth:`diameter` of each of ``simplices`` (chain keys, so
        vertices in degree 1), in order, one vertex column at a time:
        ``word_length`` over each column and ``distance`` over each pair."""
        if degree == 0:
            return (0 for _ in simplices)
        columns = [simplices] if degree == 1 else list(zip(*simplices)) or [()] * degree
        length, dist = self.word_length, self.distance
        parts = [map(length, column) for column in columns]
        parts += [map(dist, g, h) for g, h in combinations(columns, 2)]
        return map(max, *parts) if degree > 1 else parts[0]

    # -- enumeration -----------------------------------------------------

    def sphere_size(self, r: int):
        """Exact number of elements of word length ``r`` (no enumeration).

        Returns ``math.inf`` when the count is too large to materialize.
        """
        raise NotImplementedError

    def iter_sphere(self, r: int) -> Iterator:
        """Stream the sphere of radius ``r`` in a deterministic order.

        Callers are expected to guard with :meth:`sphere_size` / a cap; one
        stream instance is meant for a single consumer.
        """
        raise NotImplementedError

    def spheres(self, what: str, lengths: range, size, cap: int) -> tuple:
        """The spheres of ``lengths`` as one tuple, memoized under the lock.
        Refuses ``size`` (a memo's length) past ``cap`` as ``what`` before any
        enumeration, and checks each sphere against :meth:`sphere_size`."""
        cached = self._spheres.get(lengths)
        if cached is not None:
            size = len(cached)
        if size > cap:
            raise EnumerationTooLarge(f"{what} of {self.describe()}", size, cap)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._spheres.get(lengths)
            if cached is None:
                cached = self._spheres[lengths] = tuple(
                    chain.from_iterable(map(self._checked_sphere, lengths)))
        return cached

    def _checked_sphere(self, r: int) -> tuple:
        elements = tuple(self.iter_sphere(r))
        size = self.sphere_size(r)
        if len(elements) != size:
            raise AssertionError(
                f"sphere({r}) of {self.describe()}: enumerated {len(elements)}, "
                f"counting formula says {size}"
            )
        return elements

    def sphere(self, r: int, cap: int = DEFAULT_ENUM_CAP) -> tuple:
        return self.spheres(f"sphere({r})", range(r, r + 1), self.sphere_size(r), cap)

    def _sphere_sum(self, lengths: Iterable[int]):
        """``sphere_size`` summed over ``lengths``; ``math.inf`` once a term is."""
        total = 0
        for length in lengths:
            size = self.sphere_size(length)
            if size == math.inf:
                return math.inf
            total += size
        return total

    def ball_size(self, r: int):
        return self._sphere_sum(range(r + 1))

    def ball(self, r: int, cap: int = DEFAULT_ENUM_CAP) -> tuple:
        """All elements of word length at most ``r``, radius-major order."""
        return self.spheres(f"ball({r})", range(r + 1), self.ball_size(r), cap)

    # -- ordering / identity ---------------------------------------------

    def sort_key(self, g):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def element_to_str(self, g) -> str:
        raise NotImplementedError

    def element_from_str(self, text: str):
        raise NotImplementedError

    def __init__(self):
        self._spheres: dict[range, tuple] = {}
        self._lock = threading.Lock()

    def __repr__(self):
        return f"<GroupModel {self.describe()}>"

    def __eq__(self, other):
        return isinstance(other, GroupModel) and self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class FreeGroup(GroupModel):
    """Free group of rank ``k`` on reduced byte words (see the module
    docstring for the encoding)."""

    kind = "free"

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise ValueError(f"free rank must be in [1, 26], got {rank}")
        super().__init__()
        self.rank = rank
        self.identity = b""
        top = self._top = 2 * rank - 1  # the byte sum of inverse letters
        alphabet = self._alphabet = bytes(range(2 * rank))
        self._inverse_table = bytes.maketrans(alphabet, alphabet[::-1])
        self._cancelling = tuple(bytes((b, top - b)) for b in alphabet)
        upper = _LETTERS[rank - 1::-1].upper()  # bytes 0..k-1 are -k..-1
        self._text_table = bytes.maketrans(
            alphabet, (upper + _LETTERS[:rank]).encode("ascii"))
        self._letter_of_char = {
            ch: bytes((b,)) for b, ch in enumerate(upper + _LETTERS[:rank])}
        self._generator_pairs = tuple(
            (rank - 1 - b, -1) if b < rank else (b - rank, 1) for b in alphabet)
        self.generators = tuple(
            self.word(letter) for i in range(1, rank + 1) for letter in (i, -i))
        self.positive_generators = tuple(
            self.word(i) for i in range(1, rank + 1))

    def word(self, *letters: int) -> bytes:
        """The element spelled by signed letters (``1`` the first generator,
        ``-1`` its inverse, …), freely reduced."""
        codes = []
        for letter in letters:
            if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter!r} out of range for {self.describe()}")
            code = letter + self.rank - 1 if letter > 0 else letter + self.rank
            if codes and codes[-1] + code == self._top:
                codes.pop()
            else:
                codes.append(code)
        return bytes(codes)

    def multiply(self, g, h):
        top = self._top
        if not g or not h or g[-1] + h[0] != top:
            return g + h
        i = len(g) - 1
        j = 1
        nh = len(h)
        while i > 0 and j < nh and g[i - 1] + h[j] == top:
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inverse(self, g):
        return g[::-1].translate(self._inverse_table)

    def _left_divide(self, g, h):
        # a reduced word h = g·w has g⁻¹h = w; cone simplices
        # [e, z⁻¹, z⁻¹g1, …] mostly take this path
        if h.startswith(g):
            return h[len(g):]
        return self.multiply(self.inverse(g), h)

    word_length = staticmethod(len)

    def distance(self, g, h) -> int:
        # g = p·u and h = p·v with p their common prefix: g⁻¹h = u⁻¹v is
        # reduced, since u and v start with different letters
        if h.startswith(g):
            return len(h) - len(g)
        if g.startswith(h):
            return len(g) - len(h)
        prefix = 0
        for a, b in zip(g, h):
            if a != b:
                break
            prefix += 1
        return len(g) + len(h) - 2 * prefix

    def validate(self, g) -> None:
        if not isinstance(g, bytes):
            raise ValueError(
                f"free group element must be bytes (build it with "
                f"FreeGroup.word), got {g!r}")
        if not g.translate(None, self._alphabet[self.rank:]):
            return  # a positive word is reduced
        stray = g.translate(None, self._alphabet)
        if stray:
            raise ValueError(
                f"letter byte {stray[0]} out of range for {self.describe()}")
        for pair in self._cancelling:
            if pair in g:
                raise ValueError(
                    f"word {self.element_to_str(g)!r} is not reduced")

    def generator_word(self, g):
        return map(self._generator_pairs.__getitem__, g)

    def sphere_size(self, r: int):
        if r == 0:
            return 1
        if self.rank == 1:
            return 2
        base = 2 * self.rank - 1
        if r > _EXACT_COUNT_LIMIT:
            return math.inf
        return 2 * self.rank * base ** (r - 1)

    def ball_size(self, r: int):
        k = self.rank
        if k == 1:
            return 1 + 2 * r
        if r > _EXACT_COUNT_LIMIT:
            return math.inf
        return 1 + k * ((2 * k - 1) ** r - 1) // (k - 1)

    def iter_sphere(self, r: int):
        if r == 0:
            yield b""
            return
        letters = self.generators  # in the order 1, -1, 2, -2, …
        top = self._top
        stack = [(letter, 1) for letter in reversed(letters)]
        while stack:
            word, depth = stack.pop()
            if depth == r:
                yield word
                continue
            banned = top - word[-1]
            for letter in reversed(letters):
                if letter[0] != banned:
                    stack.append((word + letter, depth + 1))

    def sort_key(self, g):
        return (len(g), g)

    def describe(self) -> str:
        return f"free:{self.rank}"

    def element_to_str(self, g) -> str:
        return g.translate(self._text_table).decode("ascii")

    def element_from_str(self, text: str):
        text = text.strip()
        if not text or (text == "e" and "e" not in self._letter_of_char):
            return b""  # "e" is the identity unless it is a letter (rank >= 5)
        word = b""
        for ch in text:
            letter = self._letter_of_char.get(ch)
            if letter is None:
                raise ValueError(f"bad letter {ch!r} for {self.describe()}")
            word = self.multiply(word, letter)
        return word


class FreeAbelian(GroupModel):
    """Free abelian group Z^n with the l1 word metric."""

    kind = "abelian"

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError(f"abelian rank must be >= 1, got {rank}")
        super().__init__()
        self.rank = rank
        self.identity = (0,) * rank
        gens = []
        for i in range(rank):
            e = tuple(1 if j == i else 0 for j in range(rank))
            gens.append(e)
            gens.append(tuple(-x for x in e))
        self.generators = tuple(gens)
        self.positive_generators = tuple(gens[::2])

    def multiply(self, g, h):
        return tuple(map(add, g, h))

    def inverse(self, g):
        return tuple(map(neg, g))

    def _left_divide(self, g, h):
        return tuple(map(sub, h, g))

    def word_length(self, g) -> int:
        return sum(map(abs, g))

    def distance(self, g, h) -> int:
        return sum(map(abs, map(sub, h, g)))

    def validate(self, g) -> None:
        if (
            not isinstance(g, tuple)
            or len(g) != self.rank
            or not all(type(a) is int for a in g)  # bool is no component
        ):
            raise ValueError(f"bad element {g!r} for {self.describe()}")

    def generator_word(self, g):
        for i, a in enumerate(g):
            if a:
                yield (i, a)

    def sphere_size(self, r: int):
        if r == 0:
            return 1
        n = self.rank
        return sum(
            2**i * comb(n, i) * comb(r - 1, i - 1) for i in range(1, min(n, r) + 1)
        )

    def ball_size(self, r: int):
        n = self.rank
        return sum(2**i * comb(n, i) * comb(r, i) for i in range(n + 1))

    def iter_sphere(self, r: int):
        n = self.rank

        def rec(prefix, rem, left):
            if left == 1:
                if rem == 0:
                    yield prefix + (0,)
                else:
                    yield prefix + (-rem,)
                    yield prefix + (rem,)
                return
            for v in range(-rem, rem + 1):
                yield from rec(prefix + (v,), rem - abs(v), left - 1)

        yield from rec((), r, n)

    def sort_key(self, g):
        return g

    def describe(self) -> str:
        return f"abelian:{self.rank}"

    def element_to_str(self, g) -> str:
        return ",".join(str(a) for a in g)

    def element_from_str(self, text: str):
        parts = text.strip().split(",")
        if len(parts) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates in {text!r}")
        return tuple(int(p) for p in parts)


class Cyclic(GroupModel):
    """Finite cyclic group Z/m on residues, generated by ±1 mod m."""

    kind = "cyclic"

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError(f"cyclic modulus must be >= 2, got {modulus}")
        super().__init__()
        self.modulus = modulus
        self.identity = 0
        gens = [1 % modulus, (modulus - 1) % modulus]
        self.generators = tuple(dict.fromkeys(g for g in gens if g != 0))
        self.positive_generators = (1,)

    def multiply(self, g, h):
        return (g + h) % self.modulus

    def inverse(self, g):
        return (-g) % self.modulus

    def _left_divide(self, g, h):
        return (h - g) % self.modulus

    def word_length(self, g) -> int:
        return min(g, self.modulus - g)

    def validate(self, g) -> None:
        if type(g) is not int or not 0 <= g < self.modulus:  # nor bool
            raise ValueError(f"bad residue {g!r} for {self.describe()}")

    def generator_word(self, g):
        if g:
            yield (0, g)

    def sphere_size(self, r: int):
        if r == 0:
            return 1
        if 2 * r < self.modulus:
            return 2
        if 2 * r == self.modulus:
            return 1
        return 0

    def iter_sphere(self, r: int):
        size = self.sphere_size(r)
        if size >= 1:
            yield r
        if size == 2:
            yield self.modulus - r

    def sort_key(self, g):
        return g

    def describe(self) -> str:
        return f"cyclic:{self.modulus}"

    def element_to_str(self, g) -> str:
        return str(g)

    def element_from_str(self, text: str):
        return int(text.strip()) % self.modulus


class DirectProduct(GroupModel):
    """Finite direct product; word length is the sum over the factors."""

    kind = "product"

    def __init__(self, factors: Iterable[GroupModel]):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("product needs at least two factors")
        super().__init__()
        self.factors = factors
        self._sphere_counts: dict[int, int] = {}
        self.identity = tuple(f.identity for f in factors)
        gens = []
        positive = []
        self._positive_offsets = []
        for i, f in enumerate(factors):
            self._positive_offsets.append(len(positive))
            for s in f.generators:
                gens.append(self._embed(i, s))
            for s in f.positive_generators:
                positive.append(self._embed(i, s))
        self.generators = tuple(gens)
        self.positive_generators = tuple(positive)

    def _embed(self, i, s):
        return tuple(
            s if j == i else f.identity for j, f in enumerate(self.factors)
        )

    def multiply(self, g, h):
        return tuple(f.multiply(a, b) for f, a, b in zip(self.factors, g, h))

    def inverse(self, g):
        return tuple(f.inverse(a) for f, a in zip(self.factors, g))

    def word_length(self, g) -> int:
        return sum(f.word_length(a) for f, a in zip(self.factors, g))

    def validate(self, g) -> None:
        if not isinstance(g, tuple) or len(g) != len(self.factors):
            raise ValueError(f"bad element {g!r} for {self.describe()}")
        for f, a in zip(self.factors, g):
            f.validate(a)

    def generator_word(self, g):
        for i, (f, a) in enumerate(zip(self.factors, g)):
            offset = self._positive_offsets[i]
            for idx, exp in f.generator_word(a):
                yield (offset + idx, exp)

    def sphere_size(self, r: int):
        cached = self._sphere_counts.get(r)
        if cached is not None:
            return cached
        # Convolution of the factor sphere counts over compositions of r.
        counts = [1]  # counts[s] for the empty prefix of factors
        for f in self.factors:
            new = [0] * (r + 1)
            for s, c in enumerate(counts):
                if c == 0:
                    continue
                for t in range(r + 1 - s):
                    size = f.sphere_size(t)
                    if size == math.inf:
                        return math.inf
                    if size:
                        new[s + t] += c * size
            counts = new
        self._sphere_counts[r] = counts[r]
        return counts[r]

    def iter_sphere(self, r: int):
        factors = self.factors
        last = len(factors) - 1

        def rec(i, rem, prefix):
            f = factors[i]
            if i == last:
                for g in f.iter_sphere(rem):
                    yield prefix + (g,)
                return
            for t in range(rem + 1):
                if f.sphere_size(t) == 0:
                    continue
                for g in f.iter_sphere(t):
                    yield from rec(i + 1, rem - t, prefix + (g,))

        yield from rec(0, r, ())

    def sort_key(self, g):
        return tuple(f.sort_key(a) for f, a in zip(self.factors, g))

    def describe(self) -> str:
        inner = ",".join(f.describe() for f in self.factors)
        return f"product:[{inner}]"

    def element_to_str(self, g) -> str:
        return ";".join(
            f"[{f.element_to_str(a)}]" if f.kind == "product"
            else f.element_to_str(a) for f, a in zip(self.factors, g))

    def element_from_str(self, text: str):
        parts = _split_top_level(text, ";")
        if len(parts) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} components in {text!r}")
        out = []
        for f, part in zip(self.factors, parts):
            if f.kind == "product":
                if not (part.startswith("[") and part.endswith("]")):
                    raise ValueError(f"product component {part!r} needs brackets")
                part = part[1:-1]
            out.append(f.element_from_str(part))
        return tuple(out)


def _split_top_level(text: str, sep: str) -> list[str]:
    """``text.split(sep)``, except inside ``[…]`` brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_model(descriptor: str) -> GroupModel:
    """Build a model from a descriptor like ``free:2`` or ``product:[free:2,cyclic:3]``."""
    descriptor = descriptor.strip()
    if descriptor.startswith("product:"):
        body = descriptor[len("product:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed product descriptor {descriptor!r}")
        return DirectProduct(parse_model(p)
                             for p in _split_top_level(body[1:-1], ","))
    try:
        kind, _, param = descriptor.partition(":")
        value = int(param)
    except ValueError:
        raise ValueError(f"malformed model descriptor {descriptor!r}") from None
    if kind == "free":
        return FreeGroup(value)
    if kind == "abelian":
        return FreeAbelian(value)
    if kind == "cyclic":
        return Cyclic(value)
    raise ValueError(f"unknown model kind {kind!r}")


def growth_constant(model: GroupModel, degree: int, r_max: int) -> Fraction:
    """Smallest K with ``ball_size(r) <= K * r**degree`` for ``1 <= r <= r_max``.

    The returned constant is exact and empirical: for models of genuinely
    polynomial growth of degree at most ``degree`` it is valid beyond
    ``r_max`` as well, but that is the caller's concern.
    """
    return _smallest_constant(model.ball_size, degree, r_max)


def _smallest_constant(count: Callable, degree: int, r_max: int) -> Fraction:
    """The exact max of ``count(r) / r**degree`` over ``1 <= r <= r_max``."""
    if r_max < 1 or degree < 0:
        raise ValueError(f"need r_max >= 1 and growth degree >= 0, got "
                         f"r_max={r_max}, degree={degree}")
    return max(Fraction(count(r), r**degree) for r in range(1, r_max + 1))
