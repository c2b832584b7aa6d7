"""Sparse bar-complex chains, the boundary operator, and push-forwards.

A degree-``k`` simplex ``[e, g1, …, gk]`` is keyed by the tuple ``(g1, …,
gk)`` of canonical group elements (the first vertex is always the identity),
and a degree-1 simplex ``[e, g]`` by ``g`` itself; the public views speak
tuples in every degree.  Degenerate simplices (repeated vertices, identity
vertices) are legal basis elements and are carried as-is — dropping them
would silently change the boundary operator.

Chains are finitely supported formal sums with exact rational coefficients.
Internally a chain keeps nonzero integer numerators over a single positive
common denominator, which keeps the hot accumulation loops in machine-int
land; every coefficient visible through the API is an exact ``Fraction``.
Every chain sum (``+``/``-``, boundary, push-forward, the diffusion chain
map) deletes a simplex the moment its numerator cancels to zero.  Chains are
values (nothing writes their numerators after construction); the norms'
``_profile`` memo on a chain and a homomorphism's ``_cache`` are idempotent
fills that a race only recomputes, so both are safe to share across workers.

The boundary convention re-bases the 0th face at the identity:

    ∂[e, g1, …, gk] = [e, g1⁻¹g2, …, g1⁻¹gk]
                      + Σ_{j=1..k} (−1)^j · [e, g1, …, ĝj, …, gk]

so a degree-1 chain maps to zero (both faces re-base to the empty tuple and
cancel) and ∂∂ = 0 holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import gcd, lcm
from typing import Iterable, Iterator, Optional

from .groups import DEFAULT_ENUM_CAP, GroupModel, _smallest_constant


def _key(simplex: tuple):
    """A simplex's key in its chain: its vertex in degree 1, else itself."""
    return simplex[0] if len(simplex) == 1 else simplex


def _keys(columns: list) -> Iterable:
    """The keys of the simplices whose vertex columns are ``columns``."""
    return columns[0] if len(columns) == 1 else zip(*columns)


class Chain:
    """A finitely supported chain of one degree over one group model."""

    __slots__ = ("model", "degree", "_denom", "_numer", "_profile")

    def __init__(self, model: GroupModel, degree: int, _denom: int = 1,
                 _numer: Optional[dict] = None):
        """``_denom`` and ``_numer`` are the internal form: trusted canonical
        simplex keys with nonzero int numerators over one denominator.  The
        chain takes ownership of ``_numer``."""
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.model = model
        self.degree = degree
        numer = _numer if _numer is not None else {}
        if _denom <= 0:
            raise ValueError("internal denominator must be positive")
        # Canonical form: content coprime to the denominator.  Equal chains
        # then have equal internal forms, and the norms' ``a·(1/D)`` floats
        # stay those of the reduced fraction: 25·(1/15) is
        # 1.6666666666666667, but 5·(1/3) is 1.6666666666666665.
        if numer:
            content = _denom
            for n in numer.values():
                content = gcd(content, n)
                if content == 1:
                    break
            if content > 1:
                numer = {s: n // content for s, n in numer.items()}
                _denom //= content
        else:
            _denom = 1
        self._denom = _denom
        self._numer = numer
        self._profile = None  # the norms' weight profile, filled on first use

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, model: GroupModel, degree: int) -> "Chain":
        return cls(model, degree)

    @classmethod
    def single(cls, model: GroupModel, simplex: tuple, coeff=1) -> "Chain":
        return cls.from_terms(model, len(simplex), [(simplex, coeff)])

    @classmethod
    def from_terms(cls, model: GroupModel, degree: int,
                   terms: Iterable[tuple[tuple, object]]) -> "Chain":
        """Build a chain from ``(simplex, coefficient)`` pairs, validating
        degrees and element canonical forms; repeated simplices are summed."""
        coeffs: dict[tuple, Fraction] = {}
        for simplex, value in terms:
            simplex = tuple(simplex)
            if len(simplex) != degree:
                raise ValueError(
                    f"simplex {simplex!r} has degree {len(simplex)}, chain has {degree}"
                )
            for v in simplex:
                model.validate(v)
            coeffs[simplex] = coeffs.get(simplex, Fraction(0)) + Fraction(value)
        denom = 1
        for c in coeffs.values():
            denom = lcm(denom, c.denominator)
        numer = {}
        for s, c in coeffs.items():
            n = c.numerator * (denom // c.denominator)
            if n:
                numer[_key(s)] = n
        return cls(model, degree, denom, numer)

    # -- inspection ----------------------------------------------------------

    def _simplices(self) -> Iterator[tuple]:
        """The support's vertex tuples, in key order."""
        return zip(self._numer) if self.degree == 1 else iter(self._numer)

    def coefficient(self, simplex: tuple) -> Fraction:
        simplex = tuple(simplex)
        n = self._numer.get(_key(simplex), 0) if len(simplex) == self.degree else 0
        return Fraction(n, self._denom)

    def terms(self) -> Iterator[tuple[tuple, Fraction]]:
        values = map(Fraction, self._numer.values(), repeat(self._denom))
        return zip(self._simplices(), values)

    def support(self) -> tuple:
        return tuple(self._simplices())

    def sorted_support(self) -> list:
        key = self.model.sort_key
        return sorted(self._simplices(), key=lambda s: tuple(key(v) for v in s))

    def is_zero(self) -> bool:
        return not self._numer

    def __len__(self) -> int:
        return len(self._numer)

    def __bool__(self) -> bool:
        return bool(self._numer)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.model == other.model
            and self.degree == other.degree
            and self._denom == other._denom
            and self._numer == other._numer
        )

    def __repr__(self):
        if not self._numer:
            return f"<Chain deg={self.degree} 0>"
        parts = []
        for s in self.sorted_support()[:4]:
            word = ",".join(self.model.element_to_str(v) for v in s)
            parts.append(f"{self.coefficient(s)}*[e,{word}]")
        more = " + …" if len(self._numer) > 4 else ""
        return f"<Chain deg={self.degree} {' + '.join(parts)}{more}>"

    # -- linear structure ---------------------------------------------------

    def _check_compatible(self, other: "Chain") -> None:
        if self.model != other.model:
            raise ValueError("chains live over different models")
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )

    def _merge(self, other: "Chain", flip: int) -> "Chain":
        self._check_compatible(other)
        denom = lcm(self._denom, other._denom)
        fa = denom // self._denom
        fb = flip * (denom // other._denom)
        # copy the larger side (a C-level copy when its factor is 1) and
        # fold the smaller one into it
        if len(self._numer) < len(other._numer):
            big, big_factor, small, factor = other._numer, fb, self._numer, fa
        else:
            big, big_factor, small, factor = self._numer, fa, other._numer, fb
        if big_factor == 1:
            numer = dict(big)
        else:
            numer = {s: n * big_factor for s, n in big.items()}
        # one lookup and one store or delete per entry; a sum can only be
        # zero for a key already present, and cancelled keys leave at once
        get = numer.get
        for s, n in small.items():
            n = get(s, 0) + n * factor
            if n:
                numer[s] = n
            else:
                del numer[s]
        return Chain(self.model, self.degree, denom, numer)

    def __add__(self, other: "Chain") -> "Chain":
        return self._merge(other, 1)

    def __sub__(self, other: "Chain") -> "Chain":
        return self._merge(other, -1)

    def __neg__(self) -> "Chain":
        return Chain(
            self.model, self.degree, self._denom,
            {s: -n for s, n in self._numer.items()},
        )

    def scale(self, value) -> "Chain":
        q = Fraction(value)
        if not q:
            return Chain.zero(self.model, self.degree)
        numer = {s: n * q.numerator for s, n in self._numer.items()}
        return Chain(self.model, self.degree, self._denom * q.denominator, numer)

    def __rmul__(self, value) -> "Chain":
        return self.scale(value)


def _accumulate(out: dict, pairs) -> None:
    """Add every ``(key, value)`` of ``pairs`` (values nonzero) into ``out``;
    a key whose sum is zero is deleted at once.

    ``setdefault`` stores a new key in one probe of the table; only a key
    already present (the dict did not grow) takes a second probe, and only
    such a sum can be zero.
    """
    setdefault = out.setdefault
    size = len(out)
    for key, value in pairs:
        old = setdefault(key, value)
        if len(out) == size:
            value += old
            if value:
                out[key] = value
            else:
                del out[key]
                size -= 1
        else:
            size += 1


def boundary(chain: Chain, *, onto: Optional[Chain] = None) -> Chain:
    """Alternating face sum with the 0th face re-based at the identity; with
    ``onto``, ``onto + ∂chain`` (raising as ``+`` does), the faces added into a
    rescaled copy of ``onto``'s numerators: no ``∂chain``, ``onto`` unchanged
    and, if the caller passed its only reference, released before the faces."""
    degree = chain.degree
    if degree == 0:
        raise ValueError("boundary is undefined in degree 0")
    model = chain.model
    base = Chain.zero(model, degree - 1)
    if onto is not None:
        onto._check_compatible(base)
        base = onto
    ldiv = model._left_divide
    denom = lcm(chain._denom, base._denom)
    scale, factor = denom // base._denom, denom // chain._denom
    items = chain._numer.items() if factor == 1 else (
        (simplex, num * factor) for simplex, num in chain._numer.items())

    def faces():
        if degree == 1:  # both faces of [e, g] re-base to ()
            for _, num in items:
                yield (), num
                yield (), -num
        elif degree == 2:
            for (g1, g2), num in items:
                yield ldiv(g1, g2), num
                yield g2, -num
                yield g1, num
        elif degree == 3:
            for (g1, g2, g3), num in items:
                yield (ldiv(g1, g2), ldiv(g1, g3)), num
                yield (g2, g3), -num
                yield (g1, g3), num
                yield (g1, g2), -num
        else:
            for simplex, num in items:
                g1 = simplex[0]
                yield tuple(ldiv(g1, v) for v in simplex[1:]), num
                value = num
                for j in range(1, degree + 1):
                    value = -value
                    yield simplex[: j - 1] + simplex[j:], value

    out = {s: n * scale for s, n in base._numer.items()}
    onto = base = None
    _accumulate(out, faces())
    return Chain(model, degree - 1, denom, out)


@dataclass(frozen=True)
class KernelControl:
    """Certificate that ball counts of a homomorphism kernel grow polynomially.

    ``constant`` and ``degree`` assert ``|B_r ∩ ker| <= constant * r**degree``;
    the certificate was checked empirically up to ``radius_checked``.
    """

    degree: int
    constant: Fraction
    radius_checked: int


class GroupHomomorphism:
    """A homomorphism determined by images of the source's positive generators.

    For free sources any images work; abelian, cyclic and product sources have
    their defining relations checked at construction.  An optional
    :class:`KernelControl` certificate is required by the norm-estimate
    verifiers in :mod:`barnorm.norms`.
    """

    def __init__(self, source: GroupModel, target: GroupModel,
                 images: Iterable, kernel_control: Optional[KernelControl] = None):
        self.source = source
        self.target = target
        self.images = tuple(images)
        self.kernel_control = kernel_control
        if len(self.images) != len(source.positive_generators):
            raise ValueError(
                f"need {len(source.positive_generators)} generator images, "
                f"got {len(self.images)}"
            )
        for img in self.images:
            target.validate(img)
        self._check_relations(source, list(range(len(self.images))))
        self._cache: dict = {}

    def _check_relations(self, model: GroupModel, indices: list[int]) -> None:
        kind = model.kind
        if kind == "free":
            return
        if kind == "cyclic":
            img = self.images[indices[0]]
            if self.target.power(img, model.modulus) != self.target.identity:
                raise ValueError(
                    f"image {self.target.element_to_str(img)!r} violates the "
                    f"order-{model.modulus} relation")
            return
        if kind == "abelian":
            self._check_commuting([[i] for i in indices])
            return
        if kind == "product":
            blocks, offset = [], 0
            for factor in model.factors:
                width = len(factor.positive_generators)
                blocks.append(indices[offset : offset + width])
                self._check_relations(factor, blocks[-1])
                offset += width
            self._check_commuting(blocks)
            return
        raise ValueError(f"unsupported source kind {kind!r}")

    def _check_commuting(self, blocks: list[list[int]]) -> None:
        """Images of generators in different blocks must commute."""
        mul, to_str = self.target.multiply, self.target.element_to_str
        for i, block in enumerate(blocks):
            later = [b for other in blocks[i + 1 :] for b in other]
            for a, b in product(block, later):
                x, y = self.images[a], self.images[b]
                if mul(x, y) != mul(y, x):
                    raise ValueError(
                        f"images {to_str(x)!r} and {to_str(y)!r} do not "
                        "commute; homomorphism is not well defined"
                    )

    def apply(self, g):
        cached = self._cache.get(g)
        if cached is not None:
            return cached
        result = self.target.identity
        mul = self.target.multiply
        for idx, exp in self.source.generator_word(g):
            result = mul(result, self.target.power(self.images[idx], exp))
        if len(self._cache) < 1 << 16:
            self._cache[g] = result
        return result

    def is_metric_compatible(self) -> bool:
        """True when every generator image has word length at most 1, so the
        map does not increase word lengths."""
        return all(self.target.word_length(img) <= 1 for img in self.images)

    def __repr__(self):
        return (
            f"<Hom {self.source.describe()} -> {self.target.describe()}>"
        )


def identity_homomorphism(model: GroupModel) -> GroupHomomorphism:
    images = model.positive_generators
    cert = KernelControl(degree=0, constant=Fraction(1), radius_checked=0)
    return GroupHomomorphism(model, model, images, cert)


def push_forward(hom: GroupHomomorphism, chain: Chain) -> Chain:
    """Apply ``hom`` vertex-wise; coefficients of colliding images are summed."""
    if chain.model != hom.source:
        raise ValueError("chain does not live over the homomorphism source")
    apply = hom.apply
    out: dict[tuple, int] = {}
    _accumulate(out, zip((_key(tuple(map(apply, s))) for s in chain._simplices()),
                         chain._numer.values()))
    return Chain(hom.target, chain.degree, chain._denom, out)


def kernel_control_constant(hom: GroupHomomorphism, degree: int,
                            r_max: int, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Empirical kernel-control constant on ``1 <= r <= r_max`` (exact max),
    counting each source ball within ``cap`` and applying ``hom`` once per element."""
    e, counts = hom.target.identity, [0]
    balls = [()] + [hom.source.ball(r, cap) for r in range(1, r_max + 1)]
    for inner, ball in zip(balls, balls[1:]):  # radius-major: apply the new sphere
        counts.append(counts[-1] + sum(hom.apply(g) == e for g in ball[len(inner):]))
    return _smallest_constant(counts.__getitem__, degree, r_max)


def with_kernel_control(hom: GroupHomomorphism, degree: int,
                        r_max: int, cap: int = DEFAULT_ENUM_CAP) -> GroupHomomorphism:
    """Attach an empirically computed kernel-control certificate."""
    constant = kernel_control_constant(hom, degree, r_max, cap)
    cert = KernelControl(degree=degree, constant=constant, radius_checked=r_max)
    return GroupHomomorphism(hom.source, hom.target, hom.images, cert)


# -- serialization -----------------------------------------------------------


def chain_to_records(chain: Chain) -> list[dict]:
    """JSON-ready list of ``{"simplex": [...], "coeff": "p/q"}`` records in
    canonical support order; round-trips bit-exactly."""
    to_str = chain.model.element_to_str
    records = []
    for s in chain.sorted_support():
        c = chain.coefficient(s)
        records.append(
            {"simplex": [to_str(v) for v in s], "coeff": str(c)}
        )
    return records


def chain_from_records(model: GroupModel, records: Iterable[dict],
                       degree: Optional[int] = None) -> Chain:
    records = list(records)
    if degree is None:
        degrees = {len(r["simplex"]) for r in records}
        if len(degrees) > 1:
            raise ValueError(f"mixed simplex degrees {sorted(degrees)}")
        if not degrees:
            raise ValueError("cannot infer the degree of an empty chain")
        degree = degrees.pop()
    terms = []
    for r in records:
        simplex = tuple(model.element_from_str(w) for w in r["simplex"])
        terms.append((simplex, Fraction(r["coeff"])))
    return Chain.from_terms(model, degree, terms)
