"""Independent test oracles: plain breadth-first search on Cayley graphs,
a tuple-word free group, a term-by-term norm evaluator, a term-by-term
cone, an exhaustive check of the cone's accumulation control, the
tenth-power rule for overlapping annulus shells, a chain's
coefficient sum, the F₂ construction's markers and cone simplices derived
by sorting each level (the library builds levels already sorted), and
chain operators on plain ``{vertex tuple: Fraction}`` dicts in every degree
(the library keys a degree-1 simplex by its vertex).

The BFS multiplies by generators only and never consults the model's
word-length or sphere code, so it is a genuinely independent check of the
metric and of sphere enumeration.
"""

import math
from fractions import Fraction

from barnorm.chains import Chain
from barnorm.vanishing import ALPHA, BETA, suffix_pair


def bfs_distances(model, radius):
    """Map element -> distance from the identity, out to ``radius``."""
    dist = {model.identity: 0}
    frontier = [model.identity]
    for d in range(1, radius + 1):
        new_frontier = []
        for g in frontier:
            for s in model.generators:
                h = model.multiply(g, s)
                if h not in dist:
                    dist[h] = d
                    new_frontier.append(h)
        frontier = new_frontier
    return dist


def bfs_spheres(model, radius):
    """Map r -> set of elements at BFS distance exactly r."""
    spheres = {r: set() for r in range(radius + 1)}
    for g, d in bfs_distances(model, radius).items():
        spheres[d].add(g)
    return spheres


def lattice_sphere_count(rank, radius):
    """Brute-force count of integer vectors with l1 norm == radius."""
    if rank == 1:
        return 1 if radius == 0 else 2
    count = 0
    for first in range(-radius, radius + 1):
        count += lattice_sphere_count(rank - 1, radius - abs(first))
    return count


class TupleFreeWords:
    """Reference free group of rank ``k``: reduced words as tuples of signed
    letters (``1`` the first generator, ``-1`` its inverse, …), reduced
    letter by letter with no encoding, against which the byte words of
    ``FreeGroup`` are checked."""

    def __init__(self, rank):
        self.rank = rank

    def reduce(self, letters):
        out = []
        for letter in letters:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def multiply(self, g, h):
        return self.reduce(g + h)

    def inverse(self, g):
        return tuple(-letter for letter in reversed(g))

    def left_divide(self, g, h):
        return self.multiply(self.inverse(g), h)

    def to_str(self, g):
        return "".join(chr(ord("a") + abs(letter) - 1).swapcase()
                       if letter < 0 else chr(ord("a") + letter - 1)
                       for letter in g)

    def sort_key(self, g):
        return (len(g), g)


def per_term_norm(chain, n, p):
    """The (n, p) norm evaluated term by term, one ``(numerator, diam^n)``
    pair per support simplex with a fresh diameter each, in the three
    regimes of ``barnorm.norms``: an exact integer power sum rooted once
    (through its logarithm beyond float range), the largest term at p = ∞,
    and ``math.fsum`` of the terms at fractional p."""
    pairs = [(abs(a), chain.model.diameter(s) ** n if n else 1)
             for s, a in zip(chain.support(), chain._numer.values())]
    denom = chain._denom
    if p != math.inf and float(p).is_integer():
        p = int(p)
        total = Fraction(sum(a**p * w for a, w in pairs), denom**p)
        try:
            return float(total) ** (1.0 / p)
        except OverflowError:
            log_total = math.log(total.numerator) - math.log(total.denominator)
            return math.exp(log_total / p)
    inv_denom = 1.0 / denom
    if p == math.inf:
        value = max((a * inv_denom * w for a, w in pairs), default=0.0)
    else:
        p = float(p)
        value = math.fsum((a * inv_denom) ** p * w
                          for a, w in pairs) ** (1.0 / p)
    if not math.isfinite(value):
        raise OverflowError(f"lp value at p = {p} exceeds float range")
    return value


def reference_cone(operator, chain):
    """The averaged cone written out as in the paper: each simplex ``s`` of
    diameter ``r`` contributes ``a_s/|Z_r|`` times the re-based cone
    ``(z⁻¹, z⁻¹g1, …, z⁻¹gk)`` for every cone point ``z`` of the annulus,
    inverting each ``z`` explicitly and summing through ``from_terms``."""
    model = chain.model
    terms = []
    for s, a in chain.terms():
        annulus = operator.annulus(model.diameter(s))
        for z in annulus:
            zi = model.inverse(z)
            coned = (zi,) + tuple(model.multiply(zi, v) for v in s)
            terms.append((coned, a / len(annulus)))
    return Chain.from_terms(model, chain.degree + 1, terms)


def accumulation_check(operator, chain):
    """``(simplices checked, violations)`` over the re-based cones ``(y, y·g1,
    …)`` of ``chain``, ``y`` in the annulus of the source diameter ``r``: each
    has diameter <= ``2·r^N``; each face keeping ``y`` fixes ``y`` and ``r``."""
    model, seen, checked, violations = chain.model, {}, 0, []
    for s in chain.support():
        r = model.diameter(s)
        for y in operator.annulus(r):
            coned = (y,) + tuple(model.multiply(y, v) for v in s)
            checked += 1
            if model.diameter(coned) > 2 * r**operator.config.degree:
                violations.append(coned)
            for j in range(1, len(coned)):
                face = coned[:j] + coned[j + 1:]
                if seen.setdefault(face, (y, r)) != (y, r):
                    violations.append(face)
    return checked, violations


def shells_overlap(r1, r2, n):
    """Whether the annulus of index ``r2 > r1`` reaches down to ``r1**n``:
    its real width ``r2**(n/10)`` exceeds the gap, decided in tenth powers."""
    gap = r2**n - r1**n
    return gap < 0 or gap**10 < r2**n


def coefficient_sum(chain):
    """The exact sum of ``chain``'s coefficients."""
    return Fraction(sum(chain._numer.values()), chain._denom)


def level_markers(data):
    """A construction level's word ↦ marker table, from a sort of its words:
    the i-th word in shortlex order gets the ``2d``-digit base-2 expansion of
    i, α for digit 0 and β for digit 1."""
    width, letters = 2 * data.level, {"0": ALPHA, "1": BETA}
    shortlex = sorted(data.signs, key=lambda w: (len(w), w))
    return {w: b"".join(letters[c] for c in format(i, f"0{width}b")) if width else b""
            for i, w in enumerate(shortlex)}


def cone_simplices(construction, x, d, markers=None):
    """The two 2-simplices ``[e, x, x·m(x)·s]`` and ``[e, x, x·m(x)·t]`` that
    the construction attaches to a level-``d`` word ``x``; ``markers`` is
    ``level_markers`` of that level, computed here when omitted."""
    data = construction.level(d)
    m_x = (markers or level_markers(data)).get(x)
    if m_x is None:
        raise ValueError(f"{x!r} is not a level-{d} word")
    s_next, t_next = suffix_pair(d + 1)
    return (x, x + m_x + s_next), (x, x + m_x + t_next)


# -- tuple-keyed chains --------------------------------------------------------
# A chain here is a plain ``{vertex tuple: Fraction}`` dict with no zero
# coefficient, whatever its degree; each operator is written out term by term
# from the paper's formulas, with explicit inverses.


def _add_term(out, simplex, value):
    value += out.pop(simplex, 0)
    if value:
        out[simplex] = value


def tuple_sum(*signed_terms):
    """``Σ sign · terms`` over ``(sign, terms)`` pairs."""
    out = {}
    for sign, terms in signed_terms:
        for simplex, a in terms.items():
            _add_term(out, simplex, sign * a)
    return out


def tuple_boundary(model, terms):
    """``∂[e, g1, …, gk] = [e, g1⁻¹g2, …, g1⁻¹gk] + Σ_j (−1)^j [e, …, ĝj, …]``."""
    out = {}
    for s, a in terms.items():
        g1_inv = model.inverse(s[0])
        _add_term(out, tuple(model.multiply(g1_inv, v) for v in s[1:]), a)
        for j in range(1, len(s) + 1):
            _add_term(out, s[: j - 1] + s[j:], (-1) ** j * a)
    return out


def tuple_push_forward(hom, terms):
    out = {}
    for s, a in terms.items():
        _add_term(out, tuple(hom.apply(v) for v in s), a)
    return out


def tuple_cone(operator, terms):
    """``a_s/|Z_r| · (z⁻¹, z⁻¹g1, …, z⁻¹gk)`` for each cone point ``z`` of
    the annulus of the source diameter ``r``."""
    model, out = operator.model, {}
    for s, a in terms.items():
        annulus = operator.annulus(model.diameter(s))
        for z in annulus:
            zi = model.inverse(z)
            coned = (zi,) + tuple(model.multiply(zi, v) for v in s)
            _add_term(out, coned, a / len(annulus))
    return out


def tuple_chain_map(operator, degree, terms):
    """``c − ∂cone(c) − cone(∂c)`` (no ``cone∘∂`` term in degree 0)."""
    model = operator.model
    parts = [(1, terms), (-1, tuple_boundary(model, tuple_cone(operator, terms)))]
    if degree:
        parts.append((-1, tuple_cone(operator, tuple_boundary(model, terms))))
    return tuple_sum(*parts)


def tuple_norm(model, terms, n, p):
    """``(Σ |a|^p · diam^n)^{1/p}``, or ``max |a| · diam^n`` at p = ∞, with
    ``0^0 = 1``; exact before the root at integer p."""
    pairs = [(abs(a), model.diameter(s) ** n) for s, a in terms.items()]
    if p == math.inf:
        return float(max((a * w for a, w in pairs), default=0))
    if float(p).is_integer():
        return float(sum(a ** int(p) * w for a, w in pairs)) ** (1.0 / p)
    return math.fsum(float(a) ** p * w for a, w in pairs) ** (1.0 / p)
