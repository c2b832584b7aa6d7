"""Diffusion annuli, the averaging cone operator, and the induced chain map.

For a fixed degree ``N`` the annulus of index ``r`` is the set of group
elements whose word length lies in ``(r**N - r**(N/10), r**N]``.  A basis
simplex is coned over the annulus indexed by its diameter, with the cone
coefficient averaged over the annulus:

    [e, g1, …, gk]  ↦  1/|Z| · Σ_{z in Z} [z, e, g1, …, gk],

where each cone ``[z, e, g1, …, gk]`` is re-based at the identity as
``(z⁻¹, z⁻¹g1, …, z⁻¹gk)``.  Every kind's generating set is symmetric, so
word lengths are inversion-invariant and each annulus satisfies ``Z = Z⁻¹``:
the sum over ``z`` of the re-based cones is the sum over ``y`` in ``Z`` of
``(y, y·g1, …, y·gk)``, and the annulus itself is the set of re-based cone
points.  Subtracting the boundary round trips gives the chain map
``id − ∂∘cone − cone∘∂``, chain homotopic to the identity by construction;
the homotopy identity holds in exact rational arithmetic and exercising it
validates boundary, cone, re-basing and signs all at once.

Annulus thresholds: the upper bound ``r**N`` is an exact integer and the
width ``r**(N/10)`` is a real number.  Membership of an integer length ``L``
is decided exactly by comparing tenth powers (``r**N - r**(N/10) < L`` iff
``(r**N - L)**10 < r**N``), which agrees with the real-valued threshold
everywhere, including the integer-width case ``N ≡ 0 (mod 10)``.  The
index-0 annulus is ``{e}`` so that degenerate simplices stay conable; they
carry weight zero in every norm with positive weight degree.

``N`` may be any integer >= 2 so that annuli stay enumerable at desk scale;
reports flag runs with ``N <= 10`` as outside the regime where the
asymptotic estimates are proved.

One pass (``chain_map(c)``, ``cone(c)``, ``cone(∂c)``) translates each
annulus by each vertex once: ``chain_map`` swaps in a fresh memo of whole
translates, which ``cone`` reads (a racing ``cone`` sees one pass's lists).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import repeat
from math import lcm

from .chains import Chain, _accumulate, _keys, boundary
from .errors import EmptyAnnulus, EnumerationTooLarge
from .groups import DEFAULT_ENUM_CAP, GroupModel
from .norms import _ratio, _weight_profile, leq_with_slack, weighted_norm


@dataclass(frozen=True)
class AnnuliConfig:
    """Degree and enumeration cap for a diffusion annuli map."""

    degree: int = 100
    element_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError(f"annuli degree must be >= 2, got {self.degree}")
        if self.element_cap < 1:
            raise ValueError("element cap must be positive")

    @property
    def conforming(self) -> bool:
        """Whether the degree sits in the proven regime (N > 10)."""
        return self.degree > 10


class DiffusionOperator:
    """Deterministic diffusion cone operator for one model and one config.

    Annuli are memoized per radius behind a lock (read-mostly, single-writer
    fill); all chain-level operations are pure.  The translation memo holds
    one ``chain_map`` call's ``Z_r·v`` lists; ``cone`` computes, never stores, a miss.
    """

    def __init__(self, model: GroupModel, config: AnnuliConfig):
        self.model = model
        self.config = config
        self._annuli: dict[int, tuple] = {}
        self._translations: dict[tuple, list] = {}
        self._lock = threading.Lock()

    # -- annuli ------------------------------------------------------------

    def _max_shell_width(self, r: int) -> int:
        """Largest integer d with d**10 < r**N, i.e. the number of word
        lengths below r**N that still meet the annulus condition."""
        hi = r**self.config.degree
        d = int(round(hi**0.1))
        while d**10 >= hi:
            d -= 1
        while (d + 1) ** 10 < hi:
            d += 1
        return d

    def annulus_lengths(self, r: int) -> range:
        """Word lengths belonging to the annulus of index ``r >= 1``."""
        hi = r**self.config.degree
        return range(hi - self._max_shell_width(r), hi + 1)

    def annulus_size_bound(self, r: int):
        """Exact element count of the annulus, without enumeration."""
        return self.model._sphere_sum(self.annulus_lengths(r)) if r else 1

    def annulus(self, r: int) -> tuple:
        """The memoized annulus of index ``r`` (``{e}`` for ``r = 0``)."""
        cached = self._annuli.get(r)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._annuli.get(r)
            if cached is not None:
                return cached
            if r == 0:
                elements = (self.model.identity,)
            else:
                bound = self.annulus_size_bound(r)
                cap = self.config.element_cap
                if bound > cap:
                    raise EnumerationTooLarge(
                        f"annulus(r={r}, N={self.config.degree}) "
                        f"of {self.model.describe()}",
                        bound, cap,
                    )
                elements = tuple(g for length in self.annulus_lengths(r)
                                 for g in self.model.sphere(length, cap))
            self._annuli[r] = elements
            return elements

    def check_annuli_disjoint(self, radii) -> None:
        """Verify that the annuli for the given indices are pairwise disjoint
        (exact interval comparison; no enumeration)."""
        radii = sorted(set(radii) - {0})
        n = self.config.degree
        for r1, r2 in zip(radii, radii[1:]):
            gap = r2**n - r1**n
            # need r2**(n/10) <= gap, i.e. the r2 shell starts above r1**n
            if gap < 0 or gap**10 < r2**n:
                raise RuntimeError(
                    f"annuli for r={r1} and r={r2} overlap at N={n}"
                )

    def _scaled_annuli(self, radii) -> tuple[int, dict]:
        """Put the annulus averages over ``radii`` on one denominator.

        Checks that the annuli are disjoint and nonempty, and returns the
        lcm of their sizes with, per radius, the annulus (its own inverse, so
        the re-based cone points) and the scale lcm // |Z_r| of its cone
        coefficients.
        """
        self.check_annuli_disjoint(radii)
        annuli = {r: self.annulus(r) for r in radii}
        for r, points in annuli.items():
            if not points:
                raise EmptyAnnulus(
                    f"annulus(r={r}, N={self.config.degree}) of "
                    f"{self.model.describe()} is empty"
                )
        common = lcm(*map(len, annuli.values()))
        return common, {r: (points, common // len(points))
                        for r, points in annuli.items()}

    # -- operators -----------------------------------------------------------

    def cone(self, chain: Chain) -> Chain:
        """Average each basis simplex over its annulus of cone points."""
        if chain.model != self.model:
            raise ValueError("chain does not live over the operator's model")
        model = self.model
        degree = chain.degree
        if chain.is_zero():
            return Chain.zero(model, degree + 1)
        diam = model.diameter
        by_radius: dict[int, list] = {}
        for s, num in zip(chain._simplices(), chain._numer.values()):
            by_radius.setdefault(diam(s), []).append((s, num))
        common, scaled = self._scaled_annuli(sorted(by_radius))
        # Distinct cone points give distinct first vertices after re-basing
        # and equal cone points force equal sources, so cone output keys
        # never collide; the dict can be assembled without accumulation.
        out: dict[tuple, int] = {}
        memo, mul = self._translations, model.multiply
        expected = 0
        for r, (points, scale) in scaled.items():
            expected += len(points) * len(by_radius[r])
            for s, num in by_radius[r]:
                moved = [memo.get((r, v)) or map(mul, points, repeat(v)) for v in s]
                out.update(zip(_keys([points, *moved]), repeat(num * scale)))
        if len(out) != expected:
            raise AssertionError(
                "cone outputs collided; the accumulation control is broken"
            )
        return Chain(model, degree + 1, chain._denom * common, out)

    def chain_map(self, chain: Chain) -> Chain:
        """id − ∂∘cone − cone∘∂, computed exactly.

        Expanding the boundary of a cone ``[e, z⁻¹, z⁻¹g1, …, z⁻¹gk]``, the
        re-based 0th face is the original simplex, so averaging over the
        annulus cancels the identity term symbolically:

            c − ∂(cone c) = Σ_g a_g/|Z| · Σ_z ( [e, t1, …, tk]
                            − Σ_{j=1..k} (−1)^{j+1} [e, z⁻¹, t1, …, t̂j, …, tk] )

        with ``tj = z⁻¹ gj``.  This pass skips the inverse/re-base work of a
        generic boundary; the equality with the operator composition is what
        the homotopy-identity tests exercise.
        """
        if chain.model != self.model:
            raise ValueError("chain does not live over the operator's model")
        degree = chain.degree
        memo = self._translations = {}
        if chain.is_zero():
            return chain
        if degree == 0:
            # ∂(cone c) is the boundary of a degree-1 chain, which vanishes,
            # and there is no cone∘∂ term.
            return chain
        model = self.model
        diam = model.diameter
        ldiv = model._left_divide

        # First pass: per source, its faces and their boundary signs.  A
        # face of the same diameter as its source contributes the same keys
        # to −∂∘cone (the omitted-vertex terms) and to −cone∘∂ (its own
        # cone) with opposite signs, so the pair is dropped outright.  Two
        # omitted-vertex faces coincide only when the vertices between them
        # are equal, so such a face has its source's diameter and is dropped.
        sources = []  # (simplex, num, radius, kept_faces, cone_jobs)
        radii_needed = set()
        for s, num in zip(chain._simplices(), chain._numer.values()):
            r_s = diam(s)
            radii_needed.add(r_s)
            kept_faces = []  # (sign, omit_index)
            cone_jobs = []   # (face, numerator multiple, face radius)
            sign = -1
            for j in range(degree):
                face = s[:j] + s[j + 1 :]
                r_f = diam(face)
                if r_f != r_s:
                    radii_needed.add(r_f)
                    kept_faces.append((sign, j))
                    cone_jobs.append((face, -sign * num, r_f))
                sign = -sign
            rebased = tuple(ldiv(s[0], v) for v in s[1:])
            r_0 = diam(rebased)
            radii_needed.add(r_0)
            cone_jobs.append((rebased, -num, r_0))
            sources.append((s, num, r_s, kept_faces, cone_jobs))

        common, scaled = self._scaled_annuli(radii_needed)
        out: dict[tuple, int] = {}
        mul = model.multiply

        def translate(r, points, v):
            if (r, v) not in memo:
                memo[r, v] = list(map(mul, points, repeat(v)))
            return memo[r, v]

        for s, num, r_s, kept_faces, cone_jobs in sources:
            points, scale = scaled[r_s]
            value = num * scale
            translated = [translate(r_s, points, v) for v in s]
            _accumulate(out, zip(_keys(translated), repeat(value)))
            for sign, j in kept_faces:
                kept = translated[:j] + translated[j + 1 :]
                _accumulate(out, zip(_keys([points, *kept]), repeat(sign * value)))
            for face, multiple, r_f in cone_jobs:
                points_f, scale_f = scaled[r_f]
                fts = [translate(r_f, points_f, v) for v in face]
                _accumulate(out, zip(_keys([points_f, *fts]), repeat(multiple * scale_f)))
        return Chain(model, degree, chain._denom * common, out)

    def estimate_report(self, chain: Chain, n: int, p, q,
                        ratio_exponent: int) -> "DiffusionReport":
        """One diffusion trial on ``chain``, each operator applied once.

        Builds ``cone(c)``, ``∂cone(c)``, ``∂c`` and ``cone(∂c)`` a single
        time and checks the homotopy identity ``c − chain_map(c) =
        ∂cone(c) + cone(∂c)`` against the fused :meth:`chain_map` in exact
        arithmetic (``homotopy_exact``; the cone itself is returned as
        ``cone``).  Asserts the explicit bound ‖cone(c)‖_{n,p} <=
        2^{n/p}·‖c‖_{N·n,p} (a theorem for every model and every degree)
        and reports, without asserting, the smoothing ratios against the
        (ratio_exponent, q) and (ratio_exponent, p) norms of ``c`` and
        ``∂c``.  The asymptotic constants behind those ratios exist only
        for exponential growth at large ``N``, so they are observational
        here.
        """
        if not p < q:
            raise ValueError(f"need p < q, got p={p}, q={q}")
        model = chain.model
        n_deg = self.config.degree
        fused = self.chain_map(chain)
        coned = self.cone(chain)
        # |y| >= r for y in Z_r bounds every other distance: diameter = max |vertex|
        lengths = [map(model.word_length, col) for col in zip(*coned._simplices())]
        _weight_profile(coned, map(max, repeat(0, len(coned)), *lengths))
        d_coned = boundary(coned)
        d_chain = boundary(chain) if chain.degree else Chain.zero(model, 0)
        mapped = chain - d_coned
        if d_chain:
            mapped = mapped - self.cone(d_chain)
        homotopy_exact = fused == mapped

        lhs = weighted_norm(coned, n, p)
        rhs = 2.0 ** (n / float(p)) * weighted_norm(chain, n_deg * n, p)
        m = ratio_exponent

        base_q = weighted_norm(chain, m, q)
        base_p = weighted_norm(chain, m, p)
        d_base_q = weighted_norm(d_chain, m, q)
        d_base_p = weighted_norm(d_chain, m, p)
        return DiffusionReport(
            n=n, p=float(p), q=float(q),
            annuli_degree=n_deg,
            conforming=self.config.conforming,
            bound_lhs=lhs, bound_rhs=rhs,
            bound_ok=leq_with_slack(lhs, rhs),
            ratio_map=_ratio(weighted_norm(mapped, n, p), base_q + d_base_q),
            ratio_cone=_ratio(lhs, base_p + d_base_p),
            ratio_boundary_cone=_ratio(weighted_norm(d_coned, n, p),
                                       base_p + d_base_p),
            homotopy_exact=homotopy_exact,
            cone=coned,
        )


@dataclass(frozen=True)
class DiffusionReport:
    n: int
    p: float
    q: float
    annuli_degree: int
    conforming: bool
    bound_lhs: float
    bound_rhs: float
    bound_ok: bool
    ratio_map: float
    ratio_cone: float
    ratio_boundary_cone: float
    homotopy_exact: bool
    cone: Chain
