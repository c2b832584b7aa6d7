"""Polynomially weighted lp norms on chains and the associated estimates.

The ``(n, p)`` norm of a chain weights each basis simplex by its word-metric
diameter raised to ``n`` and takes the lp norm of the coefficients:

    ‖c‖_{n,p} = (Σ |a_g|^p · diam(g)^n)^{1/p},      p finite,
    ‖c‖_{n,∞} = sup |a_g| · diam(g)^n.

with the convention 0^0 := 1, so that ``n = 0`` gives the plain lp norm; for
``n >= 1`` degenerate simplices carry weight zero (the norms are then
seminorms).

Coefficients stay exact rationals until a norm value is needed.  A chain's
norms read its weight profile ``{(|a|, diam): count}`` over its integer
numerators ``a`` (common denominator ``D``), built once and kept on the chain:
from the model's ``diameters`` over the support, a vertex column at a time,
at the chain's first norm, or from the diameters a builder that knows them
passes in support order right after construction (the F₂ construction does).
Every lp value here — chain norms and fibered families alike — comes from
one evaluator over ``(|a|, w, count)`` terms, ``w = diam^n``, in three regimes:

* ``p = ∞`` (the distinct value ``math.inf``): the largest ``|a|·(1/D)·w``;
* integer ``p``: the exact ``Σ count·|a|^p·w / D^p``, rooted once at the
  end; a sum beyond float range is rooted through its logarithm.  A ``p``
  whose sum would hold over ``EXACT_SUM_MAX_BITS`` bits (about
  ``p·bits(max(a, D))``, seconds of work) is refused before any power;
* fractional ``p``: ``math.fsum`` of ``(|a|·(1/D))^p·w`` repeated ``count``
  times — one float per simplex, summed exactly and rounded once.

A norm value beyond float range raises ``OverflowError`` at every ``p``, so
an inequality whose two sides both overflow can never pass as ``inf <= inf``.

Inequality verifiers return small report objects carrying both sides, the
constant, and the weight exponent actually used; assertions allow a relative
slack of 1e-9 to absorb floating-point rounding of quantities that are
strictly ordered in exact arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain as concat, repeat
from typing import Iterable, Optional

from .chains import Chain, GroupHomomorphism, push_forward

INF = math.inf
ZETA2 = math.pi**2 / 6
REL_SLACK = 1e-9
EXACT_SUM_MAX_BITS = 1 << 20


def leq_with_slack(lhs: float, rhs: float) -> bool:
    return lhs <= rhs or lhs - rhs <= REL_SLACK * max(abs(lhs), abs(rhs))


@dataclass(frozen=True)
class NormParams:
    """A weight degree / integrability exponent pair ``(n, p)``."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("weight degree n must be >= 0")
        if not (self.p >= 1):
            raise ValueError("exponent p must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "NormParams":
        """Parse ``"n:p"``; ``p`` may be ``inf`` or a rational like ``5/2``."""
        n_text, _, p_text = text.partition(":")
        return cls(int(n_text), _exponent_from_text(p_text))


def _exponent_from_text(text: str) -> float:
    """An exponent given as text: ``inf`` (or ``oo``), or a rational such as
    ``2``, ``1.5`` or ``5/2``, as a float; ``ValueError`` otherwise."""
    if text.strip() in ("inf", "oo"):
        return INF
    try:
        return float(Fraction(text))
    except (ZeroDivisionError, OverflowError):  # "1/0", "1e400"
        raise ValueError(f"exponent {text!r} is not a finite float") from None


def _ratio(lhs: float, rhs: float) -> float:
    """``lhs / rhs`` with 0/0 read as 0 and x/0 as ∞."""
    if rhs:
        return lhs / rhs
    return 0.0 if not lhs else INF


def _exponent_as_int(p) -> Optional[int]:
    if p != INF and p == int(p):
        return int(p)
    return None


def _power_sum(terms: Iterable[tuple], denom: int, p: int) -> Fraction:
    """Exact Σ count · a^p · w / denom^p over ``(a, w, count)`` terms."""
    return Fraction(sum(count * a**p * w for a, w, count in terms), denom**p)


def _lp(terms: Iterable[tuple], denom: int, p) -> float:
    """(Σ count · (a/denom)^p · w)^{1/p} over ``(a, w, count)`` terms with
    ``a >= 0``, or the largest (a/denom) · w at p = ∞; see the module
    docstring for the three regimes."""
    if not p >= 1:
        raise ValueError("exponent p must be >= 1")
    p_int = _exponent_as_int(p)
    if p_int is not None:
        terms = list(terms)
        bits = p_int * max([denom, *(a for a, _, _ in terms)]).bit_length()
        if bits > EXACT_SUM_MAX_BITS:
            raise ValueError(f"exponent {p_int}: its exact power sum would hold about "
                             f"{bits} bits, past the bound of {EXACT_SUM_MAX_BITS}")
        total = _power_sum(terms, denom, p_int)
        try:
            return float(total) ** (1.0 / p_int)
        except OverflowError:
            # the root may still fit: take it through the logarithm
            log_total = math.log(total.numerator) - math.log(total.denominator)
            return math.exp(log_total / p_int)
    inv_denom = 1.0 / denom
    if p == INF:
        value = max((a * inv_denom * w for a, w, _ in terms), default=0.0)
    else:
        p = float(p)
        value = math.fsum(concat.from_iterable(
            repeat((a * inv_denom) ** p * w, count)
            for a, w, count in terms)) ** (1.0 / p)
    if not math.isfinite(value):  # a term times its weight left float range
        raise OverflowError(f"lp value at p = {p} exceeds float range")
    return value


def _lp_of_rationals(values: Iterable[Fraction], p) -> float:
    """The plain lp value of rationals, put over their least common
    denominator for :func:`_lp`."""
    values = list(values)
    denom = math.lcm(*(v.denominator for v in values))
    return _lp(((abs(v.numerator) * (denom // v.denominator), 1, 1)
                for v in values), denom, p)


def diameter_map(chain: Chain) -> dict:
    """Diameter of every support simplex."""
    return dict(zip(chain.support(), chain.model.diameters(chain._numer, chain.degree)))


def _weight_profile(chain: Chain, diameters: Optional[Iterable] = None) -> dict:
    """The chain's ``{(|numerator|, diameter): count}``, filled on first use;
    ``diameters`` lists each simplex's diameter in support order (computed
    here when omitted — the only place this module computes diameters)."""
    if chain._profile is None:
        numer = chain._numer
        if diameters is None:
            diameters = chain.model.diameters(numer, chain.degree)
        chain._profile = Counter(zip(map(abs, numer.values()), diameters))
    return chain._profile


def _weighted_terms(profile: dict, n: int) -> list:
    """``(|a|, diam^n, count)`` per profile entry (``0 ** 0 == 1``)."""
    if n < 0:
        raise ValueError(f"weight degree n must be >= 0, got {n}")
    return [(a, d**n, count) for (a, d), count in profile.items()]


def weighted_power_sum(chain: Chain, n: int, p: int) -> Fraction:
    """Exact value of Σ |a_g|^p · diam(g)^n for an integer exponent p."""
    if p < 1:
        raise ValueError("integer exponent must be >= 1")
    return _power_sum(_weighted_terms(_weight_profile(chain), n), chain._denom, p)


def _profile_norm(profile: dict, denom: int, n: int, p) -> float:
    """The (n, p)-weighted norm of a weight ``profile`` over ``denom``."""
    return _lp(_weighted_terms(profile, n), denom, p)


def weighted_norm(chain: Chain, n: int, p) -> float:
    """The (n, p)-weighted norm of ``chain`` as a float."""
    return _profile_norm(_weight_profile(chain), chain._denom, n, p)


# -- comparison of exponents ---------------------------------------------------


@dataclass(frozen=True)
class ContractivityReport:
    """Both sides of the p<q contraction and of the sup-norm comparison."""

    norm_p: float
    norm_q: float
    norm_sup: float
    norm_ceil: float
    ceil_m: int
    ok: bool


def _require_p_below_q(p, q) -> None:
    if not p < q:
        raise ValueError(f"need p < q, got p={p}, q={q}")


def check_contractivity(chain: Chain, n: int, p, q) -> ContractivityReport:
    """Verify ‖c‖_{n,q} <= ‖c‖_{n,p} for finite q > p, together with the
    sup-norm comparison ‖c‖_{n,∞} <= ‖c‖_{⌈np⌉,p}.

    The first inequality does not extend to q = ∞ at fixed weight degree
    (the sup picks up the full weight diamⁿ while the p-norm only sees
    diam^{n/p} per term); with q = ∞ only the shifted comparison applies.
    """
    _require_p_below_q(p, q)
    norm_p = weighted_norm(chain, n, p)
    m = math.ceil(n * Fraction(p))
    norm_sup = weighted_norm(chain, n, INF)
    norm_ceil = weighted_norm(chain, m, p)
    ok_sup = leq_with_slack(norm_sup, norm_ceil)
    if q == INF:
        norm_q = norm_sup
        ok = ok_sup
    else:
        norm_q = weighted_norm(chain, n, q)
        ok = leq_with_slack(norm_q, norm_p) and ok_sup
    return ContractivityReport(norm_p, norm_q, norm_sup, norm_ceil, m, ok)


def comparison_exponent(k: int, n: int, p, q, growth_degree: int) -> int:
    """Weight shift making the (m, q) norm dominate the (n, p) norm on a
    model of polynomial growth degree ``growth_degree`` (exact ceiling)."""
    _require_p_below_q(p, q)
    p = Fraction(p)
    if not 1 <= p:
        raise ValueError("need p >= 1")
    if q == INF:
        return math.ceil((k * growth_degree + n + 2) / p)
    q = Fraction(q)
    inner = (k * growth_degree + 2) * (1 / p - 1 / q) + Fraction(n) / p
    return math.ceil(q * inner)


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    constant: float
    m: Optional[int]
    ok: bool

    @property
    def ratio(self) -> float:
        return _ratio(self.lhs, self.rhs)


def verify_comparison(chain: Chain, n: int, p, q, growth_degree: int,
                      growth_constant) -> InequalityReport:
    """Check ‖c‖_{n,p} <= (K^k ζ(2))^{1/q'} · ‖c‖_{m,q} on a polynomial-growth
    model, where 1/q' = 1/p − 1/q (q' = p when q = ∞) and m is the comparison
    exponent.  The bound is a theorem given a valid growth certificate, so a
    violation indicates an implementation bug."""
    k = chain.degree
    m = comparison_exponent(k, n, p, q, growth_degree)
    if q == INF:
        q_prime = float(p)
    else:
        q_prime = 1.0 / (1.0 / float(p) - 1.0 / float(q))
    constant = (float(growth_constant) ** k * ZETA2) ** (1.0 / q_prime)
    lhs = weighted_norm(chain, n, p)
    rhs = constant * weighted_norm(chain, m, q)
    return InequalityReport(lhs, rhs, constant, m, leq_with_slack(lhs, rhs))


# -- push-forward norm lemma ---------------------------------------------------


@dataclass(frozen=True)
class FiberedFamily:
    """A finite indexed family with a projection of controlled fiber sizes.

    ``fiber_bound[i]`` must dominate the size of the fiber through ``i``;
    this hypothesis is checked at construction.
    """

    index: tuple
    projection: dict
    values: dict
    fiber_bound: dict

    def __post_init__(self):
        sizes: dict = {}
        for i in self.index:
            sizes[self.projection[i]] = sizes.get(self.projection[i], 0) + 1
        for i in self.index:
            if sizes[self.projection[i]] > self.fiber_bound[i]:
                raise ValueError(
                    f"fiber through {i!r} has size {sizes[self.projection[i]]}, "
                    f"exceeding the declared bound {self.fiber_bound[i]}"
                )

    def pushforward(self, values: Optional[dict] = None) -> dict:
        values = self.values if values is None else values
        out: dict = {}
        for i in self.index:
            j = self.projection[i]
            out[j] = out.get(j, Fraction(0)) + values[i]
        return out


def fibered_pushforward_norm(family: FiberedFamily, p) -> float:
    """lp norm of the fiberwise coefficient sums (exact sums, rooted once)."""
    return _lp_of_rationals(family.pushforward().values(), p)


def pushforward_norm_bound(family: FiberedFamily, p) -> InequalityReport:
    """Check ‖π_* f‖_p <= ‖β·f‖_p, i.e. (Σ β(i)^p |f(i)|^p)^{1/p} for finite
    p and sup β(i)·|f(i)| at p = ∞."""
    lhs = fibered_pushforward_norm(family, p)
    rhs = _lp_of_rationals(
        (family.fiber_bound[i] * family.values[i] for i in family.index), p)
    return InequalityReport(lhs, rhs, 1.0, None, leq_with_slack(lhs, rhs))


def pushforward_holder_bound(family: FiberedFamily, weights: dict,
                             p, q) -> InequalityReport:
    """Check the generalized Hölder bound ‖π_*(f·w)‖_p <= ‖π_*f‖_q ‖π_*w‖_{q'}
    with 1/q + 1/q' = 1/p."""
    _require_p_below_q(p, q)
    q_prime = 1.0 / (1.0 / float(p) - 1.0 / float(q)) if q != INF else float(p)
    product = {i: family.values[i] * weights[i] for i in family.index}
    lhs = _lp_of_rationals(family.pushforward(product).values(), p)
    factor_q = fibered_pushforward_norm(family, q)
    factor_qp = _lp_of_rationals(family.pushforward(weights).values(), q_prime)
    rhs = factor_q * factor_qp
    return InequalityReport(lhs, rhs, 1.0, None, leq_with_slack(lhs, rhs))


# -- functoriality estimates ---------------------------------------------------


@dataclass(frozen=True)
class PushforwardReport:
    lhs: float
    rhs: float
    constant: float
    m: int
    ok: bool
    exact: bool
    ratio_primary: float
    ratio_alternate: float


def verify_pushforward_estimate(hom: GroupHomomorphism, chain: Chain,
                                n: int, p) -> PushforwardReport:
    """Check the norm estimate for the chain map induced by ``hom``.

    Regimes: ``p = 1`` gives ‖φ(c)‖_{n,1} <= ‖c‖_{n,1}, verified in exact
    rational arithmetic; ``1 < p < ∞`` uses the weight shift
    m = ⌈(kD+2)(p−1)⌉.  There the one-line constant
    (2^{m/(p-1)} K^k ζ(2))^{1/(p-1)} and the constant (…)^{p-1} produced by
    tracking the Hölder exponents disagree; the verifier asserts with the
    larger of the two and reports the ratio against each.  ``p = ∞`` uses
    m = kD+2 and the constant 2^m K^k ζ(2).
    """
    cert = hom.kernel_control
    if cert is None:
        raise ValueError("homomorphism carries no kernel-control certificate")
    if not hom.is_metric_compatible():
        raise ValueError("generator images must have word length <= 1")
    k = chain.degree
    kd2 = k * cert.degree + 2
    big_k = float(cert.constant) ** k
    image = push_forward(hom, chain)

    if p == 1:
        lhs_exact = weighted_power_sum(image, n, 1)
        rhs_exact = weighted_power_sum(chain, n, 1)
        lhs, rhs = float(lhs_exact), float(rhs_exact)
        ok = lhs_exact <= rhs_exact
        ratio = _ratio(lhs, rhs)
        return PushforwardReport(lhs, rhs, 1.0, 0, ok, True, ratio, ratio)

    if p == INF:
        m = kd2
        constant = 2.0**m * big_k * ZETA2
        lhs = weighted_norm(image, n, INF)
        rhs = constant * weighted_norm(chain, m + n, INF)
        ok = leq_with_slack(lhs, rhs)
        ratio = _ratio(lhs, rhs)
        return PushforwardReport(lhs, rhs, constant, m, ok, False, ratio, ratio)

    p_frac = Fraction(p)
    if not p_frac > 1:
        raise ValueError(f"exponent must be 1, in (1, inf), or inf; got {p}")
    m = math.ceil(kd2 * (p_frac - 1))
    pm1 = float(p_frac) - 1.0
    base = 2.0 ** (m / pm1) * big_k * ZETA2
    candidate_hoelder = base**pm1
    candidate_literal = base ** (1.0 / pm1)
    constant = max(candidate_hoelder, candidate_literal)
    pf = float(p_frac)
    source_norm = weighted_norm(chain, m + n, p)
    lhs = weighted_norm(image, n, p)
    rhs = constant ** (1.0 / pf) * source_norm
    ok = leq_with_slack(lhs, rhs)
    return PushforwardReport(
        lhs, rhs, constant, m, ok, False,
        _ratio(lhs, candidate_hoelder ** (1.0 / pf) * source_norm),
        _ratio(lhs, candidate_literal ** (1.0 / pf) * source_norm),
    )
