"""Deterministic experiment suites behind the command-line interface.

Every suite is a pure function of its configuration: random chains are
generated from an explicit seed via ``random.Random``, rows are emitted in
trial order, and all reported numbers derive from exact arithmetic or
order-independent float summation — two runs with the same configuration
produce identical rows.

Every ``run_*`` returns the CSV tables it fills as ``{suite: (schema, rows,
violations)}`` (``run_diffuse`` also its last cone) and passes its ``cap`` to
every chain it draws; ``run_all`` merges the tables of its runner calls.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import pairwise, starmap
from operator import lt
from typing import Iterable, Optional

from .chains import (
    Chain,
    GroupHomomorphism,
    identity_homomorphism,
    with_kernel_control,
)
from .diffusion import AnnuliConfig, DiffusionOperator
from .errors import EnumerationTooLarge
from .groups import DEFAULT_ENUM_CAP, FreeAbelian, FreeGroup, Cyclic, growth_constant, parse_model
from .norms import (
    INF,
    check_contractivity,
    verify_comparison,
    verify_pushforward_estimate,
)
from .vanishing import VanishingConstruction


@dataclass(frozen=True)
class RandomChainSpec:
    """Shape of a randomly generated chain.

    Support simplices are sampled uniformly from vertex tuples over the ball
    of the given radius, except that the all-identity tuple is excluded: its
    diameter-zero weight makes the weight-shifted norm estimates vacuously
    false at weight degree 0, matching their derivations, which treat that
    basis element separately.  ``max_diameter`` optionally rejects simplices
    whose diameter exceeds the bound (keeps diffusion annuli enumerable).
    Coefficients are uniform nonzero fractions with numerator in
    ``[-numerator_max, numerator_max]`` and denominator in
    ``[1, denominator_max]``.
    """

    degree: int
    support: int
    radius: int
    numerator_max: int = 5
    denominator_max: int = 4
    max_diameter: Optional[int] = None

    def __post_init__(self):
        if self.degree < 0 or self.support < 0 or self.radius < 0:
            raise ValueError("degree, support and radius must be >= 0")
        for name in ("radius", "max_diameter"):
            if getattr(self, name) == 0 and self.support and self.degree:
                raise ValueError(f"{name} 0 leaves only the all-identity simplex")
        if self.numerator_max < 1 or self.denominator_max < 1:
            raise ValueError("coefficient ranges must be >= 1")


def random_chain(model, spec: RandomChainSpec, rng: random.Random,
                 cap: int = DEFAULT_ENUM_CAP) -> Chain:
    """A chain matching ``spec``, a pure function of the rng state."""
    if spec.degree == 0 and spec.support:  # only the all-identity ``()``
        raise ValueError(f"degree 0 has no simplex to draw "
                         f"({spec.support} requested)")
    size = model.ball_size(spec.radius)
    if size > max(cap, spec.support):  # ball() would refuse it; take no power of it
        raise EnumerationTooLarge(f"ball({spec.radius}) of {model.describe()}", size, cap)
    available = size ** spec.degree - 1
    if available < spec.support:  # not even with every draw accepted
        raise ValueError(
            f"cannot draw {spec.support} distinct simplices: degree "
            f"{spec.degree} over ball({spec.radius}) of {model.describe()} "
            f"has only {available} besides the all-identity one")
    ball = model.ball(spec.radius, cap)
    identity = model.identity
    diam = model.diameter
    chosen: dict = {}
    attempts = 0
    limit = 1000 * (spec.support + 1)
    while len(chosen) < spec.support:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"could not draw {spec.support} distinct simplices "
                f"(degree {spec.degree}, radius {spec.radius})"
            )
        simplex = tuple(ball[rng.randrange(len(ball))] for _ in range(spec.degree))
        if all(v == identity for v in simplex):
            continue
        if spec.max_diameter is not None and diam(simplex) > spec.max_diameter:
            continue
        if simplex in chosen:
            continue
        numerator = rng.randint(1, spec.numerator_max) * rng.choice((1, -1))
        denominator = rng.randint(1, spec.denominator_max)
        chosen[simplex] = Fraction(numerator, denominator)
    return Chain.from_terms(model, spec.degree, chosen.items())


# -- shipped example homomorphisms --------------------------------------------


# name -> factory(cap); kernel-control certificates are checked out to r = 10
EXAMPLE_HOMOMORPHISMS = {
    "abelian2-to-z": lambda cap: with_kernel_control(GroupHomomorphism(
        FreeAbelian(2), FreeAbelian(1), [(1,), (0,)]), 1, 10, cap),
    "z-to-cyclic5": lambda cap: with_kernel_control(GroupHomomorphism(
        FreeAbelian(1), Cyclic(5), [1]), 1, 10, cap),
    "free2-identity": lambda cap: identity_homomorphism(FreeGroup(2)),
}


def example_homomorphism(name: str,
                         cap: int = DEFAULT_ENUM_CAP) -> GroupHomomorphism:
    """The named example; its kernel-control certificate enumerates source
    balls within ``cap``."""
    try:
        factory = EXAMPLE_HOMOMORPHISMS[name]
    except KeyError:
        known = ", ".join(sorted(EXAMPLE_HOMOMORPHISMS))
        raise ValueError(f"unknown homomorphism {name!r} (known: {known})") from None
    return factory(cap)


# -- suites ------------------------------------------------------------------


def _run_trials(suite: str, schema: tuple, model, spec: RandomChainSpec,
                trials: int, seed: int, check, cap: int,
                input_chain: Optional[Chain] = None) -> dict:
    """The ``suite`` table of ``check(chain)`` rows for ``trials`` chains
    drawn in order from ``Random(seed)`` (or for ``input_chain`` alone, when
    given), each with its trial number and projected onto ``schema`` in
    schema order; rows not ``ok`` count as violations."""
    if input_chain is not None:
        chains = [input_chain]
    else:
        rng = random.Random(seed)
        chains = (random_chain(model, spec, rng, cap) for _ in range(trials))
    rows = [{"trial": trial, **check(chain)}
            for trial, chain in enumerate(chains)]
    rows = [{key: row[key] for key in schema} for row in rows]
    return {suite: (schema, rows, sum(not row["ok"] for row in rows))}


GROWTH_SCHEMA = ("r", "sphere_size", "ball_size", "ratio")


def run_growth(model_desc: str, degree: int, r_max: int) -> dict:
    model = parse_model(model_desc)
    rows = []
    for r in range(1, r_max + 1):
        ball = model.ball_size(r)
        rows.append({
            "r": r,
            "sphere_size": model.sphere_size(r),
            "ball_size": ball,
            "ratio": Fraction(ball, r**degree),
        })
    return {"growth": (GROWTH_SCHEMA, rows, 0)}


CONTRACTIVITY_SCHEMA = (
    "trial", "k", "n", "p", "q", "norm_p", "norm_q",
    "ceil_m", "norm_sup", "norm_ceil", "ok",
)


def run_contractivity(model_desc: str, k: int, n: int, p, q,
                      trials: int, seed: int, radius: int = 3,
                      support: int = 8, cap: int = DEFAULT_ENUM_CAP) -> dict:
    def check(chain):
        report = check_contractivity(chain, n, p, q)
        return {"k": k, "n": n, "p": p, "q": q, **vars(report)}

    spec = RandomChainSpec(degree=k, support=support, radius=radius)
    return _run_trials("norms", CONTRACTIVITY_SCHEMA, parse_model(model_desc),
                       spec, trials, seed, check, cap)


COMPARE_SCHEMA = (
    "trial", "k", "n", "p", "q", "m", "constant", "lhs", "rhs", "ratio", "ok",
)
_CONSTANT_R_MAX = 10  # radii over which compare-pq takes its growth constant


def run_compare(model_desc: str, growth_degree: int, k: int, n: int, p, q,
                trials: int, seed: int, radius: int = 8, support: int = 10,
                cap: int = DEFAULT_ENUM_CAP) -> dict:
    model = parse_model(model_desc)
    constant = growth_constant(model, growth_degree, _CONSTANT_R_MAX)

    def check(chain):
        report = verify_comparison(chain, n, p, q, growth_degree, constant)
        return {"k": k, "n": n, "p": p, "q": q, **vars(report),
                "ratio": report.ratio}

    spec = RandomChainSpec(degree=k, support=support, radius=radius)
    return _run_trials("compare-pq", COMPARE_SCHEMA, model, spec, trials, seed,
                       check, cap)


PUSHFORWARD_SCHEMA = (
    "trial", "hom", "k", "n", "p", "m", "constant", "lhs", "rhs",
    "exact", "ratio_primary", "ratio_alternate", "ok",
)


def run_pushforward(hom_name: str, k: int, n: int, p, trials: int, seed: int,
                    radius: int = 6, support: int = 8, cap: int = DEFAULT_ENUM_CAP,
                    hom: Optional[GroupHomomorphism] = None) -> dict:
    hom = hom or example_homomorphism(hom_name, cap)

    def check(chain):
        report = verify_pushforward_estimate(hom, chain, n, p)
        return {"hom": hom_name, "k": k, "n": n, "p": p, **vars(report)}

    spec = RandomChainSpec(degree=k, support=support, radius=radius)
    return _run_trials("pushforward", PUSHFORWARD_SCHEMA, hom.source, spec,
                       trials, seed, check, cap)


DIFFUSE_SCHEMA = (
    "trial", "degree", "N", "conforming", "n", "p", "q", "ratio_m",
    "support", "cone_support", "homotopy_exact", "bound_lhs", "bound_rhs",
    "bound_ok", "ratio_map", "ratio_cone", "ratio_boundary_cone", "ok",
)


def run_diffuse(model_desc: str, annuli_degree: int, degree: int, n: int, p, q,
                trials: int, seed: int, radius: int = 2, support: int = 3,
                ratio_m: Optional[int] = None, cap: int = DEFAULT_ENUM_CAP,
                max_diameter: Optional[int] = None,
                input_chain: Optional[Chain] = None) -> tuple:
    """Homotopy-identity and explicit-bound checks for the cone operator.

    When ``input_chain`` is given it is used as the single trial; otherwise
    ``trials`` random chains are drawn.  Each trial is one call to
    :meth:`DiffusionOperator.estimate_report`, which verifies the homotopy
    identity in exact arithmetic and asserts the explicit cone bound; a
    trial is ok when both hold.  Returns the suite table and the cone of
    the last trial (``None`` when there was no trial).
    """
    model = parse_model(model_desc)
    operator = DiffusionOperator(
        model, AnnuliConfig(degree=annuli_degree, element_cap=cap)
    )
    if ratio_m is None:
        ratio_m = annuli_degree * n
    if max_diameter is None:
        max_diameter = radius
    spec = RandomChainSpec(
        degree=degree, support=support, radius=radius,
        max_diameter=max_diameter,
    )
    last_cone = None

    def check(chain):
        nonlocal last_cone
        report = operator.estimate_report(chain, n, p, q, ratio_m)
        last_cone = report.cone
        return {**vars(report), "degree": chain.degree, "N": annuli_degree,
                "ratio_m": ratio_m, "support": len(chain),
                "cone_support": len(report.cone),
                "ok": report.homotopy_exact and report.bound_ok}

    results = _run_trials("diffuse", DIFFUSE_SCHEMA, model, spec, trials, seed,
                          check, cap, input_chain)
    return results, last_cone


F2_LEVELS_SCHEMA = ("level", "words", "max_word_length", "markers_injective")
F2_DECAY_SCHEMA = (
    "level", "n", "p", "increment_norm", "tail_norm", "envelope",
    "decreasing_from", "telescoping_ok",
)


def run_f2(levels: int, norm_params: Iterable[tuple[int, float]],
           cap: int = DEFAULT_ENUM_CAP) -> dict:
    construction = VanishingConstruction(cap)
    construction.check_level(levels + 1)  # the top tips: fails before any build
    level_rows = []
    for d in range(levels + 1):
        data = construction.level(d)
        level_rows.append({
            "level": d,
            "words": len(data.signs),
            "max_word_length": max(map(len, data.signs)),
            # keys in strict shortlex order: the i-th word's marker is i in
            # base 2, so the markers are injective and are its shortlex index
            "markers_injective": all(starmap(lt, pairwise(
                zip(map(len, data.signs), data.signs)))),
        })
    # decay_table asserts the telescoping identity at every level 0..levels
    # (and the support envelope of every row); a failed assertion is one
    # violation, reported the same way at every level
    telescoping_ok = True
    try:
        table = construction.decay_table(levels, norm_params)
    except AssertionError:
        table, telescoping_ok = [], False
    decay_rows = [{**asdict(row), "telescoping_ok": telescoping_ok}
                  for row in table]
    violations = int(not telescoping_ok)
    violations += sum(0 if r["markers_injective"] else 1 for r in level_rows)
    return {
        "f2-levels": (F2_LEVELS_SCHEMA, level_rows, violations),
        "f2-decay": (F2_DECAY_SCHEMA, decay_rows, 0),
    }


# -- the aggregate suite -------------------------------------------------------


def _merge(*results: dict) -> dict:
    """Per suite, the rows concatenated in order and the violations summed."""
    out: dict = {}
    for result in results:
        for suite, (schema, rows, violations) in result.items():
            _, seen, total = out.get(suite, (schema, [], 0))
            out[suite] = (schema, seen + rows, total + violations)
    return out


def run_all(seed: int, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """Every asserted suite at a small deterministic scale."""
    return _merge(
        run_growth("abelian:2", 2, 10),
        run_contractivity("free:2", k=1, n=1, p=2, q=4, trials=25, seed=seed,
                          radius=3, cap=cap),
        *(run_compare(model_desc, growth_degree, k=1, n=1, p=2, q=q,
                      trials=10, seed=seed, radius=6, support=6, cap=cap)
          for model_desc, growth_degree, q in (
              ("abelian:1", 1, 4), ("abelian:1", 1, INF), ("abelian:2", 2, 4))),
        *(run_pushforward(hom_name, k=1, n=1, p=p, trials=10, seed=seed,
                          radius=6, cap=cap, hom=hom)
          for hom_name in ("abelian2-to-z", "z-to-cyclic5")
          for hom in (example_homomorphism(hom_name, cap),)
          for p in (1, 2, INF)),
        *(run_diffuse(model_desc, annuli_degree=2, degree=degree, n=1, p=2,
                      q=4, trials=8, seed=seed, radius=2, support=3,
                      cap=cap)[0]
          for model_desc, degree in (
              ("free:2", 1), ("free:2", 2), ("abelian:2", 2))),
        run_f2(4, [(0, 3), (0, 2)], cap),
    )
