"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the inequalities are
theorems given correct constants, so any violation is an implementation bug.
"""

import random
import time

from barnorm.chains import boundary
from barnorm.diffusion import AnnuliConfig, DiffusionOperator
from barnorm.groups import Cyclic, FreeAbelian, FreeGroup, growth_constant
from barnorm.harness import (
    RandomChainSpec,
    example_homomorphism,
    random_chain,
)
from barnorm.norms import (
    INF,
    verify_comparison,
    verify_pushforward_estimate,
    weighted_norm,
)
from barnorm.vanishing import VanishingConstruction
from barnorm import cli, vanishing
from oracles import bfs_distances, bfs_spheres, level_markers

REL = 1e-9


def finish(number: int, description: str, started: float, limit: float):
    elapsed = time.monotonic() - started
    in_time = elapsed < limit
    status = "PASS" if in_time else "FAIL (over time budget)"
    print(f"[criterion {number:2d}] {status}: {description} "
          f"({elapsed:.1f}s, limit {limit:.0f}s)")
    assert in_time, f"criterion {number}: {elapsed:.1f}s >= {limit:.0f}s"


def test_criterion_01_boundary_squares_to_zero():
    started = time.monotonic()
    for model in (FreeGroup(2), FreeAbelian(2)):
        for degree in (2, 3):
            spec = RandomChainSpec(degree=degree, support=10, radius=3)
            rng = random.Random(degree * 101)
            for _ in range(500):
                c = random_chain(model, spec, rng)
                assert boundary(boundary(c)).is_zero()
    finish(1, "boundary of boundary vanishes exactly (500 chains each of "
              "degree 2 and 3 over free:2 and abelian:2)", started, 10.0)


def test_criterion_02_homotopy_identity_exact():
    started = time.monotonic()
    op = DiffusionOperator(FreeGroup(2), AnnuliConfig(degree=2))
    tasks = [(1000 + i, 1) for i in range(160)] + \
            [(2000 + i, 2) for i in range(40)]
    for seed, degree in tasks:
        spec = RandomChainSpec(degree=degree, support=1, radius=3,
                               max_diameter=3, numerator_max=1,
                               denominator_max=4)
        chain = random_chain(op.model, spec, random.Random(seed))
        mapped = op.chain_map(chain)
        rhs = boundary(op.cone(chain))
        d_chain = boundary(chain)
        if d_chain:
            rhs = rhs + op.cone(d_chain)
        # c − E = ∂B + B∂, stated as c = E + ∂B + B∂ to save one large merge
        assert chain == mapped + rhs, (seed, degree)
    finish(2, "homotopy identity c - E(c) = dB(c) + B(dc) exact on 200 "
              "degree-1/2 chains (free:2, N=2, vertex radius <= 3)",
           started, 60.0)


def test_criterion_03_explicit_diffusion_bound():
    started = time.monotonic()
    grids = [(n, p) for n in (0, 1, 2) for p in (1.5, 2, 3)]
    setups = [
        (FreeGroup(2), RandomChainSpec(degree=1, support=3, radius=2)),
        (FreeAbelian(2), RandomChainSpec(degree=1, support=5, radius=3)),
    ]
    for model, spec in setups:
        operators = {n_deg: DiffusionOperator(model, AnnuliConfig(degree=n_deg))
                     for n_deg in (2, 3)}
        rng = random.Random(31)
        for _ in range(100):
            chain = random_chain(model, spec, rng)
            for n_deg, op in operators.items():
                coned = op.cone(chain)
                for n, p in grids:
                    lhs = weighted_norm(coned, n, p)
                    rhs = 2 ** (n / p) * weighted_norm(chain, n_deg * n, p)
                    assert lhs <= rhs * (1 + REL), (n, p, n_deg, lhs, rhs)
    finish(3, "cone norm bound |B(c)| <= 2^(n/p) |c|_(N n, p) over "
              "(n,p) in {0,1,2}x{1.5,2,3}, N in {2,3}, 100 free:2 and "
              "100 abelian:2 chains", started, 120.0)


def test_criterion_04_polynomial_growth_comparison():
    started = time.monotonic()
    models = [(FreeAbelian(1), 1, 3), (FreeAbelian(2), 2, 5)]
    for model, growth_degree, expected_constant in models:
        constant = growth_constant(model, growth_degree, 10)
        assert constant == expected_constant
        for k in (1, 2):
            for n in (0, 1):
                for p, q in ((1, 2), (2, 4), (2, INF)):
                    spec = RandomChainSpec(degree=k, support=10, radius=8)
                    rng = random.Random(k * 17 + n * 5)
                    for _ in range(50):
                        chain = random_chain(model, spec, rng)
                        report = verify_comparison(
                            chain, n, p, q, growth_degree, constant)
                        assert report.ok, (model.describe(), k, n, p, q,
                                           report.lhs, report.rhs)
    finish(4, "norm comparison on abelian:1 (D=1, K=3) and abelian:2 "
              "(D=2, K=5): grids (k,n) in {1,2}x{0,1}, (p,q) in "
              "{(1,2),(2,4),(2,inf)}, 50 chains each", started, 60.0)


def test_criterion_05_functoriality_estimates():
    started = time.monotonic()
    homs = [("abelian2-to-z", 6), ("z-to-cyclic5", 8)]
    for name, radius in homs:
        hom = example_homomorphism(name)
        for p in (1, 1.5, 2, INF):
            rng = random.Random(23)
            for trial in range(100):
                k = 1 + trial % 2
                n = trial % 2
                spec = RandomChainSpec(degree=k, support=8, radius=radius)
                chain = random_chain(hom.source, spec, rng)
                report = verify_pushforward_estimate(hom, chain, n, p)
                assert report.ok, (name, k, n, p, report.lhs, report.rhs)
                if p == 1:
                    assert report.exact  # compared in exact rationals
    finish(5, "functoriality estimates for abelian2-to-z and z-to-cyclic5: "
              "p=1 exact, p in (1,inf) and p=inf with the documented "
              "constant, 100 chains per exponent", started, 60.0)


def test_criterion_06_construction_soundness():
    started = time.monotonic()
    construction = VanishingConstruction()
    positive_letters = {b for g in construction.model.positive_generators
                        for b in g}
    for d in range(7):
        data = construction.level(d)
        words = list(data.signs)
        assert len(words) == 4**d
        assert len(set(words)) == 4**d
        assert all(set(w) <= positive_letters for w in words)
        markers = list(level_markers(data).values())
        assert list(vanishing.markers(d)) == markers  # key order is shortlex
        assert len(set(markers)) == len(markers)  # injective
        assert all(len(m) == 2 * d for m in markers)
    finish(6, "construction levels 0..6 sound: 4^d distinct positive words, "
              "injective canonical markers, zero collisions", started, 30.0)


def test_criterion_07_exact_telescoping():
    started = time.monotonic()
    construction = VanishingConstruction()
    assert len(construction.partial_sum(5)) == 2730
    for top in range(6):
        # boundary_tail asserts the identity internally and returns the tail
        tail = construction.boundary_tail(top)
        assert len(tail) == 4 ** (top + 1)
    finish(7, "telescoping boundary identity for partial sums through level "
              "5 (2730 simplices), exact rational equality", started, 30.0)


def test_criterion_08_decay_threshold():
    started = time.monotonic()
    construction = VanishingConstruction()
    rows3 = construction.decay_table(6, [(0, 3)])
    rows2 = construction.decay_table(6, [(0, 2)])
    incs3 = [r.increment_norm for r in rows3]
    tails3 = [r.tail_norm for r in rows3]
    for row in rows3:
        closed = (2 * 4**row.level) ** (1 / 3) / 2 ** (row.level + 1)
        assert abs(row.increment_norm - closed) <= REL * closed
    assert all(a > b for a, b in zip(incs3, incs3[1:]))
    assert all(a > b for a, b in zip(tails3, tails3[1:]))
    incs2 = [r.increment_norm for r in rows2]
    assert max(incs2) - min(incs2) <= REL * max(incs2)
    finish(8, "increments decay strictly at (n,p)=(0,3) matching the "
              "closed form, and stagnate at (0,2), levels 1..6",
           started, 30.0)


def test_criterion_09_metric_oracles():
    started = time.monotonic()
    cases = [(FreeGroup(2), 6), (FreeAbelian(2), 12), (Cyclic(7), 3)]
    for model, radius in cases:
        oracle = bfs_distances(model, radius)
        for g, d in oracle.items():
            assert model.word_length(g) == d
        spheres = bfs_spheres(model, radius)
        for r in range(radius + 1):
            assert set(model.sphere(r)) == spheres[r]
            assert model.sphere_size(r) == len(spheres[r])
    # Cyclic(7) oracle at radius 3 covers the whole group
    assert len(bfs_distances(Cyclic(7), 3)) == 7
    finish(9, "word lengths and sphere sizes match the BFS oracle on "
              "free:2 ball(6), abelian:2 ball(12), and all of cyclic:7",
           started, 30.0)


def test_criterion_10_reproducibility(tmp_path):
    started = time.monotonic()
    outs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        assert cli.main(["all", "--seed", "42", "--outdir", str(outdir)]) == 0
        outs.append(outdir)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert csvs  # the aggregate run writes one CSV per suite
    for name in csvs:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    finish(10, "two `all --seed 42` runs produce byte-identical CSV reports",
           started, 120.0)
