import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from barnorm import cli, harness
from barnorm.chains import Chain, boundary, chain_from_records
from barnorm.diffusion import AnnuliConfig, DiffusionOperator
from barnorm.errors import CollisionDetected, EnumerationTooLarge
from barnorm.groups import FreeGroup, parse_model
from barnorm.harness import (
    EXAMPLE_HOMOMORPHISMS,
    RandomChainSpec,
    example_homomorphism,
    random_chain,
)
from barnorm.vanishing import VanishingConstruction
from oracles import coefficient_sum

F2 = FreeGroup(2)
DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"
PINNED = json.loads(DIGESTS.read_text(encoding="utf-8"))


def count_calls(monkeypatch, cls, name):
    """Record the arguments of every call to ``cls.name`` (still run)."""
    calls = []
    original = getattr(cls, name)

    def wrapper(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def flip_one_sign(monkeypatch, level):
    """Generate ``level`` with the sign of its first tip flipped, both where
    it is stored and where the chunk below takes its tips."""
    original = VanishingConstruction._children

    def children(self, d, parts=None):
        tips, signs = original(self, d, parts)
        if d + 1 == level:
            signs = itertools.chain([-next(signs)], signs)
        return tips, signs

    monkeypatch.setattr(VanishingConstruction, "_children", children)


class TestRandomChains:
    def test_deterministic(self):
        spec = RandomChainSpec(degree=2, support=6, radius=3)
        a = random_chain(F2, spec, random.Random(42))
        b = random_chain(F2, spec, random.Random(42))
        assert a == b

    def test_empty_support(self):
        spec = RandomChainSpec(degree=1, support=0, radius=2)
        assert random_chain(F2, spec, random.Random(0)).is_zero()

    def test_vertices_within_radius(self):
        spec = RandomChainSpec(degree=2, support=10, radius=2)
        chain = random_chain(F2, spec, random.Random(9))
        ball = set(F2.ball(2))
        for simplex in chain.support():
            assert all(v in ball for v in simplex)

    def test_no_all_identity_simplex(self):
        spec = RandomChainSpec(degree=1, support=16, radius=2)
        chain = random_chain(F2, spec, random.Random(3))
        assert ((),) not in chain.support()
        assert len(chain) == 16  # 16 of the 17 ball elements qualify

    def test_max_diameter(self):
        spec = RandomChainSpec(degree=2, support=12, radius=3, max_diameter=2)
        chain = random_chain(F2, spec, random.Random(4))
        assert all(F2.diameter(s) <= 2 for s in chain.support())

    def test_coefficients_in_declared_range(self):
        spec = RandomChainSpec(degree=1, support=20, radius=3,
                               numerator_max=3, denominator_max=2)
        chain = random_chain(F2, spec, random.Random(8))
        for _, value in chain.terms():
            assert value != 0
            assert abs(value) <= 3
            assert value.denominator <= 6  # merged bound after reduction

    def test_radius_zero_rejected_when_drawing(self):
        with pytest.raises(ValueError, match="radius 0"):
            RandomChainSpec(degree=1, support=3, radius=0)
        spec = RandomChainSpec(degree=1, support=0, radius=0)
        assert random_chain(F2, spec, random.Random(0)).is_zero()

    def test_max_diameter_zero_rejected_when_drawing(self):
        # every simplex but the all-identity one has diameter >= 1
        with pytest.raises(ValueError, match="max_diameter 0"):
            RandomChainSpec(degree=1, support=3, radius=2, max_diameter=0)
        spec = RandomChainSpec(degree=1, support=0, radius=2, max_diameter=0)
        assert random_chain(F2, spec, random.Random(0)).is_zero()

    def test_degree_zero_rejected_before_drawing(self):
        # the only degree-0 simplex is the all-identity (): neither the ball
        # (beyond a cap of 1) nor the rng is touched
        spec = RandomChainSpec(degree=0, support=1, radius=3)
        with pytest.raises(ValueError, match="degree 0 has no simplex"):
            random_chain(F2, spec, None, cap=1)
        spec = RandomChainSpec(degree=0, support=0, radius=3)
        assert random_chain(F2, spec, None).is_zero()

    def test_impossible_spec_errors(self):
        spec = RandomChainSpec(degree=1, support=100, radius=1)
        with pytest.raises(ValueError):
            random_chain(F2, spec, random.Random(0))

    @pytest.mark.parametrize("degree,available", [(1, 4), (2, 24)])
    def test_too_few_simplices_fail_before_drawing(self, degree, available):
        # ball(8) of cyclic:5 is the whole group: 5**degree tuples, one of
        # them all-identity; neither the ball (beyond a cap of 1) nor the
        # rng is touched
        model = parse_model("cyclic:5")
        spec = RandomChainSpec(degree=degree, support=available + 1, radius=8)
        with pytest.raises(ValueError, match=(
                rf"cannot draw {available + 1} distinct simplices: degree "
                rf"{degree} over ball\(8\) of cyclic:5 has only {available} ")):
            random_chain(model, spec, None, cap=1)
        spec = RandomChainSpec(degree=degree, support=available, radius=8)
        assert len(random_chain(model, spec, random.Random(0))) == available

    def test_over_cap_ball_size_is_raised_to_no_power(self):
        # a ball larger than the support is never raised to the degree: a
        # size that refuses ``**`` still fails as an over-cap ball
        class NoPower(int):
            def __pow__(self, other, mod=None):
                raise AssertionError("the ball size was raised to a power")

        class HugeBall(FreeGroup):
            def ball_size(self, r):
                return NoPower(10**30)

        spec = RandomChainSpec(degree=2, support=3, radius=5)
        with pytest.raises(EnumerationTooLarge,
                           match=r"ball\(5\) of free:2: predicted size"):
            random_chain(HugeBall(2), spec, None, cap=1000)


class TestExampleHomomorphisms:
    def test_registry(self):
        assert set(EXAMPLE_HOMOMORPHISMS) == {
            "abelian2-to-z", "z-to-cyclic5", "free2-identity"}
        for name in EXAMPLE_HOMOMORPHISMS:
            hom = example_homomorphism(name)
            assert hom.kernel_control is not None
            assert hom.is_metric_compatible()

    def test_certificate_values(self):
        assert example_homomorphism("abelian2-to-z").kernel_control.constant == 3
        assert example_homomorphism("z-to-cyclic5").kernel_control.constant == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            example_homomorphism("nope")

    def test_all_builds_each_example_once(self, monkeypatch):
        # each homomorphism serves its three pushforward runs
        built = []
        original = harness.example_homomorphism

        def example(name, cap):
            built.append(name)
            return original(name, cap)

        monkeypatch.setattr(harness, "example_homomorphism", example)
        harness.run_all(3)
        assert built == ["abelian2-to-z", "z-to-cyclic5"]


class TestSuites:
    def test_growth(self):
        [(suite, (schema, rows, violations))] = harness.run_growth(
            "abelian:2", 2, 10).items()
        assert suite == "growth" and schema == harness.GROWTH_SCHEMA
        assert violations == 0 and len(rows) == 10
        assert max(row["ratio"] for row in rows) == 5
        assert list(rows[0]) == list(harness.GROWTH_SCHEMA)

    def test_contractivity(self):
        _, rows, violations = harness.run_contractivity(
            "free:2", 1, 1, 2, 4, trials=10, seed=1)["norms"]
        assert violations == 0 and len(rows) == 10

    def test_compare(self):
        _, rows, violations = harness.run_compare(
            "abelian:2", 2, k=1, n=0, p=2, q=4, trials=10, seed=2)["compare-pq"]
        assert violations == 0

    def test_pushforward(self):
        _, rows, violations = harness.run_pushforward(
            "z-to-cyclic5", k=1, n=1, p=2, trials=10, seed=3)["pushforward"]
        assert violations == 0

    def test_diffuse(self):
        results, last_cone = harness.run_diffuse(
            "free:2", annuli_degree=2, degree=1, n=1, p=2, q=4,
            trials=5, seed=4, radius=2, support=2)
        _, rows, violations = results["diffuse"]
        assert violations == 0
        assert all(r["homotopy_exact"] and r["bound_ok"] for r in rows)
        assert last_cone is not None

    @pytest.mark.parametrize("degree", [1, 2])
    def test_diffuse_cones_each_chain_once(self, monkeypatch, degree):
        cones = count_calls(monkeypatch, DiffusionOperator, "cone")
        results, _ = harness.run_diffuse(
            "free:2", annuli_degree=2, degree=degree, n=1, p=2, q=4,
            trials=4, seed=5, radius=2, support=3)
        _, _, violations = results["diffuse"]
        assert violations == 0
        spec = RandomChainSpec(degree=degree, support=3, radius=2,
                               max_diameter=2)
        rng = random.Random(5)
        chains = [random_chain(F2, spec, rng) for _ in range(4)]
        # cone(c) per trial, plus cone(∂c) where ∂c is nonzero
        assert len(cones) == sum(1 + bool(boundary(c)) for c in chains)

    def test_f2(self):
        results = harness.run_f2(3, [(0, 3)])
        _, level_rows, violations = results["f2-levels"]
        _, decay_rows, _ = results["f2-decay"]
        assert violations == 0
        assert [r["words"] for r in level_rows] == [1, 4, 16, 64]
        assert all(r["telescoping_ok"] for r in decay_rows)

    def test_all_aggregate(self):
        results = harness.run_all(seed=7)
        assert set(results) == {
            "growth", "norms", "compare-pq", "pushforward",
            "diffuse", "f2-levels", "f2-decay"}
        for schema, rows, violations in results.values():
            assert violations == 0
            for row in rows:
                assert list(row) == list(schema)


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_growth_command(self, tmp_path):
        code = self.run("growth", "--model", "abelian:1", "--growth-degree",
                        "1", "--r-max", "6", "--outdir", str(tmp_path))
        assert code == 0
        text = (tmp_path / "growth.csv").read_text()
        assert text.startswith("# schema: growth v1\n")
        assert text.splitlines()[1] == "r,sphere_size,ball_size,ratio"
        summary = json.loads((tmp_path / "growth_summary.json").read_text())
        assert summary["suite"] == "growth" and summary["violations"] == 0

    def test_compare_command(self, tmp_path):
        code = self.run("compare-pq", "--model", "abelian:2",
                        "--growth-degree", "2", "--k", "1", "--n", "0",
                        "--p", "2", "--q", "4", "--trials", "50",
                        "--seed", "5", "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "compare-pq.csv").read_text().splitlines()
        assert len(lines) == 52  # schema comment + header + 50 rows
        assert all(line.endswith(",true") for line in lines[2:])

    def test_infinite_exponent_flag(self, tmp_path):
        code = self.run("compare-pq", "--model", "abelian:1",
                        "--growth-degree", "1", "--q", "inf",
                        "--trials", "5", "--outdir", str(tmp_path))
        assert code == 0
        assert ",inf," in (tmp_path / "compare-pq.csv").read_text()

    def test_compare_refuses_infinite_p(self, tmp_path, capsys):
        # norms and diffuse refuse p = inf with the same message
        code = self.run("compare-pq", "--p", "inf",
                        "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert "need p < q, got p=inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_enumeration_short_of_its_count_exits_one(self, tmp_path, capsys,
                                                      monkeypatch):
        iter_sphere = FreeGroup.iter_sphere

        def drops_one(self, r):
            return itertools.islice(iter_sphere(self, r), 1 if r else 0, None)

        monkeypatch.setattr(FreeGroup, "iter_sphere", drops_one)
        short = "sphere(1) of free:2: enumerated 3, counting formula says 4"
        with pytest.raises(AssertionError, match=re.escape(short)):
            FreeGroup(2).ball(1)
        with pytest.raises(AssertionError, match=re.escape(short)):
            DiffusionOperator(FreeGroup(2), AnnuliConfig(degree=2)).annulus(1)
        code = self.run("diffuse", "--trials", "1",
                        "--outdir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {short}\n"
        assert not (tmp_path / "out").exists()

    def test_f2_command(self, tmp_path):
        code = self.run("f2-vanish", "--levels", "4", "--norms", "0:3,0:2",
                        "--outdir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "f2-levels.csv").exists()
        assert (tmp_path / "f2-decay.csv").exists()

    def test_diffuse_with_chain_file(self, tmp_path):
        chain_path = tmp_path / "chain.json"
        records = [{"simplex": ["a"], "coeff": "1/2"},
                   {"simplex": ["ab"], "coeff": "-2/3"}]
        chain_path.write_text(json.dumps(records))
        out_path = tmp_path / "cone.json"
        code = self.run("diffuse", "--model", "free:2", "--N", "2",
                        "--degree", "1", "--chain", str(chain_path),
                        "--emit-chain", str(out_path),
                        "--outdir", str(tmp_path))
        assert code == 0
        emitted = json.loads(out_path.read_text())
        model = parse_model("free:2")
        cone_chain = chain_from_records(model, emitted)
        # mass of each source simplex is preserved by the averaged cone
        assert coefficient_sum(cone_chain) == Fraction(1, 2) - Fraction(2, 3)
        rows = (tmp_path / "diffuse.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_degree_zero_chain_file_needs_no_draw(self, tmp_path):
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps([{"simplex": [], "coeff": "1/2"}]))
        code = self.run("diffuse", "--model", "free:2", "--degree", "0",
                        "--chain", str(chain_path), "--outdir", str(tmp_path))
        assert code == 0

    def test_degree_zero_draw_names_the_degree(self, tmp_path, capsys):
        code = self.run("norms", "--k", "0", "--trials", "1",
                        "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert "error: degree 0 has no simplex to draw" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_impossible_draw_fails_at_once(self, tmp_path, capsys):
        code = self.run("compare-pq", "--model", "cyclic:5", "--q", "inf",
                        "--trials", "2", "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert ("error: cannot draw 10 distinct simplices: degree 1 over "
                "ball(8) of cyclic:5 has only 4 besides the all-identity one"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, top", [
        (("f2-vanish", "--levels", "3"), 4), (("all",), 5)],
        ids=["f2-vanish", "all"])
    def test_f2_levels_within_the_cap(self, tmp_path, capsys, monkeypatch,
                                      command, top):
        # the top level, the cone tips of the last one, is refused unbuilt
        builds = count_calls(monkeypatch, VanishingConstruction, "_build_next")
        out, words = str(tmp_path / "out"), 4**top
        assert self.run(*command, "--cap", str(words - 1), "--outdir", out) == 2
        assert (f"F2 level {top}: predicted size {words} exceeds cap "
                f"{words - 1}" in capsys.readouterr().err)
        assert builds == [] and not (tmp_path / "out").exists()
        assert self.run(*command, "--cap", str(words), "--outdir", out) == 0

    def test_f2_over_the_default_cap_builds_nothing(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.delenv("BARNORM_ENUM_CAP", raising=False)
        builds = count_calls(monkeypatch, VanishingConstruction, "_build_next")
        code = self.run("f2-vanish", "--levels", "11", "--outdir", str(tmp_path))
        assert code == 2 and builds == []
        assert ("F2 level 12: predicted size 16777216 exceeds cap"
                in capsys.readouterr().err)

    def test_huge_radius_refused_at_once(self, tmp_path):
        # a free ball's size is one closed form, not a sum over its spheres;
        # its exact count, 158,498 bits long, is named by its magnitude
        script = "import sys; from barnorm.cli import main; sys.exit(main())"
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, "norms", "--radius", "100000",
             "--trials", "1", "--outdir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2
        assert ("ball(100000) of free:2: predicted size over 2**158497 "
                "exceeds cap") in done.stderr
        assert not (tmp_path / "out").exists()

    def test_cap_error_is_reported(self, tmp_path, capsys):
        code = self.run("diffuse", "--model", "free:2", "--N", "3",
                        "--degree", "1", "--radius", "3", "--max-diameter",
                        "3", "--trials", "1", "--outdir", str(tmp_path))
        assert code == 2
        assert "exceeds cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["norms", "compare-pq", "pushforward", "diffuse"])
    def test_cap_reaches_every_chain_draw(self, tmp_path, capsys,
                                          monkeypatch, command):
        monkeypatch.setenv("BARNORM_ENUM_CAP", "5")
        code = self.run(command, "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert "exceeds cap" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_exponent_names_option_and_forms(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self.run("norms", "--p", "abc", "--outdir", str(tmp_path / "out"))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --p: invalid exponent 'abc'" in err
        assert "inf" in err and "5/2" in err
        assert "_exponent" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("norms", "--p", "1/0"), ("norms", "--p", "1e400"),
        ("f2-vanish", "--norms", "0:1/0"), ("f2-vanish", "--norms", "0:3,x:3"),
    ], ids=["zero-denominator", "overflow", "norms-pair", "norms-degree"])
    def test_bad_exponent_text_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            self.run(*argv, "--outdir", str(tmp_path / "out"))
        assert exit_info.value.code == 2
        assert f"argument {argv[1]}: invalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cls, name, exc", [
        (("f2-vanish", "--levels", "2"), VanishingConstruction, "level_chunk",
         CollisionDetected("forged collision")),
        (("diffuse", "--trials", "1"), DiffusionOperator, "cone",
         AssertionError("forged invariant failure")),
    ], ids=["collision", "assertion"])
    def test_broken_invariant_exits_one(self, tmp_path, capsys, monkeypatch,
                                        command, cls, name, exc):
        def broken(self, *args):
            raise exc

        monkeypatch.setattr(cls, name, broken)
        code = self.run(*command, "--outdir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {exc}\n"
        assert not (tmp_path / "out").exists()

    def test_f2_negative_levels_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self.run("f2-vanish", "--levels", "-1",
                     "--outdir", str(tmp_path / "out"))
        assert exit_info.value.code == 2
        assert "argument --levels: invalid value '-1' (must be >= 0)" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option, value", [
        ("norms", "--n", "-1"),
        ("growth", "--growth-degree", "-1"),
        ("norms", "--trials", "-2"),
        ("compare-pq", "--k", "-1"),
        ("pushforward", "--support", "-1"),
    ])
    def test_negative_value_names_option(self, tmp_path, capsys, command,
                                         option, value):
        with pytest.raises(SystemExit) as exit_info:
            self.run(command, option, value, "--outdir", str(tmp_path / "out"))
        assert exit_info.value.code == 2
        assert f"argument {option}: invalid value '{value}' (must be >= 0)" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option, value, low", [
        ("growth", "--r-max", "0", 1),
        ("growth", "--r-max", "-3", 1),
        ("diffuse", "--N", "1", 2),
        ("diffuse", "--degree", "-1", 0),
        ("diffuse", "--ratio-m", "-1", 0),
        # every non-identity simplex has diameter >= 1
        ("diffuse", "--max-diameter", "-1", 1),
        ("diffuse", "--max-diameter", "0", 1),
        # the radius-0 ball holds only the identity, so no draw succeeds
        *((command, "--radius", "0", 1)
          for command in ("norms", "compare-pq", "pushforward", "diffuse")),
        ("diffuse", "--radius", "-1", 1),
        ("growth", "--cap", "-1", 1),
        *((command, "--cap", "0", 1)
          for command in ("growth", "diffuse", "f2-vanish", "all")),
    ])
    def test_int_below_its_bound_names_option(self, tmp_path, capsys, command,
                                              option, value, low):
        with pytest.raises(SystemExit) as exit_info:
            self.run(command, option, value, "--outdir", str(tmp_path / "out"))
        assert exit_info.value.code == 2
        assert f"argument {option}: invalid value '{value}' (must be >= {low})" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--p", "--q"])
    def test_exponent_below_one_names_option(self, tmp_path, capsys, option):
        with pytest.raises(SystemExit) as exit_info:
            self.run("norms", option, "0.5", "--outdir", str(tmp_path / "out"))
        assert exit_info.value.code == 2
        assert f"argument {option}: invalid exponent '0.5' (must be >= 1)" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_certificate_enumerates_within_the_cap(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("BARNORM_ENUM_CAP", "5")
        code = self.run("pushforward", "--outdir", str(tmp_path / "out"))
        assert code == 2
        # the certificate's radius-2 ball (13 elements) fails, not the
        # radius-6 chain draw
        assert "ball(2) of abelian:2: predicted size 13 exceeds cap 5" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"model": "abelian:1", "growth_degree": 1, "r_max": 4,
             "outdir": str(tmp_path / "from_config")}))
        code = self.run("--config", str(config), "growth")
        assert code == 0
        assert (tmp_path / "from_config" / "growth.csv").exists()
        # explicit flags override config values
        code = self.run("--config", str(config), "growth",
                        "--outdir", str(tmp_path / "explicit"))
        assert code == 0
        assert (tmp_path / "explicit" / "growth.csv").exists()

    @pytest.mark.parametrize("command, key, value, option", [
        ("norms", "trials", -2, "--trials"),
        ("growth", "growth_degree", -1, "--growth-degree"),
    ])
    def test_config_values_checked_like_flags(self, tmp_path, capsys, command,
                                              key, value, option):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exit_info:
            self.run("--config", str(config), command,
                     "--outdir", str(tmp_path / "out"))
        assert exit_info.value.code == 2
        assert f"argument {option}: invalid value '{value}' (must be >= 0)" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_f2_builds_no_edge_sum(self, tmp_path, monkeypatch):
        edge_sums = count_calls(monkeypatch, VanishingConstruction, "edge_sum")
        sums = count_calls(monkeypatch, Chain, "__add__")
        code = self.run("f2-vanish", "--levels", "4", "--norms", "0:3,0:2",
                        "--outdir", str(tmp_path))
        assert code == 0
        # the identity at levels 0..4 is checked against the sign tables of
        # levels 1..5, and the tail norms come from their word lengths;
        # decay_table(4) reads single chunks, so no partial sum is added up
        assert edge_sums == [] and sums == []

    @pytest.mark.parametrize("broken_level", [0, 2])
    def test_f2_telescoping_failure_is_one_violation(
            self, tmp_path, monkeypatch, broken_level):
        # the identity at level D is checked against chunk(D)'s own
        # simplices, whose tips and signs are level D + 1's first children
        flip_one_sign(monkeypatch, broken_level + 1)
        code = self.run("f2-vanish", "--levels", "4", "--norms", "0:3",
                        "--outdir", str(tmp_path))
        assert code == 1
        summary = json.loads((tmp_path / "f2-levels_summary.json").read_text())
        assert summary["violations"] == 1
        decay = (tmp_path / "f2-decay.csv").read_text().splitlines()
        assert not any(line.endswith(",true") for line in decay)

    def test_f2_level_zero_checks_the_identity(self, tmp_path, monkeypatch):
        flip_one_sign(monkeypatch, 1)
        code = self.run("f2-vanish", "--levels", "0", "--outdir", str(tmp_path))
        assert code == 1
        summary = json.loads((tmp_path / "f2-levels_summary.json").read_text())
        assert summary["violations"] == 1

    @pytest.mark.parametrize("command", sorted(PINNED),
                             ids=lambda command: command.split()[0])
    def test_outputs_match_pinned_digests(self, tmp_path, command):
        assert self.run(*command.split(), "--outdir", str(tmp_path)) == 0
        for name, digest in PINNED[command].items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"modle": "free:2", "trails": 3}))
        code = self.run("--config", str(config), "norms",
                        "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert "modle, trails" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                             ids=["missing", "invalid-json", "not-an-object"])
    def test_bad_config_file_rejected(self, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content)
        code = self.run("--config", str(config), "growth",
                        "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config file {config}")
        assert not (tmp_path / "out").exists()

    def test_malformed_cap_environment_rejected(self, tmp_path, capsys,
                                                monkeypatch):
        for value in ("abc", "0"):
            monkeypatch.setenv("BARNORM_ENUM_CAP", value)
            assert self.run("growth", "--outdir", str(tmp_path / "out")) == 2
            assert "BARNORM_ENUM_CAP: invalid" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_all_reproducible(self, tmp_path):
        for sub in ("one", "two"):
            assert self.run("all", "--seed", "11",
                            "--outdir", str(tmp_path / sub)) == 0
        for csv_path in sorted((tmp_path / "one").glob("*.csv")):
            twin = tmp_path / "two" / csv_path.name
            assert csv_path.read_bytes() == twin.read_bytes()
