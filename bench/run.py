"""Closed-loop benchmark for barnorm.

    python3 bench/run.py --workload homotopy --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 3          # every workload in turn

One thread, one client: the next operation starts only after the previous
one has finished and been verified.  A workload runs in one process; with
``--workload all`` each runs in a fresh child process, one after the other,
so that its peak memory is its own.  The library is imported
from the ``src/`` directory beside this one and driven only through its
public names.

Every run sets its workload up ``SETUP_REPEATS`` times from a fresh import
and reports the median as ``setup_s``, then runs operations for
``--seconds``.  With ``--trace 1`` it then sets the workload up once more
and repeats its first operations with every library layer traced (see
``tracing.py``), and reports per-layer metrics instead of end-to-end ones.

Standard output holds one line per metric, one JSON run record and, as the
last line, the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every operation was verified, 1 when a result was
printed but some operation failed, and 2 when no result could be produced
(for instance because ``src/barnorm`` is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracing import GcWatch, Instrumentation, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_tmp"
DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "digests.json").read_text(encoding="utf-8"))

SETUP_REPEATS = 15
# the 90th percentile is reported only with at least ten samples beyond it
P90_MIN_OPS = 100
TRIAL_SEED_STRIDE = 10_000


def import_barnorm():
    """Import ``barnorm`` from ``src/`` afresh, re-executing every module."""
    for name in [n for n in sys.modules if n == "barnorm" or n.startswith("barnorm.")]:
        del sys.modules[name]
    bn = importlib.import_module("barnorm")
    importlib.import_module("barnorm.harness")
    importlib.import_module("barnorm.cli")
    if Path(bn.__file__).resolve().parent != SRC / "barnorm":
        raise ImportError(f"barnorm was imported from {bn.__file__}, not {SRC}")
    return bn


# -- workloads -------------------------------------------------------------------


def proportional_schedule(shares: dict, length: int) -> list:
    """``length`` classes in which every prefix of length k holds each class
    ``c`` within one of ``k * shares[c]`` times (largest deficit first)."""
    taken = dict.fromkeys(shares, 0)
    order = []
    for k in range(1, length + 1):
        chosen = max(shares, key=lambda c: (k * shares[c] - taken[c], c))
        taken[chosen] += 1
        order.append(chosen)
    return order


def diameter_shares(model, spec) -> dict:
    """Exact probability of each simplex diameter for a one-simplex
    ``random_chain(model, spec, ...)``, which draws vertices uniformly from
    the ball and rejects the all-identity simplex and diameters above
    ``spec.max_diameter``."""
    counts: dict = {}
    for simplex in itertools.product(model.ball(spec.radius), repeat=spec.degree):
        if all(v == model.identity for v in simplex):
            continue
        diameter = model.diameter(simplex)
        if spec.max_diameter is None or diameter <= spec.max_diameter:
            counts[diameter] = counts.get(diameter, 0) + 1
    total = sum(counts.values())
    return {diameter: Fraction(n, total) for diameter, n in counts.items()}


class Workload:
    """Set up in ``__init__(bn, seed, workdir)``; ``op(i)`` runs and verifies
    operation ``i``; ``golden()`` is an optional untimed extra check."""

    traced_ops = 1

    def golden(self):
        return None


class Homotopy(Workload):
    """One operation is one criterion-2 trial: the homotopy identity
    ``c = E(c) + ∂B(c) + B(∂c)`` on a single-simplex chain over free:2 with
    annuli degree N=2, vertex radius <= 3 and diameter <= 3.

    Chains come from criterion 2's generator: degree 1 from
    ``Random(1000 + i)``, degree 2 from ``Random(2000 + i)``, with ``i``
    moved by ``seed * TRIAL_SEED_STRIDE``.  A trial's cost is set by its
    degree and diameter: diameter-3 trials take about a second, the others
    about a millisecond, and a run completes only a few dozen.  Drawn in
    order, the share of slow trials in a run, and with it ``ops_per_s``,
    would swing by ten per cent from seed to seed.  So the trials follow a
    fixed schedule of (degree, diameter) classes, in criterion 2's 4:1
    degree mix and each degree's exact diameter distribution under the
    generator; the seed picks which chains fill each class.

    The run cycles through ``CYCLE_LENGTH`` such chains, fewer than a run
    completes, so every run at a seed times all of them whatever the speed
    of the code; each prefix of the cycle keeps the class shares.
    """

    traced_ops = 20
    CYCLE_LENGTH = 30
    DEGREES = {1: (1000, Fraction(4, 5)), 2: (2000, Fraction(1, 5))}

    def __init__(self, bn, seed: int, workdir: Path):
        self.bn = bn
        model = bn.FreeGroup(2)
        self.operator = bn.DiffusionOperator(model, bn.AnnuliConfig(degree=2))
        for r in range(4):
            self.operator.annulus(r)
        specs = {degree: bn.harness.RandomChainSpec(
                     degree=degree, support=1, radius=3, max_diameter=3,
                     numerator_max=1, denominator_max=4)
                 for degree in self.DEGREES}
        shares = {}
        for degree, (_, share) in self.DEGREES.items():
            for diameter, p in diameter_shares(model, specs[degree]).items():
                shares[degree, diameter] = share * p
        drawn = {degree: 0 for degree in self.DEGREES}
        pending: dict = {}
        self.chains = []
        for degree, diameter in proportional_schedule(shares, self.CYCLE_LENGTH):
            while not pending.get((degree, diameter)):
                first = self.DEGREES[degree][0]
                rng = random.Random(first + drawn[degree] + TRIAL_SEED_STRIDE * seed)
                drawn[degree] += 1
                chain = bn.harness.random_chain(model, specs[degree], rng)
                cost_class = (degree, model.diameter(chain.support()[0]))
                pending.setdefault(cost_class, []).append(chain)
            self.chains.append(pending[degree, diameter].pop(0))

    def op(self, i: int) -> bool:
        bn = self.bn
        operator = self.operator
        chain = self.chains[i % len(self.chains)]
        mapped = operator.chain_map(chain)
        rhs = bn.boundary(operator.cone(chain))
        d_chain = bn.boundary(chain)
        if d_chain:
            rhs = rhs + operator.cone(d_chain)
        return chain == mapped + rhs


def run_cli(bn, argv, outdir: Path):
    """Run one CLI command into a clean ``outdir``.

    Returns ``{csv name: sha256}``, or None when the command exited nonzero
    or any summary reports violations.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = bn.cli.main([*argv, "--outdir", str(outdir)])
    if code != 0:
        return None
    for path in outdir.glob("*_summary.json"):
        if json.loads(path.read_text(encoding="utf-8"))["violations"]:
            return None
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.glob("*.csv"))}


class F2Vanish(Workload):
    """One operation is one ``f2-vanish --levels 7`` command, checked
    against pinned CSV digests.  The construction is deterministic, so every
    seed has the same input and the same pinned output."""

    ARGV = ("f2-vanish", "--levels", "7", "--norms", "0:3,0:2,1:2.5")

    def __init__(self, bn, seed: int, workdir: Path):
        self.bn = bn
        self.outdir = workdir / "f2-vanish"
        self.expected = DIGESTS[" ".join(self.ARGV)]

    def op(self, i: int) -> bool:
        return run_cli(self.bn, self.ARGV, self.outdir) == self.expected


class SuiteAll(Workload):
    """One operation is one ``all --seed S`` command.

    Operations cycle through the ten CLI seeds ``42 + 10*seed`` onward: the
    work of one ``all`` run differs by several per cent from one CLI seed to
    the next, and a run that averaged over only one would carry that into
    its figures.  Every operation's CSVs must equal those of the first
    operation on the same CLI seed, and those of ``all --seed 42`` must
    equal the pinned digests; when the run's seeds do not include 42, it is
    rerun once, untimed, after the timed loop.
    """

    traced_ops = 20
    SEEDS_PER_RUN = 10
    GOLDEN_SEED = 42
    GOLDEN = "all --seed 42"

    def __init__(self, bn, seed: int, workdir: Path):
        self.bn = bn
        self.outdir = workdir / "suite-all"
        first = self.GOLDEN_SEED + self.SEEDS_PER_RUN * seed
        self.cli_seeds = range(first, first + self.SEEDS_PER_RUN)
        self.expected = {self.GOLDEN_SEED: DIGESTS[self.GOLDEN]}

    def op(self, i: int) -> bool:
        cli_seed = self.cli_seeds[i % len(self.cli_seeds)]
        digests = run_cli(self.bn, ["all", "--seed", str(cli_seed)], self.outdir)
        if digests is None:
            return False
        return digests == self.expected.setdefault(cli_seed, digests)

    def golden(self):
        """Untimed rerun of the pinned seed, or None when the run used it."""
        if self.GOLDEN_SEED in self.cli_seeds:
            return None
        digests = run_cli(self.bn, ["all", "--seed", str(self.GOLDEN_SEED)], self.outdir)
        return digests == DIGESTS[self.GOLDEN]


WORKLOADS = {"homotopy": Homotopy, "f2-vanish": F2Vanish, "suite-all": SuiteAll}


# -- measurement -----------------------------------------------------------------


@dataclass
class Phase:
    latencies: list
    failed: int
    wall_s: float


def closed_loop(op, seconds: float, max_ops=None, clock=time.perf_counter) -> Phase:
    """Run ``op(0), op(1), …`` back to back until ``seconds`` have passed or
    ``max_ops`` operations ran.  An operation that returns False or raises
    counts as failed; the loop goes on."""
    latencies = []
    failed = 0
    started = clock()
    while True:
        t0 = clock()
        try:
            ok = op(len(latencies))
        except Exception:
            traceback.print_exc()
            ok = False
        latencies.append(clock() - t0)
        failed += not ok
        if max_ops is not None and len(latencies) >= max_ops:
            break
        if clock() - started >= seconds:
            break
    return Phase(latencies, failed, clock() - started)


def latency_summary(latencies) -> dict:
    """Median latency and, from ``P90_MIN_OPS`` samples on, the 90th
    percentile, both in ms, with the sample count."""
    ms = [1000.0 * x for x in latencies]
    out = {"samples": len(ms), "op_p50_ms": statistics.median(ms)}
    if len(ms) >= P90_MIN_OPS:
        out["op_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns its result and its run record."""
    cls = WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload = None  # free the previous set-up before timing the next
            t0 = time.perf_counter()
            bn = import_barnorm()
            workload = cls(bn, seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)

        phase = closed_loop(workload.op, seconds)
        golden = workload.golden()
        rss = peak_rss_mb()
        attempted = len(phase.latencies) + (golden is not None)
        failed = phase.failed + (golden is False)
        ops_per_s = (len(phase.latencies) - phase.failed) / phase.wall_s
        latency = latency_summary(phase.latencies)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "sched_affinity": sorted(os.sched_getaffinity(0)),
            "operations": len(phase.latencies), "golden_rerun_ok": golden,
            "wall_s": phase.wall_s, "latency": latency,
            "setup_s_samples": setup_times,
        }
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": latency["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        if trace:
            workload = None
            traced, tracer, gc_watch = _traced_phase(cls, bn, seed, workdir, seconds)
            attempted += len(traced.latencies)
            failed += traced.failed
            k = min(len(traced.latencies), len(phase.latencies))
            overhead = sum(traced.latencies[:k]) / sum(phase.latencies[:k]) - 1.0
            roots = [end - start for _, start, end, parent in tracer.spans if parent < 0]
            metrics = layer_metrics(tracer, gc_watch, sum(roots), overhead)
            record["traced"] = {
                "operations": len(traced.latencies),
                "failed": traced.failed,
                "ops_per_s_untraced": ops_per_s,
                "ops_per_s_traced":
                    (len(traced.latencies) - traced.failed) / traced.wall_s,
                "overhead": overhead,
                "spans": tracer.spans,
            }
        record["attempted"] = attempted
        record["failed"] = failed
        record["failed_frac"] = failed / attempted
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def _traced_phase(cls, bn, seed, workdir, seconds):
    """Set up once more and run the first ``cls.traced_ops`` operations with
    every layer traced (stopping early if ``seconds`` pass)."""
    tracer = Tracer(keep_depth=0)  # keep the set-up's span, not its calls
    with GcWatch() as gc_watch, Instrumentation(tracer, bn):
        tracer.enter("bench.setup")
        try:
            workload = cls(bn, seed, workdir)
        finally:
            tracer.exit()
        tracer.keep_depth = 1  # keep each operation's direct layer calls

        def op(i):
            tracer.enter("bench.op")
            try:
                return workload.op(i)
            finally:
                tracer.exit()

        phase = closed_loop(op, seconds, max_ops=cls.traced_ops)
    return phase, tracer, gc_watch


# -- reporting -------------------------------------------------------------------


def report_lines(result: dict, record: dict) -> list[str]:
    lines = [
        f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
        f"{record['operations']} operations in {record['wall_s']:.3f} s"
    ]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    if not record["trace"]:
        latency = record["latency"]
        if "op_p90_ms" in latency:
            lines.append(f"  op_p90_ms {latency['op_p90_ms']:.6g} ms "
                         f"(n={latency['samples']})")
        else:
            lines.append(f"  op_p90_ms omitted: {latency['samples']} operations "
                         f"< {P90_MIN_OPS}")
    else:
        traced = record["traced"]
        lines.append(f"  tracing overhead {traced['overhead']:.3%} over "
                     f"{traced['operations']} operations")
    lines.append(f"  failed_frac {record['failed_frac']:.6g} ratio "
                 f"({record['failed']}/{record['attempted']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "barnorm" / "__init__.py").is_file():
        print(f"error: no barnorm sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_each(args)
    sys.path.insert(0, str(SRC))
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 2
    for line in report_lines(result, record):
        print(line)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_each(args) -> int:
    """Run every workload in a fresh child process of this script, one after
    the other, so that each ``peak_rss_mb`` is the workload's own; relay
    their output and print, last, their results combined."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with code {child.returncode}",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry
                    for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
