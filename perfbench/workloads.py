"""The four benchmark workloads.

Each workload is a closed loop of jobs from one client: a job is one call into
pooltest's public API or CLI, and the next job starts only after the last one
returns.  A workload generates every input from the workload seed, runs job
``j`` on request, and checks the outputs afterwards, outside the timed region.

Why these four: each one makes a different layer do most of the work.

* ``mc_sparse``: Monte Carlo COMP and DD on a large sparse design.  Almost
  every outcome is distinct, so ``sim``'s per-call decode cache never hits and
  the per-trial decodes dominate.
* ``mc_map``: Monte Carlo MAP on small designs with two worker threads, the
  only user of MAP and of the thread pool.
* ``exact_enum``: exact enumeration over all 2^n defective sets.  The same
  layers as ``mc_sparse`` in the opposite mix: few distinct outcomes, so the
  decode cache absorbs decoding and ``sim``'s enumeration loop dominates.
* ``verify_cli``: the ``verify`` and ``disguise`` commands through
  ``cli.run``, dominated by exact disguise-pattern counting.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import oracles

# Every seed a workload uses is (workload_seed mod 2^32) * SEED_STRIDE + offset,
# so the workload seed shifts all trial and design seeds.
SEED_STRIDE = 1_000_000
SHARED_DESIGN_OFFSET = 900_000
WARM_UP_OFFSET = 990_000
SECOND_DESIGN_OFFSET = 500_000

# A pooled Monte Carlo error count fails its check beyond this many standard
# deviations from the oracle's error rate.
MC_SIGMAS = 5.0
# Trials of the independent COMP/DD simulation that checks mc_sparse.
ORACLE_TRIALS = 32_768
ORACLE_SEED_OFFSET = 980_000
# The MAP oracle enumerates defective sets up to this size exactly.
MAP_ORACLE_MAX_SET = 6
EXACT_TOLERANCE = 1e-12
BOUND_TOLERANCE = 1e-12


class Workload:
    """Inputs, jobs and output checks of one workload."""

    name = ""
    work_unit = ""
    # Job kinds alternate with this period; traced runs use whole periods.
    cycle = 1
    # Per-job designs generated, and their files written, during set-up.
    setup_designs = 0
    # Worker threads a job asks for; never more than the CPUs present.
    threads = 1
    # Percentile reported as job_s_tail, fixed so that runs of different
    # speed stay comparable; at least ten jobs lie beyond it in a 25 s run.
    tail_pct = 90
    # Jobs per second at the commit that defined the benchmark; it sizes the
    # fixed job count of traced runs.
    jobs_per_s = 1.0
    # Kind of host probe whose work resembles the dominant layer's (hostspeed.Probe).
    probe = "python"

    def __init__(self, pt, seed: int, workdir: str) -> None:
        self.pt = pt
        self.base = seed % 2**32 * SEED_STRIDE
        self.workdir = workdir
        self._designs: dict[int, object] = {}
        self._seen: set[tuple[int, tuple[int, ...]]] = set()

    def _distinct(self, design):
        key = (design.n, design.row_masks)
        if key in self._seen:
            raise RuntimeError(f"{self.name}: two job designs coincide")
        self._seen.add(key)
        return design

    def build(self) -> None:
        """Generate the designs the jobs share, and the first per-job designs."""
        self._designs.clear()
        self._seen.clear()
        self.build_shared()
        for g in range(self.setup_designs):
            self.design(g)

    def build_shared(self) -> None:
        pass

    def design(self, g: int):
        """Per-job design ``g``, generated on first use."""
        if g not in self._designs:
            self._designs[g] = self.make_design(g)
        return self._designs[g]

    def make_design(self, g: int):
        raise NotImplementedError

    def warm_up(self, rep: int) -> None:
        raise NotImplementedError

    def prepare(self, j: int):
        """Return a no-argument callable that runs job ``j``."""
        raise NotImplementedError

    def work(self, j: int) -> int:
        raise NotImplementedError

    def check(self, outputs: dict[int, object]) -> dict[int, str]:
        """Map each job whose output is wrong to the reason."""
        raise NotImplementedError

    def items_skipped(self, outputs: dict[int, object]) -> int:
        """Items whose exact disguise probability was skipped, over checked outputs."""
        return 0


class _MonteCarlo(Workload):
    """Monte Carlo jobs whose pooled error counts are checked against an oracle.

    Each run's error count, pooled per decoder, must lie within MC_SIGMAS
    standard deviations of the error rate an independent oracle gives for
    the same designs.
    """

    work_unit = "trials"
    p = 0.0
    trials = 0
    workers = 1

    def decoder(self, j: int):
        raise NotImplementedError

    def trials_for(self, j: int) -> int:
        return self.trials

    def design_index(self, j: int) -> int:
        return 0

    def prepare(self, j: int):
        sim = self.pt.sim
        design = self.design(self.design_index(j))
        prior = self.pt.Prior(self.p)
        decoder = self.decoder(j)
        seed = self.base + j
        trials = self.trials_for(j)
        return lambda: sim.monte_carlo_error(design, prior, decoder, trials, seed, self.workers)

    def work(self, j: int) -> int:
        return self.trials_for(j)

    def expected_rate(self, g: int, decoder) -> tuple[float, float, float]:
        """Oracle interval for the error rate on design ``g``, and the variance of its estimate."""
        raise NotImplementedError

    def check(self, outputs):
        failed = {}
        groups: dict[object, dict[int, list]] = {}
        for j, result in outputs.items():
            decoder = self.decoder(j)
            if (
                not isinstance(result, self.pt.SimResult)
                or result.trials != self.trials_for(j)
                or not 0 <= result.errors <= result.trials
                or result.seed != self.base + j
                or result.decoder is not decoder
            ):
                failed[j] = f"malformed result {result!r}"
                continue
            per_design = groups.setdefault(decoder, {})
            counts = per_design.setdefault(self.design_index(j), [0, 0, []])
            counts[0] += result.trials
            counts[1] += result.errors
            counts[2].append(j)
        for decoder, per_design in groups.items():
            errors = low = high = var = 0.0
            for g, (trials, errs, _) in per_design.items():
                lo, hi, rate_var = self.expected_rate(g, decoder)
                mid = (lo + hi) / 2
                errors += errs
                low += trials * lo
                high += trials * hi
                # Binomial noise of the run plus the oracle's own sampling noise.
                var += trials * mid * (1.0 - mid) + trials**2 * rate_var
            excess = max(low - errors, errors - high, 0.0)
            z = excess / math.sqrt(var) if var else math.inf
            if excess and z > MC_SIGMAS:
                for _, _, jobs in per_design.values():
                    for j in jobs:
                        failed[j] = (f"{decoder.value}: {errors:.0f} errors, oracle expects "
                                     f"{low:.1f} to {high:.1f}, {z:.1f} sigma off")
        return failed

    def error_counts(self, outputs: dict[int, object]) -> list[int]:
        return [outputs[j].errors for j in sorted(outputs)]


class McSparse(_MonteCarlo):
    """COMP and DD, alternating, on one doubly regular design n=600, l=2, r=4.

    A DD trial costs about 1.6 times a COMP trial, so DD jobs run 1280 trials
    to COMP's 2048 and both kinds take about 0.16 s.  With equal trial counts
    the job times form two clusters, and the median and the tail each sit
    at the edge of one, where the share of slow or fast host periods in a run
    moves them by the whole gap.
    """

    name = "mc_sparse"
    cycle = 2
    tail_pct = 90
    jobs_per_s = 6.0
    n, l, r = 600, 2, 4
    p = 0.02
    trials = 2048
    dd_trials = 1280

    def build_shared(self) -> None:
        self._shared = self.pt.design.gen_doubly_regular(
            self.n, self.l, self.r, self.base + SHARED_DESIGN_OFFSET
        )
        self._rates = None

    def design(self, g: int):
        return self._shared

    def decoder(self, j: int):
        return self.pt.DecoderId.COMP if j % 2 == 0 else self.pt.DecoderId.DD

    def trials_for(self, j: int) -> int:
        return self.trials if j % 2 == 0 else self.dd_trials

    def expected_rate(self, g, decoder):
        if self._rates is None:
            self._rates = oracles.comp_dd_rates(
                self._shared.row_masks, self.n, self.p, ORACLE_TRIALS,
                self.base + ORACLE_SEED_OFFSET,
            )
        rate = self._rates[0 if decoder.value == "comp" else 1]
        return rate, rate, rate * (1.0 - rate) / ORACLE_TRIALS

    def warm_up(self, rep: int) -> None:
        design = self.pt.design.gen_doubly_regular(
            self.n, self.l, self.r, self.base + WARM_UP_OFFSET + rep
        )
        self.pt.sim.monte_carlo_error(
            design, self.pt.Prior(self.p), self.pt.DecoderId.DD, 256, self.base + WARM_UP_OFFSET
        )


class McMap(_MonteCarlo):
    """MAP with two worker threads, cycling over 16 doubly regular designs n=30, l=2, r=3.

    16384 trials are four simulation blocks, so both pool threads get work.
    MAP cost grows steeply with p because it enumerates free items
    exhaustively: at p=0.1 one job of 4096 trials took from 0.29 s to 3.3 s,
    and at p=0.08 the median job time of 20-second runs spread by 15% across
    five seeds.  p=0.05 keeps MAP the largest cost with a steadier median.
    Cycling over 16 designs averages out how much MAP work each design causes.
    """

    name = "mc_map"
    n, l, r = 30, 2, 3
    designs = cycle = 16
    p = 0.05
    trials = 16384
    workers = threads = 2
    tail_pct = 90
    jobs_per_s = 10.0

    def build_shared(self) -> None:
        gen = self.pt.design.gen_doubly_regular
        self._shared = [
            gen(self.n, self.l, self.r, self.base + SHARED_DESIGN_OFFSET + k)
            for k in range(self.designs)
        ]
        self._intervals: dict[int, tuple[float, float]] = {}

    def design(self, g: int):
        return self._shared[g]

    def design_index(self, j: int) -> int:
        return j % self.designs

    def decoder(self, j: int):
        return self.pt.DecoderId.MAP

    def expected_rate(self, g, decoder):
        if g not in self._intervals:
            design = self._shared[g]
            self._intervals[g] = oracles.map_error_interval(
                design.row_masks, self.n, self.p, MAP_ORACLE_MAX_SET
            )
        lo, hi = self._intervals[g]
        return lo - EXACT_TOLERANCE, hi + EXACT_TOLERANCE, 0.0

    def warm_up(self, rep: int) -> None:
        design = self.pt.design.gen_doubly_regular(
            self.n, self.l, self.r, self.base + WARM_UP_OFFSET + rep
        )
        self.pt.sim.monte_carlo_error(
            design, self.pt.Prior(self.p), self.pt.DecoderId.MAP, 256,
            self.base + WARM_UP_OFFSET, self.workers,
        )


class ExactEnum(Workload):
    """Exact error: blocks of three COMP/DD design pairs and one MAP job.

    Block b runs COMP and then DD on each of three doubly regular designs
    n=16, l=3, r=4 (T=12) at p=0.1, then MAP on its own Bernoulli design
    n=14, T=10, nu=0.3 at p=0.3.  The enumeration loop tests every set
    against every row, so with all rows of weight r its cost is the same on
    every design; on Bernoulli designs (n=18, T=12, nu=0.2) the mean job time
    of two seeds differed by 15% with the host's drift interleaved away.  A
    MAP job takes a quarter of a COMP job; one in seven keeps the median near
    the middle of the COMP/DD cluster instead of at its lower quartile.
    n=16 gives about 170 jobs in 25 s, so the tail percentile stays fixed.
    """

    name = "exact_enum"
    work_unit = "sets"
    pairs = 3
    cycle = 2 * pairs + 1
    # Jobs whose designs are generated during set-up.
    setup_jobs = 70
    tail_pct = 90
    jobs_per_s = 6.0
    # (n, l, r, p) of the COMP/DD designs; (n, T, nu, p) of the MAP designs.
    comp_dd_spec = (16, 3, 4, 0.1)
    map_spec = (14, 10, 0.3, 0.3)

    def build_shared(self) -> None:
        for j in range(self.setup_jobs):
            self._job(j)

    def _key(self, j: int) -> tuple[str, int]:
        b, k = divmod(j, self.cycle)
        if k == 2 * self.pairs:
            return "map", b
        return "comp_dd", self.pairs * b + k // 2

    def make_design(self, key):
        kind, g = key
        gen = self.pt.design
        if kind == "map":
            n, T, nu, _ = self.map_spec
            return self._distinct(gen.gen_bernoulli(n, T, nu, self.base + SECOND_DESIGN_OFFSET + g))
        n, l, r, _ = self.comp_dd_spec
        return self._distinct(gen.gen_doubly_regular(n, l, r, self.base + g))

    def _job(self, j: int):
        key = self._key(j)
        design = self.design(key)
        ids = self.pt.DecoderId
        if key[0] == "map":
            return design, self.map_spec[3], ids.MAP
        return design, self.comp_dd_spec[3], ids.COMP if j % self.cycle % 2 == 0 else ids.DD

    def warm_up(self, rep: int) -> None:
        design = self._distinct(
            self.pt.design.gen_bernoulli(10, 7, 0.3, self.base + WARM_UP_OFFSET + rep)
        )
        for decoder in self.pt.DecoderId:
            self.pt.sim.exact_average_error(design, self.pt.Prior(0.2), decoder)

    def prepare(self, j: int):
        sim = self.pt.sim
        design, p, decoder = self._job(j)
        prior = self.pt.Prior(p)
        return lambda: sim.exact_average_error(design, prior, decoder)

    def work(self, j: int) -> int:
        return 1 << self._job(j)[0].n

    def check(self, outputs):
        failed = {}
        # Oracle values per design key: the MAP error, or the COMP and DD errors.
        expected: dict[tuple[str, int], dict[str, float]] = {}
        for j in outputs:
            design, p, decoder = self._job(j)
            key = self._key(j)
            if key not in expected:
                if decoder.value == "map":
                    expected[key] = {"map": oracles.map_error(design.row_masks, design.n, p)}
                else:
                    comp, dd = oracles.comp_dd_error(design.row_masks, design.n, p)
                    expected[key] = {"comp": comp, "dd": dd}
            want = expected[key][decoder.value]
            value = outputs[j]
            if not isinstance(value, float) or abs(value - want) > EXACT_TOLERANCE:
                failed[j] = f"{decoder.value} error {value!r} != oracle {want!r}"
        return failed


_VERIFY_COUNTS = re.compile(r"disguise_checks (\d+) checked, (\d+) failed, (\d+) skipped")


class VerifyCli(Workload):
    """``verify`` and ``disguise --json``, alternating, each on its own design file.

    Designs are doubly regular, n=144, l=2, r=9, at p=0.3.  Every item has at
    most l(r-1) = 16 co-items, so each job counts about 144 * 2^16 disguise
    patterns and job times stay within a few percent of each other.  On
    Bernoulli designs (n=40, T=20, nu=0.15) the pattern count of one job
    varies threefold between the quartiles of 200 designs, and a run would
    hold only about fifteen such jobs.  With r=10 one stub matching in 120
    is collision-free, so ``gen_doubly_regular`` exhausts its 1000 retries
    for about one design in 3600 (seed 55000148 at n=50); at r=9 one in 58
    is, and a failure is under one in ten million.  n > 30 makes ``verify``
    take its ``mc-comp`` path.
    """

    name = "verify_cli"
    work_unit = "items"
    cycle = 2
    setup_designs = 16
    tail_pct = 80
    jobs_per_s = 4.7
    probe = "array"
    n, l, r = 144, 2, 9
    p = "0.3"
    verify_trials = "1024"
    exact_budget = "25"

    def _path(self, g) -> str:
        return os.path.join(self.workdir, f"design-{g}.txt")

    def make_design(self, g):
        design = self._distinct(
            self.pt.design.gen_doubly_regular(self.n, self.l, self.r, self.base + g)
        )
        self.pt.design.save_design(design, self._path(g))
        return design

    def _argv(self, j: int, path: str) -> list[str]:
        if j % 2 == 0:
            return ["verify", "--design", path, "-p", self.p,
                    "--trials", self.verify_trials, "--seed", str(self.base + j)]
        return ["disguise", "--design", path, "-p", self.p,
                "--exact-budget", self.exact_budget, "--json"]

    def _run(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pt.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def warm_up(self, rep: int) -> None:
        g = f"warm-up-{rep}"
        design = self._distinct(
            self.pt.design.gen_doubly_regular(20, 2, 5, self.base + WARM_UP_OFFSET + rep)
        )
        self.pt.design.save_design(design, self._path(g))
        for j in (0, 1):
            self._run(self._argv(j, self._path(g)))

    def prepare(self, j: int):
        self.design(j)
        argv = self._argv(j, self._path(j))
        return lambda: self._run(argv)

    def work(self, j: int) -> int:
        return self.n

    def _skipped(self, j: int, stdout: str) -> int:
        if j % 2 == 0:
            return int(_VERIFY_COUNTS.search(stdout).group(3))
        return sum(item["exact_prob"] is None for item in json.loads(stdout)["items"])

    def items_skipped(self, outputs) -> int:
        return sum(self._skipped(j, out[1]) for j, out in outputs.items())

    def check(self, outputs):
        failed = {}
        for j, (code, stdout, stderr) in outputs.items():
            if code != 0:
                failed[j] = f"exit code {code}: {stderr.strip()[:200]}"
                continue
            reason = self._check_verify(stdout) if j % 2 == 0 else self._check_disguise(stdout)
            if reason:
                failed[j] = reason
        return failed

    def _check_verify(self, stdout: str) -> str | None:
        counts = _VERIFY_COUNTS.search(stdout)
        if counts is None or "floor_check     pass" not in stdout:
            return "verify output lacks a passing floor check"
        checked, bad, skipped = map(int, counts.groups())
        if bad or checked + skipped != self.n:
            return f"verify: {checked} checked, {bad} failed, {skipped} skipped"
        return None

    def _check_disguise(self, stdout: str) -> str | None:
        report = json.loads(stdout)
        items = report["items"]
        if len(items) != self.n:
            return f"disguise reported {len(items)} items, expected {self.n}"
        for item in items:
            exact = item["exact_prob"]
            if exact is not None and exact < item["fkg_bound"] - BOUND_TOLERANCE:
                return f"item {item['item']}: exact {exact} below FKG bound {item['fkg_bound']}"
        if report["chain_applicable"]:
            chain = [report[k] for k in ("mean_log_bound", "scaled_min_term", "min_weight_term", "l_star")]
            if any(a < b - BOUND_TOLERANCE for a, b in zip(chain, chain[1:])):
                return f"averaged-bound chain broken: {chain}"
        return None


WORKLOADS = {cls.name: cls for cls in (McSparse, McMap, ExactEnum, VerifyCli)}
