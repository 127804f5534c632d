"""pooltest benchmark: one seeded workload per run, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_sparse --seed 0 --seconds 25 --trace 0

``--trace 0`` runs the workload's closed job loop for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of jobs
(sized from ``--seconds``), each once plain and once with spans around the
calls into each pooltest layer, and reports the per-layer metrics.  Every
job's output is checked after the timed region.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries sample counts, the percentile behind
``job_s_tail``, the default-seed bit-identity report and the environment.

End-to-end times are adjusted for the shared host's drifting speed: a fixed
probe loop runs before every job and around every set-up repetition, and
each time is divided by the probe's speed factor (``hostspeed``), giving
seconds at the reference host speed.  The unadjusted wall-clock values and
the median factor are in the detail line.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.  ``mc_map`` needs two CPUs
and exits with code 3, reported as skipped, on fewer.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPS = 9
# Host probes on each side of a set-up repetition.
SETUP_PROBES = 3
TAIL_LADDER = (99, 95, 90, 85, 80, 75, 50)
MIN_BEYOND_TAIL = 10
IMPORT_PROBE = (
    "import time; t = time.thread_time(); import pooltest, pooltest.cli; "
    "print(time.thread_time() - t)"
)
DECODERS = ("comp", "dd", "map")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pooltest benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    return args


def import_seconds() -> float:
    """CPU time of importing pooltest in a fresh interpreter, as a CLI call pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout.split()[-1])


class Setup:
    """Import, design generation, design files and one warm-up job, repeated.

    The import is timed as the CPU time of the importing thread.  Its wall
    time also holds waits for I/O and the scheduler: it reached 0.5 s in a
    third of the samples where the CPU time stayed within 0.17-0.2 s, and
    when the host ran 40% faster between two sets of ten runs it fell by
    only 27%, so the host speed factor over-corrected set-up by 28%.  The
    rest of set-up runs in this process and is timed by the wall clock.
    Each part is the median of the repetitions.
    """

    def __init__(self, workload, probe) -> None:
        self.imports: list[float] = []
        self.rest: list[float] = []
        self.probes: list[float] = []
        for rep in range(SETUP_REPS):
            self.probes += [probe.once() for _ in range(SETUP_PROBES)]
            self.imports.append(import_seconds())
            start = time.perf_counter()
            workload.build()
            workload.warm_up(rep)
            self.rest.append(time.perf_counter() - start)
            self.probes += [probe.once() for _ in range(SETUP_PROBES)]

    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.rest)


class Pass:
    """Durations, outputs and failures of one sequence of jobs."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        # Host probe times taken right before each job, in timed passes.
        self.probes: list[list[float]] = []
        self.work = 0
        self.outputs: dict[int, object] = {}
        self.failed: dict[int, str] = {}
        self.peak_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def run_job(self, workload, j: int, tracer=None) -> None:
        try:
            job = workload.prepare(j)
        except Exception:  # a job whose input cannot be built counts as failed
            self.durations.append(0.0)
            self.failed[j] = traceback.format_exc(limit=3)
            return
        if tracer is not None:
            tracer.job = j
        start = time.perf_counter()
        try:
            output = job()
        except Exception:  # a job that raises counts as failed; the loop goes on
            self.failed[j] = traceback.format_exc(limit=3)
        else:
            self.outputs[j] = output
        self.durations.append(time.perf_counter() - start)
        self.work += workload.work(j)

    def check(self, workload) -> None:
        try:
            wrong = workload.check(self.outputs)
        except Exception:  # a check that cannot run fails every job it covers
            wrong = dict.fromkeys(self.outputs, traceback.format_exc(limit=3))
        for j, reason in wrong.items():
            self.failed.setdefault(j, reason)


def timed_pass(workload, seconds: float, probe) -> Pass:
    run = Pass()
    deadline = time.perf_counter() + seconds
    j = 0
    while time.perf_counter() < deadline:
        run.probes.append(probe.before_job(run.durations[-1] if run.durations else 0.0))
        run.run_job(workload, j)
        j += 1
    # Read before the checks, whose oracles would otherwise set the peak.
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check(workload)
    return run


def tail(values: list[float], pct: int | None = None) -> tuple[float, str]:
    """Value at the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 2:
        return (values[0] if values else 0.0), "max"
    usable = [q for q in TAIL_LADDER if n * (100 - q) / 100 >= MIN_BEYOND_TAIL] or [50]
    q = pct if pct in usable else usable[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1], f"p{q}"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None; nothing is set."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return fn()
    except OSError:
        pass
    return None


def environment(np) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        sha = git.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def bit_identity(workload, run: Pass, reference: dict, seed: int):
    """Whether the Monte Carlo error counts at seed 0 equal those recorded."""
    recorded = reference.get("seed0_errors", {}).get(workload.name)
    if seed != 0 or recorded is None or not hasattr(workload, "error_counts"):
        return None
    counts = workload.error_counts(run.outputs)
    if len(run.outputs) != run.attempted:
        return {"identical": False, "jobs_compared": 0}
    compared = min(len(counts), len(recorded))
    return {"identical": counts[:compared] == recorded[:compared], "jobs_compared": compared}


def cycle_rate(workload, durations: list[float]) -> float:
    """Median over whole job cycles of the work done per second within the cycle.

    Every cycle holds the same mix of job kinds, so cycle rates are spread
    around one value; their median, unlike total work over total time, does
    not move with the few cycles a burst of host load slows.
    """
    c = workload.cycle
    starts = range(0, max(1, len(durations) - c + 1), c)
    return statistics.median(
        sum(workload.work(j) for j in range(i, min(i + c, len(durations))))
        / sum(durations[i:i + c])
        for i in starts
    )


def timings(workload, setup_s: float, durations: list[float]) -> dict:
    return {
        "setup_s": setup_s,
        "job_s_p50": statistics.median(durations),
        "work_per_s": cycle_rate(workload, durations),
        "job_s_tail": tail(durations, workload.tail_pct)[0],
    }


def end_to_end(workload, run: Pass, setup: Setup, probe) -> tuple[dict, dict]:
    """Metrics in seconds at the reference host speed; wall-clock values in the detail."""
    factors = probe.local_factors(run.probes)
    adjusted = timings(
        workload,
        setup.seconds() / probe.factor(setup.probes + [p for ps in run.probes for p in ps]),
        [d / f for d, f in zip(run.durations, factors)],
    )
    metrics = {
        "setup_s": (adjusted["setup_s"], "s"),
        "job_s_p50": (adjusted["job_s_p50"], "s"),
        "work_per_s": (adjusted["work_per_s"], "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    # The tail is reported here only: bursts of host load that last a few
    # jobs move it, and no probe between jobs can see them.  Over ten seeds
    # on a 2-vCPU shared host its adjusted value spread by 0.19 (mc_sparse)
    # and 0.29 (mc_map) of its median while job_s_p50 spread by 0.04 and 0.06.
    detail = {
        "jobs": run.attempted,
        "setup_samples": len(setup.rest),
        "job_s_tail": adjusted["job_s_tail"],
        "job_s_tail_percentile": tail(run.durations, workload.tail_pct)[1],
        "work_unit": workload.work_unit,
        "work_done": run.work,
        "host_factor_p50": statistics.median(factors),
        "wall_clock": timings(workload, setup.seconds(), run.durations),
    }
    return metrics, detail


def trace_jobs(workload, seconds: float) -> int:
    """Jobs in a traced run: run once plain and once traced, they take about ``seconds``."""
    periods = math.ceil(seconds * workload.jobs_per_s / 2 / workload.cycle)
    return max(1, periods) * workload.cycle


def clear_caches(pt) -> None:
    """Empty every functools cache in pooltest, so that the next job starts cold."""
    for module in (pt.bounds, pt.cli, pt.decode, pt.design, pt.disguise, pt.model, pt.sim):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def per_layer(pt, workload, jobs: int) -> tuple[dict, dict, list[Pass]]:
    # Each job runs plain and then traced, so that both see the same machine
    # state; caches are emptied in between so that the traced run starts cold.
    plain, traced = Pass(), Pass()
    tracer = tracing.Tracer(pt)
    for j in range(jobs):
        plain.run_job(workload, j)
        clear_caches(pt)
        with tracer:
            traced.run_job(workload, j, tracer)
        clear_caches(pt)
    plain.check(workload)
    traced.check(workload)
    spans = tracing.SpanSummary(tracer.spans)
    with tracing.Tracer(pt) as gen_tracer:
        workload.build()
    gen = tracing.SpanSummary(gen_tracer.spans)

    wall = sum(traced.durations)
    patterns = sum(1 << len(pt.disguise.co_items(d, i)) for d, i in tracer.disguise_items)
    decode_calls = sum(spans.calls[f"decode.{d}"] for d in DECODERS)
    decoded = tracer.trials + tracer.sets_enumerated
    exact_total = spans.total_s["disguise.exact_disguise_prob"]
    mc = "sim.monte_carlo_error"

    m = {
        f"{mc}.self_s": (spans.self_s[mc], "s"),
        f"{mc}.cpu_per_wall": (spans.cpu_s[mc] / spans.total_s[mc] if spans.total_s[mc] else 0.0, "ratio"),
        "sim.exact_average_error.self_s": (spans.self_s["sim.exact_average_error"], "s"),
        "sim.exact_average_error.self_share": (spans.self_s["sim.exact_average_error"] / wall, "ratio"),
        "sim.verify_theorem.self_s": (spans.self_s["sim.verify_theorem"], "s"),
        "sim.trials": (tracer.trials, "count"),
        "sim.sets_enumerated": (tracer.sets_enumerated, "count"),
        "sim.decode_calls": (decode_calls, "count"),
        "sim.decode_cache_hit_ratio": (1.0 - decode_calls / decoded if decoded else 0.0, "ratio"),
    }
    for d in DECODERS:
        name = f"decode.{d}"
        calls = spans.calls[name]
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (spans.self_s[name], "s")
        m[f"{name}.us_per_call"] = (1e6 * spans.total_s[name] / calls if calls else 0.0, "us")
        m[f"{name}.share"] = (spans.coverage_s(name) / wall, "ratio")
    map_tail, tail_name = tail(spans.durations["decode.map"])
    m["decode.map.us_per_call_tail"] = (1e6 * map_tail, "us")
    m.update({
        "disguise.exact_disguise_prob.calls": (spans.calls["disguise.exact_disguise_prob"], "count"),
        "disguise.exact_disguise_prob.self_s": (spans.self_s["disguise.exact_disguise_prob"], "s"),
        "disguise.exact_disguise_prob.share": (
            spans.coverage_s("disguise.exact_disguise_prob") / wall, "ratio"),
        "disguise.patterns_enumerated": (patterns, "count"),
        "disguise.patterns_per_s": (patterns / exact_total if exact_total else 0.0, "1/s"),
        "disguise.items_skipped": (workload.items_skipped(
            {j: out for j, out in traced.outputs.items() if j not in traced.failed}), "count"),
        "disguise.mean_log_bound.self_s": (spans.self_s["disguise.mean_log_bound"], "s"),
        "disguise.disguise_bound.self_s": (spans.self_s["disguise.disguise_bound"], "s"),
        "bounds.l_star.calls": (spans.calls["bounds.l_star"], "count"),
        "bounds.l_star.self_s": (spans.self_s["bounds.l_star"], "s"),
        "bounds.epsilon_bound.self_s": (spans.self_s["bounds.epsilon_bound"], "s"),
        "design.parse_design.self_s": (spans.self_s["design.parse_design"], "s"),
        "cli.run.self_s": (spans.self_s["cli.run"], "s"),
        "design.gen_bernoulli.s": (gen.total_s["design.gen_bernoulli"], "s"),
        "design.gen_doubly_regular.s": (gen.total_s["design.gen_doubly_regular"], "s"),
        "trace_overhead": (wall / sum(plain.durations) - 1.0, "ratio"),
    })
    detail = {
        "traced_jobs": jobs,
        "traced_wall_s": wall,
        "spans": len(tracer.spans),
        "decode.map.us_per_call_tail_percentile": tail_name,
    }
    return m, detail, [plain, traced]


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "pooltest" / "__init__.py").is_file():
        print(f"error: no pooltest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import pooltest
    import pooltest.cli  # noqa: F401  (sets pooltest.cli for the workloads and tracer)

    cls = workloads.WORKLOADS[args.workload]
    if cls.threads > len(os.sched_getaffinity(0)):
        print(f"skipped: {cls.name} runs {cls.threads} worker threads but fewer CPUs are usable",
              file=sys.stderr)
        return 3
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = cls(pooltest, args.seed, workdir)
        probe = hostspeed.Probe(workload.probe)
        setup = Setup(workload, probe)
        if args.trace:
            jobs = trace_jobs(workload, args.seconds)
            metrics, detail, passes = per_layer(pooltest, workload, jobs)
        else:
            run = timed_pass(workload, args.seconds, probe)
            metrics, detail = end_to_end(workload, run, setup, probe)
            passes = [run]

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": [reason for p in passes for reason in p.failed.values()][:3],
        "bit_identity": bit_identity(workload, passes[0], reference, args.seed),
        "environment": environment(np),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
