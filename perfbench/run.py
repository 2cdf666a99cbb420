"""focklab benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload cmoe-trials --seed 20260823 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with nothing patched.  The
CLI workloads run as fresh processes; cmoe-trials drives the library in
this process.  --trace 1 runs the workload in this process twice, first
untraced and then with the spans of perfbench/spans.py, and reports the
per-layer metrics.  Every run checks its outputs (perfbench/gate.py);
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics, and the exit code is 1 when the gate
fails.  Workload reasons and metric predictions: perfbench/README.md.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

# The program's own BLAS threading is under test: never pin it here.
# Removed before anything in this process can load numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_VARS_REMOVED = sorted(v for v in BLAS_THREAD_VARS if os.environ.pop(v, None) is not None)

import gate  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

DEFAULT_SEED = 20260823
SETUP_REPS = 3

# cmoe-trials sizing: 1,000 trials per channel gives 4,000 timed trials,
# 40 of them beyond p99
TRIALS_PER_CHANNEL = 1000
TRIAL_CUTOFFS = (16, 24)
STATE_KINDS = ("mixed", "pure", "diagonal", "pinned")
SEARCH_ITERATIONS = 200
SEARCH_CUTOFF = 16


@dataclass(frozen=True)
class CliWorkload:
    name: str
    command: str
    jobs: int
    csv_name: str
    summary_name: str
    rows: int  # expected output rows
    row_failed: Callable  # row dict -> True when that operation failed
    counts: Optional[Callable] = None  # row dict -> True when the row is an operation
    config: Optional[dict] = None
    seeded: bool = True  # False: outputs do not depend on the seed


WORKLOADS = {
    "thermal-laws": CliWorkload(
        "thermal-laws", "verify-thermal-laws", 1, "thermal_laws.csv",
        "thermal_laws_summary.json", 56, gate.thermal_row_failed, seeded=False,
    ),
    # the equality energies 0.5 and 2.0 are left out: thermal-laws already
    # builds those maps, and the full grid would double this run's length
    "cmoe-cli": CliWorkload(
        "cmoe-cli", "verify-cmoe", 2, "cmoe_trials.csv", "cmoe_summary.json", 2032,
        gate.cmoe_row_failed,
        config={"cmoe": {"trials_per_channel": 500, "adversarial_searches": 1,
                         "equality_input_energies": [0.0, 1.0]}},
    ),
    "lemma": CliWorkload(
        "lemma", "verify-lemma", 1, "lemma_solver.csv", "lemma_report.json", 18,
        gate.lemma_row_failed, counts=gate.lemma_row_counts,
    ),
    "cmoe-trials": None,  # in-process, see trials_region
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
}
# printed for reading, left out of the result line: failed_share is 0 on a
# correct run and the latencies exist only on cmoe-trials
REPORTED = {
    "trial_ms_p50": "ms",
    "trial_ms_p99": "ms",
    "adv_iter_ms_p50": "ms",
    "failed_share": "share",
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_process(argv, **kwargs):
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, **kwargs)
    return time.perf_counter() - start, proc


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


ENV_PROBE = r"""
import ctypes, glob, json, os, sys
import numpy, scipy
out = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
for mod in (numpy, scipy):
    blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out[mod.__name__ + "_blas"] = blas["name"] + " " + str(blas.get("version"))
    libs = os.path.join(os.path.dirname(mod.__file__), os.pardir, mod.__name__ + ".libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[mod.__name__ + "_openblas_threads"] = getattr(lib, sym)()
                break
print(json.dumps(out))
"""


def environment():
    info = {"git_sha": "unknown", "nproc": len(os.sched_getaffinity(0)),
            "blas_thread_vars_removed": BLAS_VARS_REMOVED}
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            info["git_sha"] = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    _, probe = timed_process([sys.executable, "-c", ENV_PROBE], timeout=60)
    if probe.returncode == 0:
        info.update(json.loads(probe.stdout))
    return info


def import_focklab():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import focklab.channels
    import focklab.cli
    import focklab.cmoe
    import focklab.entropy
    import focklab.lemma
    import focklab.sampling
    import focklab.states
    import focklab.thermal

    return {name: getattr(focklab, name) for name in (
        "channels", "cli", "cmoe", "entropy", "lemma", "sampling", "states", "thermal")}


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def cli_argv(w, seed, out_dir, jobs):
    argv = [w.command, "--seed", str(seed), "--jobs", str(jobs), "--out", out_dir]
    if w.config is not None:
        path = os.path.join(out_dir, "config.json")
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(w.config, fh)
        argv += ["--config", path]
    return argv


def gate_cli(w, seed, out_dir, exit_code):
    table, summary_passed = [], False
    csv_path = os.path.join(out_dir, w.csv_name)
    if os.path.exists(csv_path):
        table = gate.read_csv(csv_path)
    try:
        with open(os.path.join(out_dir, w.summary_name)) as fh:
            summary_passed = json.load(fh).get("passed") is True
    except (OSError, ValueError):
        pass
    ref_path = gate.reference_path(w.name, seed, w.seeded)
    reference = gate.read_csv(ref_path) if os.path.exists(ref_path) else None
    problems, attempted, failed = gate.check(
        table, w.rows, w.row_failed, w.counts, exit_code, summary_passed, reference)
    return table, problems, attempted, failed


def run_cli_untraced(w, seed, seconds, out_dir):
    setup = [timed_process([sys.executable, "-c", "import focklab.cli"])[0]
             for _ in range(SETUP_REPS)]
    walls, rates, problems, attempted, failed, table = [], [], [], 0, 0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        rep_dir = os.path.join(out_dir, f"rep{len(walls)}")
        argv = [sys.executable, "-m", "focklab.cli"] + cli_argv(w, seed, rep_dir, w.jobs)
        wall, proc = timed_process(argv)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
        table, found, attempted, failed_rep = gate_cli(w, seed, rep_dir, proc.returncode)
        problems += found
        failed = max(failed, failed_rep)
        walls.append(wall)
        rates.append((len(table) - 1 if table else 0) / wall)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
        "trials_per_s": statistics.median(rates),
    }
    return metrics, problems, attempted, failed, table, len(walls)


def run_cli_inprocess(w, seed, out_dir, fl, tracer=None):
    """One in-process command at --jobs 1, so every span stays in this process."""
    fl["channels"].clear_caches()
    argv = cli_argv(w, seed, out_dir, 1)
    t0 = time.perf_counter()
    if tracer is None:
        rc = fl["cli"].main(argv)
    else:
        rc = tracer.call("cli.command", fl["cli"].main, argv)
    t1 = time.perf_counter()
    table, problems, attempted, failed = gate_cli(w, seed, out_dir, rc)
    return t0, t1, table, problems, attempted, failed


# ---------------------------------------------------------------------------
# cmoe-trials: the library API in this process, warm caches
# ---------------------------------------------------------------------------


def trial_channels(fl):
    entries = fl["cli"].DEFAULT_CONFIG["cmoe"]["channels"]
    return [fl["cli"].parse_channel(e) for e in entries]


def warm_maps(fl):
    """The CLI's cache warm-up: a thermal probe through every channel and cutoff."""
    for spec in trial_channels(fl):
        for cutoff in TRIAL_CUTOFFS:
            fl["channels"].apply_diagonal(spec, fl["thermal"].thermal_state(0.5, cutoff))


def report_row(fl, suite, spec, cutoff, trial, kind, rep):
    fmt = fl["cli"].fmt
    return [suite, spec.kind.value, fmt(spec.parameter), fmt(spec.env_energy), str(cutoff),
            str(trial), kind, fmt(rep.input_entropy), fmt(rep.output_entropy), fmt(rep.bound),
            fmt(rep.gap), fmt(rep.truncation_margin), rep.verdict_label]


def trials_region(fl, seed, part=0, parts=1):
    """Slice `part` of `parts` of the timed region.

    Trials use the CLI's (cutoff, kind) rotation and pinned-target rule;
    every slice holds the same share of each channel's trials, and the
    searches go to the slices in turn.  Rows come keyed by their place in
    the CLI's output.
    """
    sampling, cmoe = fl["sampling"], fl["cmoe"]
    specs = trial_channels(fl)
    rows, trial_s, search_s = [], [], []
    start = time.perf_counter()
    for ch, spec in enumerate(specs):
        for index in range(part * TRIALS_PER_CHANNEL // parts,
                           (part + 1) * TRIALS_PER_CHANNEL // parts):
            t = time.perf_counter()
            cutoff = TRIAL_CUTOFFS[index % len(TRIAL_CUTOFFS)]
            kind = STATE_KINDS[(index // len(TRIAL_CUTOFFS)) % len(STATE_KINDS)]
            stream = ch * TRIALS_PER_CHANNEL + index
            target = None
            if kind == "pinned":
                u = sampling.substream(seed, stream).random()
                target = 0.05 + u * (0.9 * math.log(cutoff) - 0.05)
            cfg = sampling.SamplerConfig(seed=seed, cutoff=cutoff, kind=kind, target_entropy=target)
            rep = cmoe.check_cmoe(spec, sampling.draw_state(cfg, stream))
            trial_s.append(time.perf_counter() - t)
            rows.append(((0, ch, index), ("random", spec, cutoff, index, kind, rep)))
    loop_s = time.perf_counter() - start
    base = fl["cli"].ADVERSARIAL_STREAM_BASE
    for ch, spec in enumerate(specs):
        if ch % parts != part:
            continue
        t = time.perf_counter()
        target = 0.2 + sampling.substream(seed, base + ch).random() * (
            0.9 * math.log(SEARCH_CUTOFF) - 0.2)
        derived = sampling._splitmix64(seed ^ sampling._splitmix64(base + ch))
        result = sampling.adversarial_search(spec, target, SEARCH_ITERATIONS, SEARCH_CUTOFF,
                                             derived)
        search_s.append(time.perf_counter() - t)
        rows.append(((1, ch), ("adversarial", spec, SEARCH_CUTOFF, ch, "search-best",
                               result.best_report)))
    return time.perf_counter() - start, loop_s, trial_s, search_s, rows


def trials_table(fl, keyed_rows):
    ordered = sorted(keyed_rows, key=lambda kr: kr[0])
    return [list(fl["cli"].CMOE_COLUMNS)] + [report_row(fl, *row) for _, row in ordered]


def gate_trials(seed, table):
    ref_path = gate.reference_path("cmoe-trials", seed, True)
    reference = gate.read_csv(ref_path) if os.path.exists(ref_path) else None
    expected = len(STATE_KINDS) * TRIALS_PER_CHANNEL + len(STATE_KINDS)
    return gate.check(table, expected, gate.cmoe_row_failed, reference=reference)


def latency_metrics(trial_s, search_s):
    return {
        "trial_ms_p50": 1e3 * statistics.median(trial_s),
        "trial_ms_p99": 1e3 * percentile(trial_s, 99),
        "adv_iter_ms_p50": 1e3 * statistics.median(search_s) / SEARCH_ITERATIONS,
    }


def set_up(fl):
    """Interpreter start plus import in a fresh process, then the map warm-up here."""
    import_s = timed_process([sys.executable, "-c", "import focklab"])[0]
    fl["channels"].clear_caches()
    t = time.perf_counter()
    warm_maps(fl)
    return import_s + time.perf_counter() - t


def run_trials_untraced(seed, seconds, fl):
    """Set-ups and slices of the timed region alternate, so the region's
    time is sampled across the whole run instead of one stretch of it."""
    setup, walls, rates, trial_s, search_s, problems = [], [], [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, loop_s, trials, rows = 0.0, 0.0, 0, []
        for part in range(SETUP_REPS):
            setup.append(set_up(fl))
            part_s, part_loop_s, t_s, s_s, part_rows = trials_region(fl, seed, part, SETUP_REPS)
            wall += part_s
            loop_s += part_loop_s
            trials += len(t_s)
            trial_s += t_s
            search_s += s_s
            rows += part_rows
        table = trials_table(fl, rows)
        found, attempted, failed = gate_trials(seed, table)
        problems += found
        walls.append(wall)
        rates.append(trials / loop_s)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials_per_s": statistics.median(rates),
        **latency_metrics(trial_s, search_s),
    }
    return metrics, problems, attempted, failed, table, len(walls)


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


def cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_traced(name, seed, out_dir, fl):
    """Untraced pass, then traced pass, both in this process."""
    w = WORKLOADS[name]
    extra = dict.fromkeys(REPORTED, 0)
    cpu0 = cpu_s()
    if w is None:
        warm_maps(fl)
        cpu0 = cpu_s()
        wall_u, _, trial_s, search_s, rows = trials_region(fl, seed)
        cpu_used = cpu_s() - cpu0
        table = trials_table(fl, rows)
        problems, attempted, failed = gate_trials(seed, table)
        extra.update(latency_metrics(trial_s, search_s))
        fl["channels"].clear_caches()
        tracer = spans.Tracer()
        tracer.install(fl)
        warm_maps(fl)
        t0 = time.perf_counter()
        rows = trials_region(fl, seed)[-1]
        t1 = time.perf_counter()
        table_t = trials_table(fl, rows)
        found, _, _ = gate_trials(seed, table_t)
    else:
        u0, u1, table, problems, attempted, failed = run_cli_inprocess(
            w, seed, os.path.join(out_dir, "untraced"), fl)
        wall_u, cpu_used = u1 - u0, cpu_s() - cpu0
        tracer = spans.Tracer()
        tracer.install(fl)
        t0, t1, table_t, found, _, _ = run_cli_inprocess(
            w, seed, os.path.join(out_dir, "traced"), fl, tracer)
    tracer.uninstall()
    problems += found
    if tracer.missing:
        print("not traced (name gone): " + ", ".join(tracer.missing))
    tracer.dump(os.path.join(OUT_ROOT, f"{name}.seed{seed}.spans.json"))
    metrics = spans.layer_metrics(tracer.spans, t0, t1)
    metrics.update(extra)
    metrics["failed_share"] = failed / attempted
    metrics["cli.rows"] = len(table_t) - 1 if w is not None and table_t else 0
    metrics["process.cpu_s"] = cpu_used
    metrics["process.cpu_util"] = cpu_used / wall_u
    metrics["trace.overhead_frac"] = (t1 - t0) / wall_u - 1.0
    return metrics, problems, attempted, failed


PER_LAYER_UNITS = {
    "cli.rows": "count",
    "process.cpu_s": "s",
    "process.cpu_util": "share",
    "trace.overhead_frac": "share",
    **REPORTED,
}


def per_layer_unit(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "share"
    if name.endswith("dim") or ".max_d_" in name:
        return "levels"
    return "count"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the measured region until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "focklab", "cli.py")):
        print(f"no focklab sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT_ROOT, f"{args.workload}.seed{args.seed}.{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    env = environment()
    with open(os.path.join(OUT_ROOT, "environment.json"), "w") as fh:
        json.dump(env, fh, indent=1, sort_keys=True)
    print("environment: " + json.dumps(env, sort_keys=True))

    w = WORKLOADS[args.workload]
    if args.trace:
        metrics, problems, attempted, failed = run_traced(
            args.workload, args.seed, out_dir, import_focklab())
        units = {name: per_layer_unit(name) for name in metrics}
        shown = metrics
    else:
        if w is None:
            metrics, problems, attempted, failed, table, reps = run_trials_untraced(
                args.seed, args.seconds, import_focklab())
        else:
            metrics, problems, attempted, failed, table, reps = run_cli_untraced(
                w, args.seed, args.seconds, out_dir)
        metrics["failed_share"] = failed / attempted
        units = {**END_TO_END, **REPORTED}
        shown = {name: metrics.get(name) for name in units}
        print(f"{args.workload}: {reps} measured repetition(s), {attempted} operations")
        if args.write_reference:
            seeded = w is None or w.seeded
            gate.write_csv_gz(gate.reference_path(args.workload, args.seed, seeded), table)
            print("reference written")
        metrics = {name: metrics[name] for name in END_TO_END}

    for name, value in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {text:>14s} {units[name]}")
    for line in problems:
        print("GATE " + line, file=sys.stderr)
    correct = not problems
    if correct:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
