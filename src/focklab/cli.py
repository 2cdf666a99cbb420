"""Command-line drivers for the verification suites.

Every command reads an optional JSON config overlaid on built-in
defaults, with flags winning over both.  Outputs are a CSV of per-trial
or per-grid-point rows plus a JSON summary; identical (config, seed)
pairs produce byte-identical files.  Exit codes: 0 all checks passed,
1 a mathematical claim failed, 2 configuration or I/O trouble.
"""

import argparse
import copy
import csv
import dataclasses
import json
import math
import os
import sys
from collections import namedtuple
from itertools import product

import numpy as np

from . import channels as channel_maps
from .channels import (
    ChannelDims,
    ChannelKind,
    ChannelSpec,
    amplifier,
    apply_diagonal,
    attenuator,
    finite_float,
)
from .cmoe import VERDICT_EQUALITY, VERDICT_SUPPRESSED, VERDICT_VIOLATION, check_cmoe
from .entropy import spectral_distance
from .errors import ConfigError, FockLabError, TruncationError
from .lemma import (
    ORDER_GUARANTEE_LIMIT,
    P_SOLVER_RESIDUAL,
    PROBE_GAIN,
    PROBE_P,
    PROBE_Q,
    SCAN_BYTES,
    SCAN_POINTS,
    TREND_GAIN,
    TREND_Q,
    TREND_Z,
    LemmaGridSpec,
    amplifier_z_map,
    norm_ratio_log_derivative,
    phi,
    pq_norm_saturation_probe,
    scan_ratio_maximizer,
    solve_p_of_q,
    verify_lemma_inequalities,
)
from .linalg import _single_blas_thread
from .sampling import (
    SamplerConfig,
    _splitmix64,
    adversarial_search,
    draw_state,
    state_to_json,
    substream,
)
from .thermal import thermal_state, thermal_tail_cutoff

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_CONFIG = 2

# most --jobs workers; the pool starts them all with its first task
MAX_JOBS = 256

# a thermal-law row passes when its output is this close to the predicted
# thermal state and misses at most this much mass
THERMAL_TOLERANCE = 1e-7
MAX_THERMAL_DEFICIT = 1e-9

THERMAL_CSV = "thermal_laws.csv"
THERMAL_SUMMARY = "thermal_laws_summary.json"
CMOE_CSV = "cmoe_trials.csv"
CMOE_SUMMARY = "cmoe_summary.json"
LEMMA_CSV = "lemma_solver.csv"
LEMMA_SUMMARY = "lemma_report.json"
REPORT_FILE = "report.json"

THERMAL_COLUMNS = [
    "channel",
    "parameter",
    "env_energy",
    "input_energy",
    "input_cutoff",
    "output_cutoff",
    "predicted_energy",
    "spectral_distance",
    "output_deficit",
    "passed",
]
CMOE_COLUMNS = [
    "suite",
    "channel",
    "parameter",
    "env_energy",
    "cutoff",
    "trial",
    "state_kind",
    "input_entropy",
    "output_entropy",
    "bound",
    "gap",
    "truncation_margin",
    "verdict",
]
LEMMA_COLUMNS = [
    "z_bar",
    "gain",
    "q",
    "p",
    "residual",
    "prefactor",
    "maximizer_z",
    "maximizer_offset",
    "exploratory",
    "passed",
]


# a verify command's output files and the claim they record, by config
# section in report order; the commands and report read this table
Suite = namedtuple("Suite", ["command", "csv", "columns", "summary", "claim"])
SUITES = {
    "thermal": Suite(
        "verify-thermal-laws", THERMAL_CSV, THERMAL_COLUMNS, THERMAL_SUMMARY,
        "thermal inputs map to thermal outputs with the predicted mean energy",
    ),
    "cmoe": Suite(
        "verify-cmoe", CMOE_CSV, CMOE_COLUMNS, CMOE_SUMMARY,
        "thermal inputs minimize output entropy at fixed input entropy; "
        "equality holds on the thermal family",
    ),
    "lemma": Suite(
        "verify-lemma", LEMMA_CSV, LEMMA_COLUMNS, LEMMA_SUMMARY,
        "scalar inequality family, stationary-order solver, and "
        "norm-ratio saturation ceiling",
    ),
}


def fmt(value) -> str:
    """Fixed 17-significant-digit float serialization for CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    return str(value)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config section {where!r} must be a JSON object, got {val!r}")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = val
    return out


def load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "jobs", None) is not None:
        cfg["jobs"] = args.jobs
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    validate_config(cfg)
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return finite_float(value) is not None


def _is_count(value) -> bool:
    """An int (not a bool) that converts to a float, as the sizing arithmetic needs."""
    return _is_int(value) and _is_real(value)


# (description, test) pairs for config values; a rule in a list applies
# to every entry of a list value, which needs at least one entry
NONNEGATIVE = ("a number >= 0", lambda v: _is_real(v) and v >= 0.0)
OPEN_UNIT = ("a number in (0, 1)", lambda v: _is_real(v) and 0.0 < v < 1.0)
TRANSMISSIVITY = ("a number in (0, 1]", lambda v: _is_real(v) and 0.0 < v <= 1.0)
CHANNEL_GAIN = ("a number >= 1", lambda v: _is_real(v) and v >= 1.0)
ABOVE_ONE = ("a number > 1", lambda v: _is_real(v) and v > 1.0)
COUNT = ("an integer >= 0", lambda v: _is_count(v) and v >= 0)
POSITIVE_COUNT = ("an integer >= 1", lambda v: _is_count(v) and v >= 1)
LEVELS = ("an integer >= 2", lambda v: _is_count(v) and v >= 2)

# (default, rule) of each config value, by section; DEFAULT_CONFIG and
# validate_config both read this table.  cmoe.channels has no rule here:
# parse_channel checks its entries.
CONFIG_SECTIONS = {
    "thermal": {
        "input_energies": ([0.0, 0.5, 1.0, 2.0], [NONNEGATIVE]),
        "transmissivities": ([0.3, 0.7], [TRANSMISSIVITY]),
        "gains": ([1.5, 2.0], [CHANNEL_GAIN]),
        "env_energies": ([0.0, 1.0], [NONNEGATIVE]),
    },
    "cmoe": {
        "trials_per_channel": (10000, POSITIVE_COUNT),
        "cutoffs": ([16, 24], [LEVELS]),
        "channels": (
            [
                {"kind": "attenuator", "transmissivity": 0.7, "env_energy": 0.5},
                {"kind": "amplifier", "gain": 2.0, "env_energy": 0.5},
                {"kind": "additive", "env_energy": 1.0},
                {"kind": "contravariant", "gain": 2.0, "env_energy": 0.5},
            ],
            None,
        ),
        "adversarial_searches": (10, COUNT),
        "adversarial_iterations": (200, COUNT),
        "adversarial_cutoff": (16, LEVELS),
        "equality_input_energies": ([0.0, 0.5, 1.0, 2.0], [NONNEGATIVE]),
    },
    "lemma": {
        "grid_z_points": (199, LEVELS),
        "grid_order_points": (25, LEVELS),
        "grid_gains": ([1.25, 1.5, 2.0, 4.0], [ABOVE_ONE]),
        "solver_z": ([0.25, 0.5, 0.75], [OPEN_UNIT]),
        "solver_gains": ([1.5, 2.0], [ABOVE_ONE]),
        "solver_q": ([1.1, 1.3, 1.49], [ABOVE_ONE]),
        "probe_cutoff": (24, POSITIVE_COUNT),
    },
}

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "seed": 20260823,
    "jobs": 1,
    "out": "runs/latest",
    **{
        section: {key: default for key, (default, _) in values.items()}
        for section, values in CONFIG_SECTIONS.items()
    },
}


def _check_value(where: str, value, rule) -> None:
    if isinstance(rule, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a list of 1 or more entries, got {value!r}")
        for i, item in enumerate(value):
            _check_value(f"{where}[{i}]", item, rule[0])
        return
    description, test = rule
    if not test(value):
        raise ConfigError(f"{where} must be {description}, got {value!r}")


def validate_config(cfg: dict) -> None:
    if not _is_int(cfg["schema_version"]) or cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']!r}")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if not _is_int(cfg["jobs"]) or not 1 <= cfg["jobs"] <= MAX_JOBS:
        raise ConfigError(f"jobs must be an integer in [1, {MAX_JOBS}], got {cfg['jobs']!r}")
    if not isinstance(cfg["out"], str):
        raise ConfigError("out must be a path string")
    for section, values in CONFIG_SECTIONS.items():
        for key, (_, rule) in values.items():
            if rule is not None:
                _check_value(f"{section}.{key}", cfg[section][key], rule)
    cm = cfg["cmoe"]
    if not isinstance(cm["channels"], list) or not cm["channels"]:
        raise ConfigError("cmoe.channels must be a nonempty list")
    for ch in cm["channels"]:
        parse_channel(ch)
    # rows with q at or above the limit are exploratory: the solver claim needs one below
    if not any(q < ORDER_GUARANTEE_LIMIT for q in cfg["lemma"]["solver_q"]):
        raise ConfigError(f"lemma.solver_q needs an order below {ORDER_GUARANTEE_LIMIT}")


def parse_channel(entry: dict) -> ChannelSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"bad channel entry {entry!r}")
    try:
        kind = ChannelKind(entry["kind"])
    except (KeyError, ValueError):
        raise ConfigError(f"bad channel entry {entry!r}")
    try:
        return ChannelSpec(
            kind=kind,
            transmissivity=entry.get("transmissivity"),
            gain=entry.get("gain"),
            env_energy=entry.get("env_energy", 0.0),
        )
    except FockLabError as exc:
        raise ConfigError(f"bad channel entry {entry!r}: {exc}")


def ensure_outdir(cfg: dict) -> str:
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return out


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row[c]) for c in columns])


def write_summary(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _conclude(cfg: dict, name: str, summary: dict, failures: list, ok_line: str) -> int:
    """Write suite `name`'s summary and report its verdict; the exit code.

    The summary passes when no claim failed.  Each failed claim prints one
    FAIL line on stderr, in check order; with none, `ok_line` goes to stdout.
    """
    suite = SUITES[name]
    summary.update(
        schema_version=SCHEMA_VERSION,
        command=suite.command,
        seed=cfg["seed"],
        config=cfg[name],
        passed=not failures,
    )
    write_summary(os.path.join(cfg["out"], suite.summary), summary)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        return EXIT_CLAIM_FAILED
    print(ok_line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-thermal-laws
# ---------------------------------------------------------------------------


def _cutoff(energy: float) -> int:
    return max(2, thermal_tail_cutoff(energy, channel_maps.THERMAL_TAIL_TARGET))


def thermal_grid(section: dict, input_energies, default_additive: bool = False):
    """(spec, e_in, c_in, dims) at each point of the thermal channel grid.

    The channels come from the section's transmissivities, gains and
    env_energies.  The input is cut where its thermal tail falls to
    channels.THERMAL_TAIL_TARGET.  An attenuator output, and with
    default_additive an additive one, takes default_dims; every other
    output is cut at its own thermal tail.  Every band 0 is refused past
    MAX_DENSE_BYTES before the first point, and each point's maps are
    dropped when the caller asks for the next.
    """
    envs = section["env_energies"]
    channels = (
        [attenuator(lam, e) for lam in section["transmissivities"] for e in envs]
        + [amplifier(kap, e) for kap in section["gains"] for e in envs]
        + [channel_maps.additive_noise(e) for e in envs]
        + [channel_maps.contravariant_amplifier(kap, e) for kap in section["gains"] for e in envs]
    )
    by_default = {ChannelKind.ATTENUATOR} | ({ChannelKind.ADDITIVE} if default_additive else set())
    points = []
    for spec, e_in in product(channels, input_energies):
        c_in = _cutoff(e_in)
        if spec.kind in by_default:
            d = channel_maps.default_dims(spec, c_in).d_out
        else:
            d = _cutoff(spec.output_energy(e_in))
        channel_maps.checked_bytes(channel_maps.band_zero_term(spec, c_in, d))
        points.append((spec, e_in, c_in, ChannelDims(d_sys=d, d_env=d, d_out=d)))
    for point in points:
        yield point
        # no two points share a map, so the grid holds one map at a time
        channel_maps.clear_caches()


def cmd_verify_thermal_laws(cfg: dict) -> int:
    out_dir = ensure_outdir(cfg)
    section = cfg["thermal"]
    rows = []
    failures = []
    for spec, e_in, c_in, dims in thermal_grid(section, section["input_energies"]):
        predicted_energy = spec.output_energy(e_in)
        try:
            out = apply_diagonal(spec, thermal_state(e_in, c_in), dims)
            predicted = thermal_state(predicted_energy, out.dim)
            dist = spectral_distance(out, predicted)
            deficit = out.trace_deficit
            out_dim = out.dim
        except TruncationError as exc:
            dist = float("nan")
            deficit = exc.deficit
            out_dim = 0
        passed = dist <= THERMAL_TOLERANCE and deficit <= MAX_THERMAL_DEFICIT
        if not passed:
            failures.append(
                f"{spec.kind.value} parameter={fmt(spec.parameter)} env={fmt(spec.env_energy)}"
                f" input_energy={fmt(e_in)}: distance={fmt(dist)} deficit={fmt(deficit)}"
            )
        rows.append(
            {
                "channel": spec.kind.value,
                "parameter": spec.parameter,
                "env_energy": spec.env_energy,
                "input_energy": e_in,
                "input_cutoff": c_in,
                "output_cutoff": out_dim,
                "predicted_energy": predicted_energy,
                "spectral_distance": dist,
                "output_deficit": deficit,
                "passed": passed,
            }
        )
    write_csv(os.path.join(out_dir, THERMAL_CSV), THERMAL_COLUMNS, rows)
    finite = [r["spectral_distance"] for r in rows if not math.isnan(r["spectral_distance"])]
    summary = {
        "rows": len(rows),
        "max_spectral_distance": max(finite) if finite else float("nan"),
        "max_output_deficit": max(r["output_deficit"] for r in rows),
        "failures": failures,
    }
    return _conclude(
        cfg, "thermal", summary, failures,
        f"verify-thermal-laws: {len(rows)} grid points, "
        f"max spectral distance {summary['max_spectral_distance']:.3e}, "
        f"max deficit {summary['max_output_deficit']:.3e}",
    )


# ---------------------------------------------------------------------------
# verify-cmoe
# ---------------------------------------------------------------------------

STATE_KINDS = ("mixed", "pure", "diagonal", "pinned")

# offsets separating the substream families used by the suites
ADVERSARIAL_STREAM_BASE = 1 << 40

# bound on the bytes a verify-cmoe row holds until the summary is written
# (tracemalloc: ~640 B, ~680 B for a row unpickled from a --jobs worker,
# ~800 B for a violation candidate's, whose dump is on disk)
CMOE_ROW_BYTES = 1024


def _report_row(seed, suite, spec, cutoff, trial, state_kind, rep, state, dump: str) -> dict:
    """One CMOE_COLUMNS row.

    A violation candidate's state is written to the path `dump` at once,
    and its row keeps only that path, as "counterexample".
    """
    row = {
        "suite": suite,
        "channel": spec.kind.value,
        "parameter": spec.parameter,
        "env_energy": spec.env_energy,
        "cutoff": cutoff,
        "trial": trial,
        "state_kind": state_kind,
        "input_entropy": rep.input_entropy,
        "output_entropy": rep.output_entropy,
        "bound": rep.bound,
        "gap": rep.gap,
        "truncation_margin": rep.truncation_margin,
        "verdict": rep.verdict_label,
    }
    if rep.verdict == VERDICT_VIOLATION:
        dense = state if hasattr(state, "matrix") else state.to_density()
        write_summary(dump, state_to_json(dense, seed, spec))
        row["counterexample"] = dump
    return row


def _dump_path(out_dir: str, row: int) -> str:
    """Where the state of the violation candidate in CSV data row `row` (from 0) is written."""
    return os.path.join(out_dir, f"counterexample_{row}.json")


def _cmoe_trial(run, spec: ChannelSpec, cutoffs, trials_base: int, index: int) -> dict:
    """One random-suite trial; depends only on (seed, global index).

    `run` is (seed, out_dir, first_row): the trial's row is CSV data row
    first_row + trials_base + index.
    """
    seed, out_dir, first_row = run
    cutoff = cutoffs[index % len(cutoffs)]
    kind = STATE_KINDS[(index // len(cutoffs)) % len(STATE_KINDS)]
    stream = trials_base + index
    if kind == "pinned":
        rng = substream(seed, stream)
        target = 0.05 + rng.random() * (0.9 * math.log(cutoff) - 0.05)
        cfg = SamplerConfig(seed=seed, cutoff=cutoff, kind=kind, target_entropy=target)
    else:
        cfg = SamplerConfig(seed=seed, cutoff=cutoff, kind=kind)
    state = draw_state(cfg, stream)
    rep = check_cmoe(spec, state)
    dump = _dump_path(out_dir, first_row + stream)
    return _report_row(seed, "random", spec, cutoff, index, kind, rep, state, dump)


def _cmoe_trial_batch(args) -> list:
    run, spec, cutoffs, trials_base, indices = args
    return [_cmoe_trial(run, spec, cutoffs, trials_base, i) for i in indices]


def _adversarial_job(args) -> dict:
    """One search's row; `run` is (seed, out_dir, first_row), as for _cmoe_trial."""
    run, spec, cutoff, iterations, stream_index = args
    seed, out_dir, first_row = run
    rng = substream(seed, ADVERSARIAL_STREAM_BASE + stream_index)
    target = 0.2 + rng.random() * (0.9 * math.log(cutoff) - 0.2)
    derived = _splitmix64(seed ^ _splitmix64(ADVERSARIAL_STREAM_BASE + stream_index))
    result = adversarial_search(spec, target, iterations, cutoff, derived)
    return _report_row(
        seed, "adversarial", spec, cutoff, stream_index, "search-best",
        result.best_report, result.best_state, _dump_path(out_dir, first_row + stream_index),
    )


def _equality_rows(cfg: dict) -> list:
    """_report_row rows of the thermal inputs on the thermal grid, the first CSV data rows."""
    seed, out_dir, rows = cfg["seed"], cfg["out"], []
    grid = thermal_grid(cfg["thermal"], cfg["cmoe"]["equality_input_energies"], True)
    for spec, e_in, c_in, dims in grid:
        state = thermal_state(e_in, c_in)
        rep, row = check_cmoe(spec, state, dims), len(rows)
        dump = _dump_path(out_dir, row)
        rows.append(_report_row(seed, "equality", spec, c_in, row, "thermal", rep, state, dump))
    return rows


def _map_plan(maps) -> list:
    """Dense terms of the (spec, d_in) maps at default_dims, after refusing each band 0 alone."""
    sized = [(spec, d_in, channel_maps.default_dims(spec, d_in).d_out) for spec, d_in in maps]
    for spec, d_in, d_out in sized:
        channel_maps.checked_bytes(channel_maps.band_zero_term(spec, d_in, d_out))
    return [channel_maps.dense_term(d_in, d_out) for _, d_in, d_out in sized]


def _run_tasks(jobs: int, tasks: list) -> list:
    """Results of the (worker, argument) tasks, in list order.

    With jobs > 1 every task goes to one pool of `jobs` workers, which
    starts them in list order.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(arg) for worker, arg in tasks]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(worker, arg) for worker, arg in tasks]
        return [f.result() for f in futures]


def cmd_verify_cmoe(cfg: dict) -> int:
    out_dir = ensure_outdir(cfg)
    section = cfg["cmoe"]
    seed = cfg["seed"]
    jobs = cfg["jobs"]
    specs = [parse_channel(entry) for entry in section["channels"]]
    cutoffs = section["cutoffs"]
    trials = section["trials_per_channel"]
    searches = section["adversarial_searches"]
    search_cutoff = section["adversarial_cutoff"]
    iterations = section["adversarial_iterations"]
    warm_cutoffs = set(cutoffs) | ({search_cutoff} if searches else set())
    # the memory plan, before the first row: each warm map's band 0, then
    # the rows still to come and the completed warm maps together
    dense = _map_plan(product(specs, warm_cutoffs))
    held = len(specs) * (trials + searches)
    channel_maps.checked_bytes(
        (f"{held} trial and search rows", held * CMOE_ROW_BYTES),
        (f"{len(dense)} completed channel maps", sum(channel_maps.checked_bytes(t) for t in dense)),
    )
    rows = _equality_rows(cfg)
    equality_bad = sum(r["verdict"] != VERDICT_EQUALITY for r in rows)
    failures = [f"{equality_bad} thermal equality rows off bound"] if equality_bad else []

    # complete the trial and search maps before the pool forks; the
    # equality rows' grid clears the cache, so this follows them
    for spec, cutoff in product(specs, warm_cutoffs):
        channel_maps.get_channel_map(spec, cutoff).complete()
    # the trial rows follow the equality rows, and the search rows follow them
    trials_run = (seed, out_dir, len(rows))
    searches_run = (seed, out_dir, len(rows) + len(specs) * trials)
    chunk = max(1, trials // (jobs * 8))
    trial_tasks = [
        (_cmoe_trial_batch,
         (trials_run, spec, cutoffs, ch_idx * trials, range(trials)[lo : lo + chunk]))
        for ch_idx, spec in enumerate(specs)
        for lo in range(0, trials, chunk)
    ]
    search_tasks = [
        (_adversarial_job, (searches_run, spec, search_cutoff, iterations, ch_idx * searches + s))
        for ch_idx, spec in enumerate(specs)
        for s in range(searches)
    ]
    # the searches are the longest tasks, so they start first; the rows
    # still list every trial before the searches
    done = _run_tasks(jobs, search_tasks + trial_tasks)
    searched, batches = done[: len(search_tasks)], done[len(search_tasks) :]
    rows += [row for batch in batches for row in batch] + searched
    write_csv(os.path.join(out_dir, CMOE_CSV), CMOE_COLUMNS, rows)

    groups = {}
    for r in rows:
        key = f"{r['channel']}|{fmt(r['parameter'])}|{fmt(r['env_energy'])}"
        groups.setdefault(key, []).append(r)
    per_channel = {}
    for key, group in groups.items():
        checked = [r for r in group if r["verdict"] != VERDICT_SUPPRESSED]
        # the first unsuppressed row with the least gap, or NaN and 0.0 with none
        no_row = {"gap": math.nan, "truncation_margin": 0.0}
        worst = min(checked, key=lambda r: r["gap"], default=no_row)
        per_channel[key] = {
            "channel": group[0]["channel"],
            "parameter": group[0]["parameter"],
            "env_energy": group[0]["env_energy"],
            "trials": len(group),
            "suppressed": len(group) - len(checked),
            "violations": sum(r["verdict"] == VERDICT_VIOLATION for r in group),
            "min_gap": worst["gap"],
            "min_gap_margin": worst["truncation_margin"],
        }
    suppressed = sum(rec["suppressed"] for rec in per_channel.values())
    if suppressed:
        failures.append(f"{suppressed} rows suppressed by truncation")

    paths = [r["counterexample"] for r in rows if "counterexample" in r]
    failures += [f"violation candidate recorded at {path}" for path in paths]

    summary = {
        "rows": len(rows),
        "equality_grid": {k: v for k, v in cfg["thermal"].items() if k != "input_energies"},
        "per_channel": per_channel,
        "equality_failures": equality_bad,
        "violations": sum(rec["violations"] for rec in per_channel.values()),
        "counterexamples": paths,
    }
    min_gap = min((r["gap"] for r in rows if r["verdict"] != VERDICT_SUPPRESSED), default=math.nan)
    return _conclude(
        cfg, "cmoe", summary, failures,
        f"verify-cmoe: {len(rows)} rows, min gap {min_gap:.3e}, 0 violation candidates",
    )


# ---------------------------------------------------------------------------
# verify-lemma
# ---------------------------------------------------------------------------


def _solver_rows(cells) -> list:
    """LEMMA_COLUMNS rows of (z_bar, gain, q) cells, solved in one call.

    A row is exploratory when q is at or above ORDER_GUARANTEE_LIMIT.  A
    cell the order solver or the maximizer scan cannot handle gets a row
    of NaNs that does not pass.
    """
    z_bar, gain, q = (np.array([cell[i] for cell in cells], dtype=float) for i in range(3))
    p = solve_p_of_q(z_bar, gain, q)
    z_star = np.full_like(p, np.nan)
    residual = np.full_like(p, np.nan)
    ok = ~np.isnan(p)
    z_star[ok], _ = scan_ratio_maximizer(gain[ok], p[ok], q[ok])
    p[np.isnan(z_star)] = np.nan
    ok = ~np.isnan(p)
    residual[ok] = np.abs(phi(z_bar[ok], p[ok]) - phi(amplifier_z_map(z_bar[ok], gain[ok]), q[ok]))
    prefactor = (q / (q - 1.0)) * ((p - 1.0) / p)
    offset = np.abs(z_star - z_bar)
    passed = (residual <= P_SOLVER_RESIDUAL) & (1.0 < p) & (p < q) & (0.0 <= prefactor)
    passed &= (prefactor <= 1.0) & (offset <= 1.0 / (SCAN_POINTS + 1.0))  # one scan cell
    numbers = zip(*(a.tolist() for a in (p, residual, prefactor, z_star, offset)))
    return [
        dict(zip(LEMMA_COLUMNS, (*cell, *row, cell[2] >= ORDER_GUARANTEE_LIMIT, ok)))
        for cell, row, ok in zip(cells, numbers, passed.tolist())
    ]


def cmd_verify_lemma(cfg: dict) -> int:
    out_dir = ensure_outdir(cfg)
    section = cfg["lemma"]
    # the probe's stages run one at a time: the maximizer scan, band 0's
    # build, then the ascent on band 0 and a few vectors, which the build
    # exceeds; the larger stage is refused before the grid sweeps
    spec, cutoff = amplifier(PROBE_GAIN), section["probe_cutoff"]
    band0 = channel_maps.band_zero_term(spec, cutoff, channel_maps.default_dims(spec, cutoff).d_out)
    scan = ("the maximizer scan", SCAN_BYTES)
    channel_maps.checked_bytes(max(band0, scan, key=lambda term: term[1]))
    grid = LemmaGridSpec(
        z_points=section["grid_z_points"],
        order_points=section["grid_order_points"],
        gains=tuple(float(g) for g in section["grid_gains"]),
    )
    grid_report = verify_lemma_inequalities(grid)
    failures = grid_report.failures()

    cells = product(section["solver_z"], section["solver_gains"], section["solver_q"])
    solver_rows = _solver_rows(list(cells))
    write_csv(os.path.join(out_dir, LEMMA_CSV), LEMMA_COLUMNS, solver_rows)
    solver_bad = [
        f"solver at z_bar={r['z_bar']} gain={r['gain']} q={r['q']}"
        for r in solver_rows
        if not (r["passed"] or r["exploratory"])
    ]
    failures += solver_bad

    trend_p = solve_p_of_q(TREND_Z, TREND_GAIN, np.array(TREND_Q, dtype=float))
    trend = [{"q": q, "p_minus_one": float(p) - 1.0} for q, p in zip(TREND_Q, trend_p)]
    trend_ok = all(
        trend[i]["p_minus_one"] > trend[i + 1]["p_minus_one"] for i in range(len(trend) - 1)
    )
    if not trend_ok:
        failures.append(f"p-1 does not decrease along TREND_Q={TREND_Q}")

    # boundary behavior of the ratio derivative: climbing at z=0, falling
    # off a cliff toward z=1
    d0 = float(norm_ratio_log_derivative(1e-9, PROBE_GAIN, PROBE_P, PROBE_Q))
    d1 = float(norm_ratio_log_derivative(1.0 - 1e-3, PROBE_GAIN, PROBE_P, PROBE_Q))
    boundary_ok = d0 > 0.0 and d1 < -1.0
    if not boundary_ok:
        failures.append(
            f"ratio derivative at the boundary: {d0!r} at z=0 (want > 0), "
            f"{d1!r} near z=1 (want < -1)"
        )

    probe = pq_norm_saturation_probe(
        gain=PROBE_GAIN, p=PROBE_P, q=PROBE_Q, cutoff=cutoff, seed=cfg["seed"]
    )
    if probe.exceeded:
        failures.append("saturation probe exceeded the thermal ceiling")

    summary = {
        "grid": dataclasses.asdict(grid_report),
        "solver_rows": len(solver_rows),
        "solver_ok": not solver_bad,
        "trend": trend,
        "trend_ok": trend_ok,
        "boundary_derivative_at_zero": d0,
        "boundary_derivative_near_one": d1,
        "boundary_ok": boundary_ok,
        "probe": dataclasses.asdict(probe),
    }
    return _conclude(
        cfg, "lemma", summary, failures,
        f"verify-lemma: {grid_report.points_checked} grid points, "
        f"fd residual {grid_report.fd_max_residual:.3e}, "
        f"probe margin {probe.worst_margin:.3e}",
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _read_csv_checked(path: str, expected_columns) -> None:
    """Raise ConfigError unless the CSV has the expected header and row widths."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != expected_columns:
                raise ConfigError(f"corrupted CSV {path}: bad header at line 1")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(expected_columns):
                    raise ConfigError(f"corrupted CSV {path}: wrong column count at line {lineno}")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"corrupted CSV {path}: {exc}")


def cmd_report(cfg: dict) -> int:
    out_dir = cfg["out"]
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir} does not exist")
    suites = []
    for name, suite in SUITES.items():
        spath = os.path.join(out_dir, suite.summary)
        if not os.path.exists(spath):
            suites.append({"suite": name, "claim": suite.claim, "status": "SKIPPED"})
            continue
        with open(spath) as fh:
            try:
                summary = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"corrupted summary {spath}: {exc}")
        if not isinstance(summary, dict):
            raise ConfigError(f"corrupted summary {spath}: root must be a JSON object")
        cpath = os.path.join(out_dir, suite.csv)
        if os.path.exists(cpath):
            _read_csv_checked(cpath, suite.columns)
        status = "PASS" if summary.get("passed") is True else "FAIL"
        suites.append({"suite": name, "claim": suite.claim, "status": status, "summary": summary})

    if all(s["status"] == "SKIPPED" for s in suites):
        raise ConfigError(f"no suite outputs found under {out_dir}")
    overall = "FAIL" if any(s["status"] == "FAIL" for s in suites) else "PASS"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "report",
        "seed": cfg["seed"],
        "overall": overall,
        "suites": suites,
    }
    write_summary(os.path.join(out_dir, REPORT_FILE), payload)
    for s in suites:
        print(f"{s['status']:7s} {s['suite']}: {s['claim']}")
    print(f"overall: {overall}")
    return EXIT_OK if overall == "PASS" else EXIT_CLAIM_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Verification suites for truncated-Fock-space Gaussian channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-thermal-laws", "verify-cmoe", "verify-lemma", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file overlaid on defaults")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--jobs", type=int, help="worker process count")
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _single_blas_thread():
        try:
            cfg = load_config(args)
            if args.command == "verify-thermal-laws":
                return cmd_verify_thermal_laws(cfg)
            if args.command == "verify-cmoe":
                return cmd_verify_cmoe(cfg)
            if args.command == "verify-lemma":
                return cmd_verify_lemma(cfg)
            return cmd_report(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except FockLabError as exc:
            print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
