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
    FD_TOL,
    P_SOLVER_RESIDUAL,
    SCAN_POINTS,
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

# q at or above this needs --exploratory; the scalar inequalities are
# only guaranteed on 1 < p < q < 3/2
ORDER_GUARANTEE_LIMIT = 1.5

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


# (description, test) pairs for config values; a rule in a list applies
# to every entry of a list value, which needs at least one entry, or as
# many as the list's second element
NONNEGATIVE = ("a number >= 0", lambda v: _is_real(v) and v >= 0.0)
POSITIVE = ("a number > 0", lambda v: _is_real(v) and v > 0.0)
OPEN_UNIT = ("a number in (0, 1)", lambda v: _is_real(v) and 0.0 < v < 1.0)
TRANSMISSIVITY = ("a number in (0, 1]", lambda v: _is_real(v) and 0.0 < v <= 1.0)
CHANNEL_GAIN = ("a number >= 1", lambda v: _is_real(v) and v >= 1.0)
ABOVE_ONE = ("a number > 1", lambda v: _is_real(v) and v > 1.0)
COUNT = ("an integer >= 0", lambda v: _is_int(v) and v >= 0)
POSITIVE_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
LEVELS = ("an integer >= 2", lambda v: _is_int(v) and v >= 2)

# (default, rule) of each config value, by section; DEFAULT_CONFIG and
# validate_config both read this table.  cmoe.channels has no rule here:
# parse_channel checks its entries.
CONFIG_SECTIONS = {
    "thermal": {
        "input_energies": ([0.0, 0.5, 1.0, 2.0], [NONNEGATIVE]),
        "transmissivities": ([0.3, 0.7], [TRANSMISSIVITY]),
        "gains": ([1.5, 2.0], [CHANNEL_GAIN]),
        "env_energies": ([0.0, 1.0], [NONNEGATIVE]),
        "tail_target": (1e-14, OPEN_UNIT),
        "tolerance": (1e-7, POSITIVE),
        "max_deficit": (1e-9, POSITIVE),
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
        "trend_q": ([1.1, 1.01, 1.001], [ABOVE_ONE, 2]),
        "probe_gain": (2.0, ABOVE_ONE),
        "probe_p": (1.2, ABOVE_ONE),
        "probe_q": (1.35, ABOVE_ONE),
        "probe_cutoff": (24, POSITIVE_COUNT),
        "probe_trials": (500, POSITIVE_COUNT),
        "exploratory_q": ([1.6, 2.0], [ABOVE_ONE]),
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
        least = rule[1] if len(rule) > 1 else 1
        if not isinstance(value, list) or len(value) < least:
            raise ConfigError(f"{where} must be a list of {least} or more entries, got {value!r}")
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
    if not _is_int(cfg["jobs"]) or cfg["jobs"] < 1:
        raise ConfigError("jobs must be a positive integer")
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


# ---------------------------------------------------------------------------
# verify-thermal-laws
# ---------------------------------------------------------------------------


def _cutoff(energy: float, tail: float) -> int:
    return max(2, thermal_tail_cutoff(energy, tail))


def thermal_grid_dims(spec: ChannelSpec, input_energy: float, tail: float):
    """Input cutoff and output size tuned to a thermal input's tails.

    The attenuator's output is exact on c_in + k_env - 1 levels for an
    environment truncated at k_env; every other output is cut where the
    thermal output of the predicted energy has `tail` mass left.
    """
    c_in = _cutoff(input_energy, tail)
    if spec.kind == ChannelKind.ATTENUATOR:
        k_env = _cutoff(spec.env_energy, tail) if spec.env_energy > 0.0 else 1
        d = c_in + k_env - 1
    else:
        d = _cutoff(spec.output_energy(input_energy), tail)
    return c_in, ChannelDims(d_sys=d, d_env=d, d_out=d)


def thermal_grid(section: dict, input_energies):
    """(spec, e_in, c_in, dims) at each point of the thermal channel grid.

    The channels are drawn from the section's transmissivities, gains and
    env_energies; each input is sized by thermal_grid_dims at the
    section's tail_target.
    """
    envs = section["env_energies"]
    channels = (
        [attenuator(lam, e) for lam in section["transmissivities"] for e in envs]
        + [amplifier(kap, e) for kap in section["gains"] for e in envs]
        + [ChannelSpec(kind=ChannelKind.ADDITIVE, env_energy=e) for e in envs]
        + [
            ChannelSpec(kind=ChannelKind.CONTRAVARIANT, gain=kap, env_energy=e)
            for kap in section["gains"]
            for e in envs
        ]
    )
    for spec in channels:
        for e_in in input_energies:
            c_in, dims = thermal_grid_dims(spec, e_in, section["tail_target"])
            yield spec, e_in, c_in, dims


def cmd_verify_thermal_laws(cfg: dict) -> int:
    out_dir = ensure_outdir(cfg)
    section = cfg["thermal"]
    tol = section["tolerance"]
    max_deficit = section["max_deficit"]
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
        passed = dist <= tol and deficit <= max_deficit
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
        "schema_version": SCHEMA_VERSION,
        "command": "verify-thermal-laws",
        "seed": cfg["seed"],
        "config": section,
        "rows": len(rows),
        "max_spectral_distance": max(finite) if finite else float("nan"),
        "max_output_deficit": max(r["output_deficit"] for r in rows),
        "failures": failures,
        "passed": not failures,
    }
    write_summary(os.path.join(out_dir, THERMAL_SUMMARY), summary)
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    print(
        f"verify-thermal-laws: {len(rows)} grid points, "
        f"max spectral distance {summary['max_spectral_distance']:.3e}, "
        f"max deficit {summary['max_output_deficit']:.3e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-cmoe
# ---------------------------------------------------------------------------

STATE_KINDS = ("mixed", "pure", "diagonal", "pinned")

# offsets separating the substream families used by the suites
ADVERSARIAL_STREAM_BASE = 1 << 40


def _report_row(seed, suite, spec, cutoff, trial, state_kind, rep, state) -> dict:
    """One CMOE_COLUMNS row, with the dumped state when it is a violation candidate."""
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
    payload = None
    if rep.verdict == VERDICT_VIOLATION:
        dense = state if hasattr(state, "matrix") else state.to_density()
        payload = state_to_json(dense, seed, spec)
    return {"row": row, "counterexample": payload}


def _cmoe_trial(seed: int, spec: ChannelSpec, cutoffs, trials_base: int, index: int) -> dict:
    """One random-suite trial; depends only on (seed, global index)."""
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
    return _report_row(seed, "random", spec, cutoff, index, kind, rep, state)


def _cmoe_trial_batch(args) -> list:
    seed, spec, cutoffs, trials_base, indices = args
    return [_cmoe_trial(seed, spec, cutoffs, trials_base, i) for i in indices]


def _adversarial_job(args) -> dict:
    seed, spec, cutoff, iterations, stream_index = args
    rng = substream(seed, ADVERSARIAL_STREAM_BASE + stream_index)
    target = 0.2 + rng.random() * (0.9 * math.log(cutoff) - 0.2)
    derived = _splitmix64(seed ^ _splitmix64(ADVERSARIAL_STREAM_BASE + stream_index))
    result = adversarial_search(spec, target, iterations, cutoff, derived)
    return _report_row(
        seed, "adversarial", spec, cutoff, stream_index, "search-best",
        result.best_report, result.best_state,
    )


def _equality_rows(cfg: dict) -> list:
    """_report_row items of the thermal inputs on the thermal grid."""
    items = []
    grid = thermal_grid(cfg["thermal"], cfg["cmoe"]["equality_input_energies"])
    for spec, e_in, c_in, dims in grid:
        if spec.kind == ChannelKind.ADDITIVE:
            dims = None  # additive rows keep the default output size
        state = thermal_state(e_in, c_in)
        rep = check_cmoe(spec, state, dims)
        items.append(
            _report_row(cfg["seed"], "equality", spec, c_in, len(items), "thermal", rep, state)
        )
    return items


def _warm_caches(specs, cutoffs) -> None:
    """Build every band of each channel map the trial suites will need, pre-fork.

    Maps are built directly at the trials' input sizes, so no probe
    state can fail on a small cutoff.
    """
    for spec in specs:
        for cutoff in cutoffs:
            channel_maps.get_channel_map(spec, cutoff).complete()


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
    items = _equality_rows(cfg)
    equality_bad = [item for item in items if item["row"]["verdict"] != VERDICT_EQUALITY]

    specs = [parse_channel(entry) for entry in section["channels"]]
    cutoffs = section["cutoffs"]
    trials = section["trials_per_channel"]
    searches = section["adversarial_searches"]
    search_cutoff = section["adversarial_cutoff"]
    iterations = section["adversarial_iterations"]
    _warm_caches(specs, cutoffs)
    chunk = max(1, trials // max(1, jobs * 8))
    trial_tasks = [
        (
            _cmoe_trial_batch,
            (seed, spec, cutoffs, ch_idx * trials, list(range(lo, min(lo + chunk, trials)))),
        )
        for ch_idx, spec in enumerate(specs)
        for lo in range(0, trials, chunk)
    ]
    search_tasks = [
        (_adversarial_job, (seed, spec, search_cutoff, iterations, ch_idx * searches + s))
        for ch_idx, spec in enumerate(specs)
        for s in range(searches)
    ]
    # the searches are the longest tasks, so they start first; the rows
    # still list every trial before the searches
    done = _run_tasks(jobs, search_tasks + trial_tasks)
    searched, batches = done[: len(search_tasks)], done[len(search_tasks) :]
    items += [item for batch in batches for item in batch] + searched
    rows = [item["row"] for item in items]
    counterexamples = [item["counterexample"] for item in items if item["counterexample"]]

    write_csv(os.path.join(out_dir, CMOE_CSV), CMOE_COLUMNS, rows)

    per_channel = {}
    for r in rows:
        key = f"{r['channel']}|{fmt(r['parameter'])}|{fmt(r['env_energy'])}"
        rec = per_channel.setdefault(
            key,
            {
                "channel": r["channel"],
                "parameter": r["parameter"],
                "env_energy": r["env_energy"],
                "trials": 0,
                "suppressed": 0,
                "violations": 0,
                "min_gap": math.inf,
                "min_gap_margin": 0.0,
            },
        )
        rec["trials"] += 1
        if r["verdict"] == VERDICT_SUPPRESSED:
            rec["suppressed"] += 1
            continue
        if r["verdict"] == VERDICT_VIOLATION:
            rec["violations"] += 1
        if r["gap"] < rec["min_gap"]:
            rec["min_gap"] = r["gap"]
            rec["min_gap_margin"] = r["truncation_margin"]
    for rec in per_channel.values():
        if math.isinf(rec["min_gap"]):
            rec["min_gap"] = float("nan")

    counterexample_paths = []
    for i, payload in enumerate(counterexamples):
        path = os.path.join(out_dir, f"counterexample_{i}.json")
        write_summary(path, payload)
        counterexample_paths.append(path)

    violations = sum(rec["violations"] for rec in per_channel.values())
    suppressed = sum(rec["suppressed"] for rec in per_channel.values())
    passed = violations == 0 and suppressed == 0 and not equality_bad
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-cmoe",
        "seed": seed,
        "config": section,
        "rows": len(rows),
        "per_channel": per_channel,
        "equality_failures": len(equality_bad),
        "violations": violations,
        "counterexamples": counterexample_paths,
        "passed": passed,
    }
    write_summary(os.path.join(out_dir, CMOE_SUMMARY), summary)
    if not passed:
        if equality_bad:
            print(f"FAIL {len(equality_bad)} thermal equality rows off bound", file=sys.stderr)
        if suppressed:
            print(f"FAIL {suppressed} rows suppressed by truncation", file=sys.stderr)
        for path in counterexample_paths:
            print(f"FAIL violation candidate recorded at {path}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    worst = min(
        (rec["min_gap"] for rec in per_channel.values() if not math.isnan(rec["min_gap"])),
        default=float("nan"),
    )
    print(
        f"verify-cmoe: {len(rows)} rows, min gap {worst:.3e}, "
        f"0 violation candidates"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-lemma
# ---------------------------------------------------------------------------


def _solver_rows(cells) -> list:
    """LEMMA_COLUMNS rows of (z_bar, gain, q, exploratory) cells, solved in one call.

    A cell the order solver or the maximizer scan cannot handle gets a
    row of NaNs that does not pass.
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
        dict(zip(LEMMA_COLUMNS, (*cell[:3], *row, cell[3], ok)))
        for cell, row, ok in zip(cells, numbers, passed.tolist())
    ]


def cmd_verify_lemma(cfg: dict, exploratory: bool) -> int:
    out_dir = ensure_outdir(cfg)
    section = cfg["lemma"]
    for q in section["solver_q"]:
        if q >= ORDER_GUARANTEE_LIMIT and not exploratory:
            raise ConfigError(
                f"q={q} is outside the guaranteed region (q < {ORDER_GUARANTEE_LIMIT}); "
                "rerun with --exploratory"
            )
    grid = LemmaGridSpec(
        z_points=section["grid_z_points"],
        order_points=section["grid_order_points"],
        gains=tuple(float(g) for g in section["grid_gains"]),
    )
    grid_report = verify_lemma_inequalities(grid)

    points = (section["solver_z"], section["solver_gains"])
    cells = [(*c, c[2] >= ORDER_GUARANTEE_LIMIT) for c in product(*points, section["solver_q"])]
    if exploratory:
        cells += [(*c, True) for c in product(*points, section["exploratory_q"])]
    solver_rows = _solver_rows(cells)
    write_csv(os.path.join(out_dir, LEMMA_CSV), LEMMA_COLUMNS, solver_rows)

    trend_p = solve_p_of_q(0.5, 2.0, np.array(section["trend_q"], dtype=float))
    trend = [{"q": q, "p_minus_one": float(p) - 1.0} for q, p in zip(section["trend_q"], trend_p)]
    trend_ok = all(
        trend[i]["p_minus_one"] > trend[i + 1]["p_minus_one"] for i in range(len(trend) - 1)
    )

    # boundary behavior of the ratio derivative: climbing at z=0, falling
    # off a cliff toward z=1
    d0 = float(norm_ratio_log_derivative(1e-9, 2.0, 1.2, 1.35))
    d1 = float(norm_ratio_log_derivative(1.0 - 1e-3, 2.0, 1.2, 1.35))
    boundary_ok = d0 > 0.0 and d1 < -1.0

    probe = pq_norm_saturation_probe(
        gain=float(section["probe_gain"]),
        p=float(section["probe_p"]),
        q=float(section["probe_q"]),
        cutoff=section["probe_cutoff"],
        trials=section["probe_trials"],
        seed=cfg["seed"],
    )

    strict_solver_rows = [r for r in solver_rows if not r["exploratory"]]
    solver_ok = all(r["passed"] for r in strict_solver_rows)
    passed = (
        grid_report.all_hold and solver_ok and trend_ok and boundary_ok and not probe.exceeded
    )
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-lemma",
        "seed": cfg["seed"],
        "config": section,
        "exploratory": exploratory,
        "grid": dataclasses.asdict(grid_report),
        "solver_rows": len(solver_rows),
        "solver_ok": solver_ok,
        "trend": trend,
        "trend_ok": trend_ok,
        "boundary_derivative_at_zero": d0,
        "boundary_derivative_near_one": d1,
        "boundary_ok": boundary_ok,
        "probe": dataclasses.asdict(probe),
        "passed": passed,
    }
    write_summary(os.path.join(out_dir, LEMMA_SUMMARY), summary)
    if not passed:
        bad = {k: v for k, v in grid_report.margins.items() if not v["min_margin"] > 0.0}
        if bad:
            print(f"FAIL lemma grid margins: {bad}", file=sys.stderr)
        fd = grid_report.fd_max_residual
        if not fd <= FD_TOL:
            print(f"FAIL lemma fd residual {fd:.3e} not within FD_TOL {FD_TOL:g}", file=sys.stderr)
        for r in strict_solver_rows:
            if not r["passed"]:
                print(
                    f"FAIL solver at z_bar={r['z_bar']} gain={r['gain']} q={r['q']}",
                    file=sys.stderr,
                )
        if not trend_ok:
            print(
                f"FAIL p-1 does not decrease along trend_q={section['trend_q']}", file=sys.stderr
            )
        if not boundary_ok:
            print(
                f"FAIL ratio derivative at the boundary: {d0!r} at z=0 (want > 0), "
                f"{d1!r} near z=1 (want < -1)",
                file=sys.stderr,
            )
        if probe.exceeded:
            print("FAIL saturation probe exceeded the thermal ceiling", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    print(
        f"verify-lemma: {grid_report.points_checked} grid points, "
        f"fd residual {grid_report.fd_max_residual:.3e}, "
        f"probe margin {probe.worst_margin:.3e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

CLAIM_DESCRIPTIONS = {
    "thermal": "thermal inputs map to thermal outputs with the predicted mean energy",
    "cmoe": "thermal inputs minimize output entropy at fixed input entropy; "
    "equality holds on the thermal family",
    "lemma": "scalar inequality family, stationary-order solver, and "
    "norm-ratio saturation ceiling",
}


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
        except UnicodeDecodeError as exc:
            raise ConfigError(f"corrupted CSV {path}: {exc}")


def cmd_report(cfg: dict) -> int:
    out_dir = cfg["out"]
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir} does not exist")
    suites = []
    found = 0

    def load_suite(name: str, summary_file: str, csv_file, columns):
        nonlocal found
        spath = os.path.join(out_dir, summary_file)
        if not os.path.exists(spath):
            suites.append({"suite": name, "claim": CLAIM_DESCRIPTIONS[name], "status": "SKIPPED"})
            return
        with open(spath) as fh:
            try:
                summary = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"corrupted summary {spath}: {exc}")
        if not isinstance(summary, dict):
            raise ConfigError(f"corrupted summary {spath}: root must be a JSON object")
        if csv_file is not None:
            cpath = os.path.join(out_dir, csv_file)
            if os.path.exists(cpath):
                _read_csv_checked(cpath, columns)
        found += 1
        suites.append(
            {
                "suite": name,
                "claim": CLAIM_DESCRIPTIONS[name],
                "status": "PASS" if summary.get("passed") is True else "FAIL",
                "summary": summary,
            }
        )

    load_suite("thermal", THERMAL_SUMMARY, THERMAL_CSV, THERMAL_COLUMNS)
    load_suite("cmoe", CMOE_SUMMARY, CMOE_CSV, CMOE_COLUMNS)
    load_suite("lemma", LEMMA_SUMMARY, LEMMA_CSV, LEMMA_COLUMNS)

    if found == 0:
        raise ConfigError(f"no suite outputs found under {out_dir}")

    overall = "PASS"
    if any(s["status"] == "FAIL" for s in suites):
        overall = "FAIL"
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
        if name == "verify-lemma":
            p.add_argument(
                "--exploratory",
                action="store_true",
                help="also attempt orders outside the guaranteed q < 3/2 region",
            )
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
                return cmd_verify_lemma(cfg, getattr(args, "exploratory", False))
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
