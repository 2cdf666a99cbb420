"""End-to-end acceptance checks.

Each test prints one pass/fail line with the measured quantities, then
asserts.  The expensive command runs are shared through module fixtures.
"""

import csv
import json
import math
import os
import time

import pytest

from focklab.channels import (
    amplifier,
    apply_channel,
    attenuator,
    decompose,
)
from focklab.cli import (
    CMOE_CSV,
    CMOE_SUMMARY,
    DEFAULT_CONFIG,
    EXIT_OK,
    THERMAL_SUMMARY,
    main,
)
from focklab.cmoe import MAX_INPUT_DEFICIT, amplifier_entropy_chain
from focklab.entropy import schatten_norm, trace_distance
from focklab.errors import DomainError
from focklab.lemma import (
    PROBE_GAIN,
    PROBE_P,
    PROBE_Q,
    LemmaGridSpec,
    amplifier_z_map,
    phi,
    pq_norm_saturation_probe,
    scan_ratio_maximizer,
    solve_p_of_q,
    verify_lemma_inequalities,
)
from focklab.sampling import random_mixed, substream
from focklab.thermal import log_thermal_schatten_norm, thermal_state, thermal_tail_cutoff

from dilation import apply_channel_dense

SEED = DEFAULT_CONFIG["seed"]
API_STREAM_BASE = 1_000_000  # disjoint from the command-line trial streams

# criterion 08's probe at the default config: (thermal_log_ceiling,
# best_trial_log_ratio, worst_margin)
PROBE_REPLAY = (-0.30751349835665653, -0.5069921144745436, 0.19947961611788706)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{name}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


@pytest.fixture(scope="module")
def thermal_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("thermal"))
    start = time.time()
    code = main(["verify-thermal-laws", "--out", out])
    elapsed = time.time() - start
    with open(os.path.join(out, THERMAL_SUMMARY)) as fh:
        summary = json.load(fh)
    return {"code": code, "elapsed": elapsed, "summary": summary, "out": out}


@pytest.fixture(scope="module")
def cmoe_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cmoe"))
    start = time.time()
    code = main(["verify-cmoe", "--jobs", "4", "--out", out])
    elapsed = time.time() - start
    with open(os.path.join(out, CMOE_SUMMARY)) as fh:
        summary = json.load(fh)
    _, rows = _read_csv(os.path.join(out, CMOE_CSV))
    return {"code": code, "elapsed": elapsed, "summary": summary, "rows": rows, "out": out}


def test_criterion_01_thermal_transformation_laws(thermal_run, capsys):
    summary = thermal_run["summary"]
    ok = (
        thermal_run["code"] == EXIT_OK
        and summary["passed"]
        and summary["max_spectral_distance"] <= 1e-7
        and summary["max_output_deficit"] <= 1e-9
        and thermal_run["elapsed"] <= 60.0
    )
    _report(
        capsys,
        "criterion 01: thermal in, thermal out, predicted mean energy",
        ok,
        f"{summary['rows']} grid points, max distance {summary['max_spectral_distance']:.3e}, "
        f"max deficit {summary['max_output_deficit']:.3e}, {thermal_run['elapsed']:.1f}s",
    )


def test_criterion_02_quantum_limited_decompositions(capsys):
    start = time.time()
    worst = 0.0
    cases = []
    for lam in (0.3, 0.7):
        for e in (0.5, 1.0):
            cases.append(attenuator(lam, e))
    for kap in (1.5, 2.0):
        for e in (0.5, 1.0):
            cases.append(amplifier(kap, e))
    # the staged closed-form pair against the noisy channel's own
    # thermal-environment dilation; states are visited channel by channel
    # so the reference builds each dilation once
    for i in sorted(range(50), key=lambda i: i % len(cases)):
        rho = random_mixed(12, 12, substream(SEED, API_STREAM_BASE + i))
        spec = cases[i % len(cases)]
        lam_p, kap_p = decompose(spec)
        direct = apply_channel_dense(spec, rho)
        staged = apply_channel(amplifier(kap_p), apply_channel(attenuator(lam_p), rho))
        worst = max(worst, trace_distance(direct, staged))
    elapsed = time.time() - start
    ok = worst <= 1e-7 and elapsed <= 120.0
    _report(
        capsys,
        "criterion 02: noisy channels factor through quantum-limited parts",
        ok,
        f"50 random 12-level states, worst trace distance {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_03_thermal_equality_of_entropy_bound(cmoe_run, capsys):
    rows = [r for r in cmoe_run["rows"] if r[0] == "equality"]
    gaps = [abs(float(r[10])) for r in rows]
    verdicts = {r[12] for r in rows}
    ok = len(rows) == 56 and verdicts == {"Equality"} and max(gaps) <= 1e-6
    _report(
        capsys,
        "criterion 03: thermal inputs sit exactly on the entropy bound",
        ok,
        f"{len(rows)} grid rows, worst |gap| {max(gaps):.3e}, verdicts {sorted(verdicts)}",
    )


def test_criterion_04_no_violation_in_bulk_search(cmoe_run, capsys):
    summary = cmoe_run["summary"]
    random_rows = [r for r in cmoe_run["rows"] if r[0] == "random"]
    adversarial_rows = [r for r in cmoe_run["rows"] if r[0] == "adversarial"]
    per_channel = {}
    for r in random_rows:
        key = (r[1], r[2], r[3])
        per_channel.setdefault(key, {"count": 0, "cutoffs": set()})
        if r[12] != "Suppressed":
            per_channel[key]["count"] += 1
            per_channel[key]["cutoffs"].add(int(r[4]))
    min_gap = math.inf
    slack_ok = True
    for r in random_rows + adversarial_rows:
        if r[12] == "Suppressed":
            continue
        gap, margin = float(r[10]), float(r[11])
        min_gap = min(min_gap, gap)
        if gap < -(margin + 1e-9):
            slack_ok = False
    coverage_ok = all(
        rec["count"] >= 10000 and rec["cutoffs"] == {16, 24} for rec in per_channel.values()
    )
    ok = (
        cmoe_run["code"] == EXIT_OK
        and summary["violations"] == 0
        and slack_ok
        and len(per_channel) == 4
        and coverage_ok
        and len(adversarial_rows) == 40
        and cmoe_run["elapsed"] <= 360.0
    )
    _report(
        capsys,
        "criterion 04: no output-entropy bound violation over bulk and adversarial search",
        ok,
        f"{len(random_rows)} random + {len(adversarial_rows)} adversarial rows, "
        f"min gap {min_gap:.3e}, {cmoe_run['elapsed']:.1f}s at 4 jobs",
    )


def test_criterion_05_amplifier_entropy_chain(capsys):
    start = time.time()
    failures = 0
    worst_monotone = math.inf
    worst_saturation = math.inf
    for i in range(100):
        rho = random_mixed(12, 12, substream(SEED, API_STREAM_BASE + 10_000 + i))
        for q in (1.3, 1.1):
            rec = amplifier_entropy_chain(rho, 2.0, q)
            worst_monotone = min(worst_monotone, rec.step_monotone)
            worst_saturation = min(worst_saturation, rec.step_saturation + rec.slack)
            if not rec.holds:
                failures += 1
    # the equality case: a thermal input saturates the second step, so
    # within its slack the step is zero, at 12 levels and at the tail cutoff;
    # the 12-level inputs at energies 0.9-2.0 miss more than
    # MAX_INPUT_DEFICIT of their trace and are refused, and no other step
    # needs its slack
    edge_cases = refused = 0
    edge_step = edge_slack = 0.0
    edge_worst = math.inf
    for energy in [k / 10 for k in range(1, 21)]:
        for cutoff in (12, thermal_tail_cutoff(energy, 1e-14)):
            rho = thermal_state(energy, cutoff).to_density()
            deficient = rho.trace_deficit > MAX_INPUT_DEFICIT
            for q in (1.1, 1.3):
                try:
                    rec = amplifier_entropy_chain(rho, 2.0, q)
                except DomainError:
                    refused += 1
                    failures += not deficient
                    continue
                edge_cases += 1
                if deficient or not rec.holds or abs(rec.step_saturation) > rec.slack:
                    failures += 1
                edge_worst = min(edge_worst, rec.step_monotone, rec.step_saturation)
                if cutoff > 12:
                    edge_step = max(edge_step, abs(rec.step_saturation))
                    edge_slack = max(edge_slack, rec.slack)
    elapsed = time.time() - start
    ok = failures == 0 and (refused, edge_cases) == (24, 56) and edge_worst >= -1e-13
    _report(
        capsys,
        "criterion 05: two-step entropy chain for the amplifier",
        ok,
        f"100 states x q in (1.3, 1.1), worst monotone step {worst_monotone:.3e}, "
        f"worst slack-adjusted saturation step {worst_saturation:.3e}; {edge_cases} thermal "
        f"inputs, worst step {edge_worst:.1e}, {refused} refused, at the tail cutoff "
        f"|saturation step| <= {edge_step:.1e} (slack {edge_slack:.1e}), {elapsed:.1f}s",
    )


def test_criterion_06_scalar_inequality_grid(capsys):
    start = time.time()
    section = DEFAULT_CONFIG["lemma"]
    grid = LemmaGridSpec(
        section["grid_z_points"], section["grid_order_points"], tuple(section["grid_gains"])
    )
    report = verify_lemma_inequalities(grid)
    elapsed = time.time() - start
    min_margin = min(entry["min_margin"] for entry in report.margins.values())
    ok = (
        report.all_hold
        and min_margin > 0.0
        and report.fd_max_residual <= 1e-6
        and elapsed <= 60.0
    )
    _report(
        capsys,
        "criterion 06: scalar inequality family holds with positive margins",
        ok,
        f"{report.points_checked} points, min margin {min_margin:.3e}, "
        f"derivative residual {report.fd_max_residual:.3e}, {elapsed:.1f}s",
    )


def test_criterion_07_stationary_order_solver(capsys):
    worst_residual = 0.0
    worst_offset = 0.0
    for z_bar in (0.25, 0.5, 0.75):
        for kap in (1.5, 2.0):
            for q in (1.1, 1.3, 1.49):
                p = solve_p_of_q(z_bar, kap, q)
                z_out = amplifier_z_map(z_bar, kap)
                residual = abs(float(phi(z_bar, p)) - float(phi(z_out, q)))
                worst_residual = max(worst_residual, residual)
                z_star, _ = scan_ratio_maximizer(kap, p, q)
                worst_offset = max(worst_offset, abs(z_star - z_bar))
    trend = [solve_p_of_q(0.5, 2.0, q) - 1.0 for q in (1.1, 1.01, 1.001)]
    trend_ok = (
        trend[0] > trend[1] > trend[2] > 0.0
        and 5.0 < trend[0] / trend[1] < 20.0
        and 5.0 < trend[1] / trend[2] < 20.0
    )
    ok = worst_residual <= 1e-12 and worst_offset <= 1.0 / 2001.0 and trend_ok
    _report(
        capsys,
        "criterion 07: stationary-order solver and maximizer round trip",
        ok,
        f"18 solves, worst residual {worst_residual:.3e}, worst maximizer offset "
        f"{worst_offset:.3e}, order gap trend {trend[0]:.2e}/{trend[1]:.2e}/{trend[2]:.2e}",
    )


def test_criterion_08_norm_ratio_saturation_probe(capsys):
    start = time.time()
    report = pq_norm_saturation_probe(PROBE_GAIN, PROBE_P, PROBE_Q, 24, 500, seed=SEED)
    elapsed = time.time() - start
    ok = not report.exceeded and report.best_trial_log_ratio <= report.thermal_log_ceiling + 1e-6
    # the benchmark gate and the reference replay compare lemma_solver.csv
    # only, so the probe block of lemma_report.json is pinned here
    replay = (report.thermal_log_ceiling, report.best_trial_log_ratio, report.worst_margin)
    ok = ok and replay == PROBE_REPLAY
    _report(
        capsys,
        "criterion 08: random inputs never beat the thermal norm-ratio ceiling",
        ok,
        f"{report.trials} trials at cutoff {report.cutoff}, ceiling "
        f"{report.thermal_log_ceiling:.6f}, best trial {report.best_trial_log_ratio:.6f}, "
        f"margin {report.worst_margin:.3e}, {elapsed:.1f}s, replay "
        + ("exact" if replay == PROBE_REPLAY else f"{replay!r} != {PROBE_REPLAY!r}"),
    )


def test_criterion_09_closed_form_norms_match_spectra(capsys):
    worst = -math.inf
    for z in (0.1, 0.25, 0.5, 0.75, 0.9):
        e = z / (1.0 - z)
        cutoff = thermal_tail_cutoff(e, 1e-14)
        state = thermal_state(e, cutoff)
        for p in (1.05, 1.2, 1.5, 2.0, 3.0, 4.0):
            spectral = schatten_norm(state, p)
            closed = math.exp(log_thermal_schatten_norm(z, p))
            tail = ((1.0 - z) ** p * z ** (cutoff * p) / (1.0 - z**p)) ** (1.0 / p)
            worst = max(worst, abs(spectral - closed) - tail)
    ok = worst <= 1e-10
    _report(
        capsys,
        "criterion 09: closed-form thermal norms match spectral sums",
        ok,
        f"30 (z, p) points, worst tail-adjusted deviation {worst:.3e}",
    )


def test_criterion_10_reruns_are_byte_identical(tmp_path_factory, capsys):
    base = tmp_path_factory.mktemp("replay")
    config = {
        "thermal": {
            "input_energies": [0.0, 1.0],
            "transmissivities": [0.5],
            "gains": [1.5],
            "env_energies": [0.0, 0.5],
        },
        "cmoe": {
            "trials_per_channel": 50,
            "cutoffs": [8, 10],
            "adversarial_searches": 1,
            "adversarial_iterations": 10,
            "adversarial_cutoff": 8,
        },
        "lemma": {
            "grid_z_points": 25,
            "grid_order_points": 5,
            "grid_gains": [2.0],
            "solver_z": [0.5],
            "solver_gains": [2.0],
            "solver_q": [1.3],
            "probe_cutoff": 8,
            "probe_trials": 6,
        },
    }
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(config))
    commands = ("verify-thermal-laws", "verify-cmoe", "verify-lemma")
    start = time.time()
    snapshots = []
    for round_idx in (1, 2):
        out = str(base / f"round{round_idx}")
        for command in commands:
            assert main([command, "--config", str(cfg_path), "--out", out]) == EXIT_OK
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        snapshots.append(files)
    elapsed = time.time() - start
    same_names = sorted(snapshots[0]) == sorted(snapshots[1])
    diffs = [n for n in snapshots[0] if snapshots[0][n] != snapshots[1].get(n)]
    ok = same_names and not diffs and len(snapshots[0]) >= 6
    _report(
        capsys,
        "criterion 10: identical config and seed replay byte-identically",
        ok,
        f"{len(snapshots[0])} output files from 3 commands, differing files {diffs}, "
        f"{elapsed:.1f}s",
    )
