import csv
import dataclasses
import json
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import focklab.cmoe
import focklab.lemma
from focklab import channels as channel_maps
from focklab import cli, linalg
from focklab.cli import (
    CMOE_COLUMNS,
    CMOE_CSV,
    CMOE_SUMMARY,
    DEFAULT_CONFIG,
    EXIT_CLAIM_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    LEMMA_COLUMNS,
    LEMMA_CSV,
    LEMMA_SUMMARY,
    REPORT_FILE,
    THERMAL_COLUMNS,
    THERMAL_CSV,
    THERMAL_SUMMARY,
    build_parser,
    fmt,
    main,
)
from focklab.errors import ConfigError, TruncationError
from focklab.lemma import FD_TOL
from focklab.sampling import state_from_json, state_to_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL_THERMAL = {
    "thermal": {
        "input_energies": [0.0, 1.0],
        "transmissivities": [0.5],
        "gains": [1.5],
        "env_energies": [0.0, 0.5],
    }
}

SMALL_CMOE = {
    "thermal": {"transmissivities": [0.5], "gains": [1.5], "env_energies": [0.0]},
    "cmoe": {
        "trials_per_channel": 6,
        "cutoffs": [6],
        "channels": [{"kind": "attenuator", "transmissivity": 0.6, "env_energy": 0.4}],
        "adversarial_searches": 1,
        "adversarial_iterations": 4,
        "adversarial_cutoff": 6,
        "equality_input_energies": [0.5],
    },
}

# two channels with two searches each, so searches and trial chunks of
# several channels share the pool
TWO_CHANNEL_CMOE = dict(
    SMALL_CMOE,
    cmoe=dict(
        SMALL_CMOE["cmoe"],
        channels=[
            {"kind": "attenuator", "transmissivity": 0.6, "env_energy": 0.4},
            {"kind": "contravariant", "gain": 1.5, "env_energy": 0.2},
        ],
        adversarial_searches=2,
    ),
)

SMALL_LEMMA = {
    "lemma": {
        "grid_z_points": 20,
        "grid_order_points": 5,
        "grid_gains": [2.0],
        "solver_z": [0.5],
        "solver_gains": [2.0],
        "solver_q": [1.3],
        "probe_cutoff": 8,
        "probe_trials": 4,
    }
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_parser_has_all_subcommands_and_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["verify-lemma", "--config", "c.json", "--seed", "5", "--jobs", "2", "--out", "d"]
    )
    assert args.command == "verify-lemma"
    assert args.seed == 5 and args.jobs == 2 and args.out == "d"
    for name in ("verify-thermal-laws", "verify-cmoe", "report"):
        assert parser.parse_args([name]).command == name
    # a row's q alone makes it exploratory
    with pytest.raises(SystemExit) as info:
        parser.parse_args(["verify-lemma", "--exploratory"])
    assert info.value.code == EXIT_CONFIG


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["bogus"])
    assert info.value.code == EXIT_CONFIG


def test_fmt_special_values():
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(None) == ""
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(3) == "3"


def test_default_config_matches_shipped_schema_columns():
    with open(os.path.join(REPO_ROOT, "csv_schema.json")) as fh:
        schema = json.load(fh)
    files = schema["files"]
    assert [c["name"] for c in files[THERMAL_CSV]["columns"]] == THERMAL_COLUMNS
    assert [c["name"] for c in files[CMOE_CSV]["columns"]] == CMOE_COLUMNS
    assert [c["name"] for c in files[LEMMA_CSV]["columns"]] == LEMMA_COLUMNS


def test_thermal_small_grid_passes(tmp_path):
    cfg = write_config(tmp_path, SMALL_THERMAL)
    out = str(tmp_path / "run")
    assert main(["verify-thermal-laws", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(os.path.join(out, THERMAL_CSV))
    assert rows[0] == THERMAL_COLUMNS
    assert len(rows) == 1 + 8 * 2
    assert all(r[-1] == "true" for r in rows[1:])
    summary = json.loads((tmp_path / "run" / THERMAL_SUMMARY).read_text())
    assert summary["passed"] is True
    assert summary["max_spectral_distance"] <= 1e-7


def test_thermal_forced_failure_exits_one(tmp_path, capsys, monkeypatch):
    # a 1% tail cuts the grid's inputs and outputs short: some outputs lose
    # more than 1% of their trace and are refused, others miss the
    # predicted spectrum at a finite distance
    monkeypatch.setattr(channel_maps, "THERMAL_TAIL_TARGET", 0.01)
    channel_maps.clear_caches()  # default_dims memoizes sizes at the 1e-14 tail
    cfg = write_config(tmp_path, SMALL_THERMAL)
    out = str(tmp_path / "run")
    assert main(["verify-thermal-laws", "--config", cfg, "--out", out]) == EXIT_CLAIM_FAILED
    summary = json.loads((tmp_path / "run" / THERMAL_SUMMARY).read_text())
    assert summary["passed"] is False
    assert summary["failures"]
    failed = [dict(zip(THERMAL_COLUMNS, r)) for r in read_rows(os.path.join(out, THERMAL_CSV))[1:]]
    failed = [r for r in failed if r["passed"] == "false"]
    assert any(r["output_cutoff"] == "0" and r["spectral_distance"] == "nan" for r in failed)
    assert any(r["spectral_distance"] != "nan" for r in failed)
    # one FAIL line per failed row, in row order, with the row's cells
    lines = [
        f"{r['channel']} parameter={r['parameter']} env={r['env_energy']}"
        f" input_energy={r['input_energy']}: distance={r['spectral_distance']}"
        f" deficit={r['output_deficit']}"
        for r in failed
    ]
    assert summary["failures"] == lines
    assert capsys.readouterr().err.splitlines() == [f"FAIL {line}" for line in lines]
    assert "additive parameter=0 env=0 input_energy=1: distance=0 deficit=0.0078125" in lines


def test_thermal_attenuator_with_a_negligible_env_keeps_its_input_cutoff(tmp_path):
    # env energy 1e-15 leaves a thermal tail of 1e-15 past the vacuum, below
    # the tail target, so default_dims adds no level for the environment
    section = dict(SMALL_THERMAL["thermal"], input_energies=[1.0], env_energies=[1e-15])
    cfg = write_config(tmp_path, {"thermal": section})
    out = str(tmp_path / "run")
    assert main(["verify-thermal-laws", "--config", cfg, "--out", out]) == EXIT_OK
    rows = [dict(zip(THERMAL_COLUMNS, r)) for r in read_rows(os.path.join(out, THERMAL_CSV))[1:]]
    (row,) = [r for r in rows if r["channel"] == "attenuator"]
    assert row["output_cutoff"] == row["input_cutoff"] and row["passed"] == "true"


THERMAL_SECTION = st.fixed_dictionaries(
    {
        "transmissivities": st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3),
        "gains": st.lists(st.floats(1.0, 3.0), min_size=1, max_size=2),
        "env_energies": st.lists(st.just(0.0) | st.floats(1e-16, 5.0), min_size=1, max_size=3),
    }
)


@settings(max_examples=20, deadline=None)
@given(THERMAL_SECTION, st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
@example(DEFAULT_CONFIG["thermal"], DEFAULT_CONFIG["thermal"]["input_energies"])
def test_thermal_grid_sizes_every_attenuator_with_default_dims(section, input_energies):
    lams, envs = section["transmissivities"], section["env_energies"]
    points = list(cli.thermal_grid(section, input_energies))
    sized = [(spec, c_in, dims.d_out) for spec, _, c_in, dims in points if spec.kind == "attenuator"]
    assert len(sized) == len(lams) * len(envs) * len(input_energies)
    assert all(d == channel_maps.default_dims(spec, c_in).d_out for spec, c_in, d in sized)


def test_thermal_empty_grid_exits_two(tmp_path):
    payload = {"thermal": dict(SMALL_THERMAL["thermal"], input_energies=[])}
    cfg = write_config(tmp_path, payload)
    assert main(["verify-thermal-laws", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "section, key, value",
    [
        pytest.param("thermal", "bogus_key", 1, id="bogus_key"),
        # keys that no longer exist: the CMOE equality rows walk the thermal grid
        pytest.param("thermal", "fixed_cutoff", 3, id="thermal.fixed_cutoff"),
        pytest.param(
            "cmoe", "equality_transmissivities", [0.5], id="cmoe.equality_transmissivities"
        ),
        pytest.param("cmoe", "equality_gains", [1.5], id="cmoe.equality_gains"),
        pytest.param("cmoe", "equality_env_energies", [0.0], id="cmoe.equality_env_energies"),
        pytest.param("cmoe", "equality_tail_target", 1e-14, id="cmoe.equality_tail_target"),
        # the thermal tail is channels.THERMAL_TAIL_TARGET, a constant
        pytest.param("thermal", "tail_target", 1e-14, id="thermal.tail_target"),
        pytest.param("cmoe", "thermal_only", True, id="cmoe.thermal_only"),
        # the thermal-law thresholds are constants in code
        pytest.param("thermal", "tolerance", 1e-7, id="thermal.tolerance"),
        pytest.param("thermal", "max_deficit", 1e-9, id="thermal.max_deficit"),
        # the probe's point is a constant in code, as is the boundary check's
        pytest.param("lemma", "probe_gain", 2.0, id="lemma.probe_gain"),
        pytest.param("lemma", "probe_p", 1.2, id="lemma.probe_p"),
        pytest.param("lemma", "probe_q", 1.35, id="lemma.probe_q"),
        # so are the trend's orders; a solver row's q alone makes it exploratory
        pytest.param("lemma", "trend_q", [1.1, 1.01], id="lemma.trend_q"),
        pytest.param("lemma", "exploratory_q", [1.6], id="lemma.exploratory_q"),
    ],
)
def test_unknown_config_key_exits_two(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path, {section: {key: value}})
    code = main(["verify-thermal-laws", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and f"{section}.{key}" in err[0]


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"{not json", id="not-json"),
        pytest.param(b'{"out": "\xff"}', id="not-utf8"),
    ],
)
def test_invalid_json_config_exits_two(tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    assert main(["verify-thermal-laws", "--config", str(path)]) == EXIT_CONFIG


def test_seed_flag_overrides_config(tmp_path):
    payload = dict(SMALL_THERMAL, seed=111)
    cfg = write_config(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["verify-thermal-laws", "--config", cfg, "--seed", "222", "--out", out]) == EXIT_OK
    summary = json.loads((tmp_path / "run" / THERMAL_SUMMARY).read_text())
    assert summary["seed"] == 222


def test_thermal_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL_THERMAL)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["verify-thermal-laws", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["verify-thermal-laws", "--config", cfg, "--out", out2]) == EXIT_OK
    assert dir_bytes(out1) == dir_bytes(out2)


def test_cmoe_small_run_passes(tmp_path):
    cfg = write_config(tmp_path, SMALL_CMOE)
    out = str(tmp_path / "run")
    assert main(["verify-cmoe", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(os.path.join(out, CMOE_CSV))
    assert rows[0] == CMOE_COLUMNS
    # equality suite covers four channel kinds at one grid point each,
    # then 6 random trials and 1 adversarial row for the one channel
    suites = [r[0] for r in rows[1:]]
    assert suites.count("random") == 6
    assert suites.count("adversarial") == 1
    assert suites.count("equality") == 4
    summary = json.loads((tmp_path / "run" / CMOE_SUMMARY).read_text())
    assert summary["passed"] is True
    assert summary["violations"] == 0
    assert summary["counterexamples"] == []


def test_cmoe_summary_records_the_equality_grid(tmp_path):
    # the equality rows walk the thermal section's grid, which the summary's
    # config (the cmoe section) does not hold
    grid = {"transmissivities": [0.4], "gains": [2.5], "env_energies": [0.3]}
    cfg = write_config(tmp_path, dict(SMALL_CMOE, thermal=grid))
    out = str(tmp_path / "run")
    assert main(["verify-cmoe", "--config", cfg, "--out", out]) == EXIT_OK
    summary = json.loads((tmp_path / "run" / CMOE_SUMMARY).read_text())
    assert summary["equality_grid"] == grid
    rows = [r for r in read_rows(os.path.join(out, CMOE_CSV))[1:] if r[0] == "equality"]
    assert [r[1:4] for r in rows] == [
        ["attenuator", "0.40000000000000002", "0.29999999999999999"],
        ["amplifier", "2.5", "0.29999999999999999"],
        ["additive", "0.29999999999999999", "0.29999999999999999"],
        ["contravariant", "2.5", "0.29999999999999999"],
    ]


def test_equality_rows_walk_the_thermal_laws_grid(tmp_path):
    cfg = write_config(tmp_path, SMALL_THERMAL)
    out = str(tmp_path / "run")
    assert main(["verify-thermal-laws", "--config", cfg, "--out", out]) == EXIT_OK
    thermal = {tuple(r[:3]) for r in read_rows(os.path.join(out, THERMAL_CSV))[1:]}
    args = build_parser().parse_args(["verify-cmoe", "--config", cfg])
    rows = cli._equality_rows(cli.load_config(args))
    assert {(r["channel"], fmt(r["parameter"]), fmt(r["env_energy"])) for r in rows} == thermal


def test_cmoe_jobs_do_not_change_bytes(tmp_path):
    for n, payload in enumerate([SMALL_CMOE, TWO_CHANNEL_CMOE]):
        cfg = write_config(tmp_path, payload, f"config{n}.json")
        out1, out2 = str(tmp_path / f"{n}j1"), str(tmp_path / f"{n}j2")
        assert main(["verify-cmoe", "--config", cfg, "--jobs", "1", "--out", out1]) == EXIT_OK
        assert main(["verify-cmoe", "--config", cfg, "--jobs", "2", "--out", out2]) == EXIT_OK
        assert dir_bytes(out1) == dir_bytes(out2)
    # every trial row comes before the searches, which keep their own order
    rows = read_rows(os.path.join(out2, CMOE_CSV))[1:]
    suites = [r[0] for r in rows]
    assert suites == sorted(suites, key=["equality", "random", "adversarial"].index)
    assert [r[5] for r in rows if r[0] == "adversarial"] == ["0", "1", "2", "3"]


def test_dumps_are_named_by_their_csv_row(tmp_path, monkeypatch):
    # one nat added to the contravariant bound: that channel's equality,
    # trial and search rows are violation candidates, and no other row
    bound = focklab.cmoe.bound_for

    def raised(spec, s):
        return bound(spec, s) + (spec.kind == cli.ChannelKind.CONTRAVARIANT)

    monkeypatch.setattr("focklab.cmoe.bound_for", raised)
    cfg = write_config(tmp_path, TWO_CHANNEL_CMOE)
    outs = [tmp_path / "j1", tmp_path / "j2"]
    for jobs, out in zip(("1", "2"), outs):
        argv = ["verify-cmoe", "--config", cfg, "--jobs", jobs, "--out", str(out)]
        assert main(argv) == EXIT_CLAIM_FAILED
    # the summaries differ only in the dump paths they list
    files = [{k: v for k, v in dir_bytes(out).items() if k != CMOE_SUMMARY} for out in outs]
    assert files[0] == files[1]
    rows = read_rows(outs[1] / CMOE_CSV)[1:]
    candidates = [i for i, r in enumerate(rows) if r[-1] == "ViolationCandidate"]
    assert {rows[i][0] for i in candidates} == {"equality", "random", "adversarial"}
    assert all((r[1] == "contravariant") == (i in candidates) for i, r in enumerate(rows))
    paths = [str(outs[1] / f"counterexample_{i}.json") for i in candidates]
    assert sorted(map(str, outs[1].glob("counterexample_*.json"))) == sorted(paths)
    assert json.loads((outs[1] / CMOE_SUMMARY).read_text())["counterexamples"] == paths
    for i, path in zip(candidates, paths):
        with open(path) as fh:
            _, _, spec = state_from_json(json.load(fh))
        assert [spec.kind.value, fmt(spec.parameter), fmt(spec.env_energy)] == rows[i][1:4]


@pytest.mark.parametrize("jobs", [0, cli.MAX_JOBS + 1, 100_000])
def test_jobs_out_of_range_exit_two_before_a_worker_starts(tmp_path, monkeypatch, capsys, jobs):
    # the pool would fork every worker with its first task; this stub
    # records the call and raises, so no process starts
    import concurrent.futures

    pools = []

    def no_pool(*args, **kwargs):
        pools.append(kwargs)
        raise RuntimeError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path, SMALL_CMOE)
    argv = ["verify-cmoe", "--config", cfg, "--jobs", str(jobs), "--out", str(tmp_path / "r")]
    assert main(argv) == EXIT_CONFIG
    assert pools == []
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: jobs must be an integer in [1, {cli.MAX_JOBS}], got {jobs}"]
    args = build_parser().parse_args(["verify-cmoe", "--jobs", str(cli.MAX_JOBS)])
    assert cli.load_config(args)["jobs"] == cli.MAX_JOBS


def test_lemma_small_run_passes(tmp_path):
    cfg = write_config(tmp_path, SMALL_LEMMA)
    out = str(tmp_path / "run")
    assert main(["verify-lemma", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(os.path.join(out, LEMMA_CSV))
    assert rows[0] == LEMMA_COLUMNS
    assert all(r[-1] == "true" for r in rows[1:])
    summary = json.loads((tmp_path / "run" / LEMMA_SUMMARY).read_text())
    assert summary["passed"] is True


MIXED_ORDERS = {"lemma": dict(SMALL_LEMMA["lemma"], solver_q=[1.2, 1.3, 1.6, 2.0])}


def test_lemma_rows_are_exploratory_by_q_alone(tmp_path):
    cfg, out = write_config(tmp_path, MIXED_ORDERS), str(tmp_path / "run")
    assert main(["verify-lemma", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(os.path.join(out, LEMMA_CSV))[1:]
    assert [float(r[2]) for r in rows] == [1.2, 1.3, 1.6, 2.0]
    assert [r[-2] for r in rows] == ["false", "false", "true", "true"]
    summary = json.loads((tmp_path / "run" / LEMMA_SUMMARY).read_text())
    assert "exploratory" not in summary


def _lemma_failure(tmp_path, capsys, payload):
    code = main(["verify-lemma", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "run")])
    summary = json.loads((tmp_path / "run" / LEMMA_SUMMARY).read_text())
    return code, summary, capsys.readouterr().err.strip().splitlines()


def test_lemma_trend_failure_is_named(tmp_path, capsys, monkeypatch):
    # increasing trend orders: p - 1 grows along them
    monkeypatch.setattr(cli, "TREND_Q", (1.01, 1.1))
    code, summary, err = _lemma_failure(tmp_path, capsys, SMALL_LEMMA)
    assert code == EXIT_CLAIM_FAILED
    assert summary["trend_ok"] is False and summary["boundary_ok"] is True
    assert err == ["FAIL p-1 does not decrease along TREND_Q=(1.01, 1.1)"]


def test_lemma_boundary_failure_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "norm_ratio_log_derivative", lambda z, gain, p, q: 0.0)
    code, summary, err = _lemma_failure(tmp_path, capsys, SMALL_LEMMA)
    assert code == EXIT_CLAIM_FAILED
    assert summary["boundary_ok"] is False and summary["trend_ok"] is True
    assert len(err) == 1 and err[0].startswith("FAIL") and "derivative" in err[0]


@pytest.mark.parametrize("shift", [np.nan, 1e-3], ids=["nan", "above-tolerance"])
def test_lemma_fd_residual_failure_is_named(tmp_path, capsys, monkeypatch, shift):
    # a NaN residual must fail like one above FD_TOL, and neither may
    # print an empty margins line
    fd_residual = focklab.lemma._fd_max_residual
    monkeypatch.setattr(focklab.lemma, "_fd_max_residual", lambda *args: fd_residual(*args) + shift)
    code, summary, err = _lemma_failure(tmp_path, capsys, SMALL_LEMMA)
    assert code == EXIT_CLAIM_FAILED
    residual = summary["grid"]["fd_max_residual"]
    assert summary["grid"]["all_hold"] is False and not residual <= FD_TOL
    assert all(m["min_margin"] > 0.0 for m in summary["grid"]["margins"].values())
    assert err == [f"FAIL lemma fd residual {residual:.3e} not within FD_TOL 1e-06"]


def test_lemma_grid_margin_failure_is_named(tmp_path, capsys, monkeypatch):
    verify = cli.verify_lemma_inequalities
    reports = []

    def negative(grid):
        reports.append(verify(grid))
        reports[-1].margins["f_decreasing_in_p"]["min_margin"] = -1e-3
        reports[-1].all_hold = False
        return reports[-1]

    monkeypatch.setattr(cli, "verify_lemma_inequalities", negative)
    code, summary, err = _lemma_failure(tmp_path, capsys, SMALL_LEMMA)
    assert code == EXIT_CLAIM_FAILED and summary["passed"] is False
    bad = {"f_decreasing_in_p": reports[0].margins["f_decreasing_in_p"]}
    assert err == [f"FAIL lemma grid margins: {bad}"]


def test_lemma_solver_failure_is_named(tmp_path, capsys, monkeypatch):
    # a maximizer scan that finds nothing fails every guaranteed row, and
    # only those: the exploratory rows at q = 1.6 and 2 fail without a line
    monkeypatch.setattr(
        cli, "scan_ratio_maximizer", lambda gain, p, q: (np.full(p.shape, np.nan),) * 2
    )
    payload = {"lemma": dict(MIXED_ORDERS["lemma"], solver_gains=[2.0, 4])}
    code = main(["verify-lemma", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CLAIM_FAILED
    assert capsys.readouterr().err.splitlines() == [
        f"FAIL solver at z_bar=0.5 gain={g} q={q}" for g in ("2.0", "4") for q in (1.2, 1.3)
    ]
    rows = read_rows(tmp_path / "run" / LEMMA_CSV)[1:]
    assert [r[-2] for r in rows] == ["false", "false", "true", "true"] * 2
    assert {r[-1] for r in rows} == {"false"}
    summary = json.loads((tmp_path / "run" / LEMMA_SUMMARY).read_text())
    assert summary["solver_ok"] is False and summary["passed"] is False


def _exceeded_probe(monkeypatch):
    probe = cli.pq_norm_saturation_probe
    monkeypatch.setattr(
        cli,
        "pq_norm_saturation_probe",
        lambda **kw: dataclasses.replace(probe(**kw), exceeded=True),
    )


def test_lemma_probe_failure_is_named(tmp_path, capsys, monkeypatch):
    _exceeded_probe(monkeypatch)
    code, summary, err = _lemma_failure(tmp_path, capsys, SMALL_LEMMA)
    assert code == EXIT_CLAIM_FAILED and summary["passed"] is False
    assert summary["probe"]["exceeded"] is True
    assert err == ["FAIL saturation probe exceeded the thermal ceiling"]


def test_lemma_failures_print_in_check_order(tmp_path, capsys, monkeypatch):
    _exceeded_probe(monkeypatch)
    monkeypatch.setattr(cli, "norm_ratio_log_derivative", lambda z, gain, p, q: 0.0)
    monkeypatch.setattr(cli, "TREND_Q", (1.01, 1.1))
    code, summary, err = _lemma_failure(tmp_path, capsys, SMALL_LEMMA)
    assert code == EXIT_CLAIM_FAILED
    assert summary["passed"] is False and summary["grid"]["all_hold"] is True
    assert summary["solver_ok"] is True
    assert err == [
        "FAIL p-1 does not decrease along TREND_Q=(1.01, 1.1)",
        "FAIL ratio derivative at the boundary: 0.0 at z=0 (want > 0), 0.0 near z=1 (want < -1)",
        "FAIL saturation probe exceeded the thermal ceiling",
    ]


def test_report_aggregates_suites(tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["verify-thermal-laws", "--config", write_config(tmp_path, SMALL_THERMAL), "--out", out])
    main(["verify-lemma", "--config", write_config(tmp_path, SMALL_LEMMA, "l.json"), "--out", out])
    assert main(["report", "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "run" / REPORT_FILE).read_text())
    assert report["overall"] == "PASS"
    suites = {s["suite"]: s for s in report["suites"]}
    assert suites["thermal"]["status"] == "PASS"
    assert suites["lemma"]["status"] == "PASS"
    assert suites["cmoe"]["status"] == "SKIPPED"
    out_text = capsys.readouterr().out
    assert "overall: PASS" in out_text


def test_report_empty_dir_exits_two(tmp_path):
    out = str(tmp_path / "empty")
    os.makedirs(out)
    assert main(["report", "--out", out]) == EXIT_CONFIG


def test_report_rejects_corrupted_csv(tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["verify-thermal-laws", "--config", write_config(tmp_path, SMALL_THERMAL), "--out", out])
    csv_path = os.path.join(out, THERMAL_CSV)
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    lines[1] = lines[1] + ",extra_field"
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["report", "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert THERMAL_CSV in err


@pytest.mark.parametrize(
    "name, content, code",
    [
        pytest.param(THERMAL_SUMMARY, b"[]", EXIT_CONFIG, id="summary-not-object"),
        pytest.param(THERMAL_SUMMARY, b'{"passed": "\xff"}', EXIT_CONFIG, id="summary-not-utf8"),
        pytest.param(THERMAL_CSV, b"channel,\xff\n", EXIT_CONFIG, id="csv-not-utf8"),
        # one field past the csv module's 131,072-character limit
        pytest.param(
            THERMAL_CSV, b"channel," + b"x" * 131073 + b"\n", EXIT_CONFIG, id="csv-field-too-large"
        ),
        pytest.param(THERMAL_SUMMARY, b'{"passed": "false"}', EXIT_CLAIM_FAILED, id="passed-string"),
    ],
)
def test_report_rejects_corrupted_outputs(tmp_path, capsys, name, content, code):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, SMALL_THERMAL)
    assert main(["verify-thermal-laws", "--config", cfg, "--out", str(out)]) == EXIT_OK
    (out / name).write_bytes(content)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == code
    captured = capsys.readouterr()
    if code == EXIT_CONFIG:
        assert captured.err.startswith("config error:") and name in captured.err
    else:
        assert "FAIL    thermal" in captured.out


def test_default_config_is_json_serializable():
    json.dumps(DEFAULT_CONFIG)


def test_cmoe_small_cutoff_warms_caches_without_probe(tmp_path):
    # a thermal(0.5) probe on 4 levels lacks 1.2% of its mass; the
    # warm-up builds the maps at that input size instead
    payload = dict(
        SMALL_CMOE,
        cmoe=dict(
            SMALL_CMOE["cmoe"],
            cutoffs=[4],
            adversarial_cutoff=4,
            channels=[{"kind": "amplifier", "gain": 2.0, "env_energy": 0.5}],
        ),
    )
    cfg = write_config(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["verify-cmoe", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(os.path.join(out, CMOE_CSV))
    assert {r[4] for r in rows[1:] if r[0] == "random"} == {"4"}


def test_trend_order_next_to_one_fails_the_claim(tmp_path, capsys, monkeypatch):
    # q exceeds 1, but the solver's bracket (1 + 1e-9, q - 1e-9) is empty
    # there: p - 1 is NaN, not an input error
    monkeypatch.setattr(cli, "TREND_Q", (1.1, 1.000000000001))
    code, summary, err = _lemma_failure(tmp_path, capsys, SMALL_LEMMA)
    assert code == EXIT_CLAIM_FAILED
    assert summary["trend_ok"] is False
    assert err == ["FAIL p-1 does not decrease along TREND_Q=(1.1, 1.000000000001)"]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("verify-lemma", {"lemma": dict(SMALL_LEMMA["lemma"], probe_cutoff=400)}),
        (
            "verify-cmoe",
            dict(
                SMALL_CMOE,
                cmoe=dict(SMALL_CMOE["cmoe"], channels=[{"kind": "amplifier", "gain": 1000.0}]),
            ),
        ),
    ],
)
def test_oversized_dense_channel_exits_two(tmp_path, capsys, command, payload):
    # the probe's map at 400 levels would complete to 656 MiB, and gain 1000
    # sizes d_out in the tens of thousands; the probe's and the trial
    # warm-up's band completion refuse them before allocating
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("input error: ResourceLimitError:") and "exceeds limit" in err[0]


# address-space cap of a child that runs an oversized config: it admits
# numpy with its OpenBLAS buffers and the largest map under
# MAX_DENSE_BYTES, and fails any band 0 of tens of GiB at once
CHILD_ADDRESS_SPACE = 2**30

TINY_CMOE = {
    "trials_per_channel": 1,
    "adversarial_searches": 0,
    "cutoffs": [4],
    "channels": [{"kind": "attenuator", "transmissivity": 0.6}],
}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _capped_cli(tmp_path, command, payload):
    """Exit code and stderr lines of a command run on `payload` in a capped child.

    The child has an address-space cap and a timeout, so a run that does
    allocate fails there and not here.
    """
    cfg = write_config(tmp_path, payload)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "focklab.cli", command, "--config", cfg, "--out", str(tmp_path / "r")],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stderr.strip().splitlines()


@pytest.mark.parametrize(
    "command, payload",
    [
        # an attenuator band 0 of 322,379 x 322,379 levels (774 GiB of int64)
        ("verify-thermal-laws", {"thermal": {"input_energies": [1e4]}}),
        # a thermal input state of 3.2e10 levels, counted by its grid point's band 0
        ("verify-thermal-laws", {"thermal": {"input_energies": [1e9]}}),
        # 2 -> 32,236,176 levels, after a lgamma table of as many floats
        ("verify-thermal-laws", {"thermal": {"gains": [1e6]}}),
        # 30 -> 3,223,665 levels (738 MiB of int64)
        ("verify-thermal-laws", {"thermal": {"env_energies": [1e5]}}),
        # the equality rows walk the same grid at cmoe.equality_input_energies
        ("verify-cmoe", {"cmoe": dict(TINY_CMOE, equality_input_energies=[1e4])}),
        ("verify-cmoe", {"cmoe": dict(TINY_CMOE, equality_input_energies=[1e9])}),
        ("verify-cmoe", {"thermal": {"gains": [1e6]}, "cmoe": TINY_CMOE}),
        ("verify-cmoe", {"thermal": {"env_energies": [1e5]}, "cmoe": TINY_CMOE}),
        # the trials draw states at each cutoff, the search at its own,
        # and the probe at probe_cutoff; each map is built before any draw
        ("verify-cmoe", {"cmoe": dict(TINY_CMOE, cutoffs=[10**6])}),
        ("verify-cmoe", {"cmoe": dict(TINY_CMOE, adversarial_searches=1, adversarial_cutoff=10**6)}),
        ("verify-cmoe", {"cmoe": dict(TINY_CMOE, adversarial_searches=1, adversarial_cutoff=10**15)}),
        ("verify-lemma", {"lemma": {"probe_cutoff": 10**6}}),
        ("verify-lemma", {"lemma": {"probe_cutoff": 10**15}}),
    ],
    ids=[
        "input-energy", "input-energy-1e9", "gain", "env-energy", "cmoe-input-energy",
        "cmoe-input-energy-1e9", "cmoe-gain", "cmoe-env-energy",
        "cutoff-1e6", "search-cutoff-1e6", "search-cutoff-1e15", "probe-cutoff-1e6",
        "probe-cutoff-1e15",
    ],
)
def test_oversized_band_zero_exits_two_before_it_allocates(tmp_path, command, payload):
    code, err = _capped_cli(tmp_path, command, payload)
    assert code == EXIT_CONFIG, err[-20:]
    assert len(err) == 1
    assert err[0].startswith("input error: ResourceLimitError: band 0 of the ")
    assert err[0].endswith(" exceeds limit 512 MiB")


@pytest.mark.parametrize(
    "payload",
    [
        {"trials_per_channel": 10**6},
        {"trials_per_channel": 10**15},
        {"trials_per_channel": 1, "adversarial_searches": 10**6},
        {"trials_per_channel": 1, "adversarial_searches": 10**15},
    ],
    ids=["trials-1e6", "trials-1e15", "searches-1e6", "searches-1e15"],
)
def test_oversized_cmoe_row_count_exits_two_before_it_allocates(tmp_path, payload):
    # every row stays in memory until the summary is written
    code, err = _capped_cli(tmp_path, "verify-cmoe", {"cmoe": dict(TINY_CMOE, **payload)})
    assert code == EXIT_CONFIG, err[-20:]
    assert len(err) == 1
    assert err[0].startswith("input error: ResourceLimitError: ")
    assert " trial and search rows and " in err[0] and " completed channel maps need " in err[0]
    assert err[0].endswith(" exceeds limit 512 MiB")


def test_oversized_cmoe_warm_set_exits_two_before_it_completes_a_map(tmp_path):
    # 12 maps of at most 176 MiB each, 907 MiB together
    payload = {"cmoe": {"trials_per_channel": 1, "cutoffs": [200, 250]}}
    code, err = _capped_cli(tmp_path, "verify-cmoe", payload)
    assert code == EXIT_CONFIG, err[-20:]
    assert len(err) == 1
    assert err[0].startswith("input error: ResourceLimitError: 44 trial and search rows and ")
    assert " 12 completed channel maps need " in err[0]
    assert err[0].endswith(" exceeds limit 512 MiB")


def test_cmoe_memory_plan_refuses_before_any_band_is_built(tmp_path, monkeypatch, capsys):
    # four amplifiers at gain about 4 and cutoff 600: each band 0 of
    # 600 -> 2950 levels passes alone, each completed map does not; a run
    # that built every band 0 before refusing reached a maxrss of 186 MB
    kraus_bands, built = channel_maps._kraus_bands, []
    monkeypatch.setattr(channel_maps, "_kraus_bands", lambda *a: built.append(a) or kraus_bands(*a))
    channels = [{"kind": "amplifier", "gain": gain} for gain in (4.0, 4.01, 4.02, 4.03)]
    cfg = write_config(tmp_path, {"cmoe": {"cutoffs": [600], "channels": channels}})
    channel_maps.clear_caches()
    assert main(["verify-cmoe", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "input error: ResourceLimitError: dense 600 -> 2950 level map needs 4486 MiB,"
        " exceeds limit 512 MiB"
    ]
    assert built == []


def _held_trial_rows(jobs, out_dir):
    """The rows of 800 trials run as verify-cmoe runs them, and the bytes they hold.

    With --jobs 2 the rows held are the ones unpickled from the workers.
    """
    spec, cutoffs = cli.parse_channel(DEFAULT_CONFIG["cmoe"]["channels"][0]), [16, 24]

    def tasks(trials):
        chunk = trials // (jobs * 8)
        run = (7, out_dir, 0)
        return [
            (cli._cmoe_trial_batch, (run, spec, cutoffs, 0, range(trials)[lo : lo + chunk]))
            for lo in range(0, trials, chunk)
        ]

    channel_maps.clear_caches()
    for cutoff in cutoffs:
        channel_maps.get_channel_map(spec, cutoff).complete()
    cli._run_tasks(jobs, tasks(64))  # first-call costs
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = [row for batch in cli._run_tasks(jobs, tasks(800)) for row in batch]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        channel_maps.clear_caches()
    return rows, held


@pytest.mark.parametrize("jobs", [1, 2])
def test_cmoe_row_bytes_bound_what_the_rows_hold(tmp_path, jobs):
    rows, held = _held_trial_rows(jobs, str(tmp_path))
    assert held <= cli.CMOE_ROW_BYTES * len(rows) <= 2 * held


@pytest.mark.parametrize("jobs", [1, 2])
def test_cmoe_row_bytes_bound_violation_candidate_rows(tmp_path, monkeypatch, jobs):
    # ten nats added to the bound, past any gap at these cutoffs, turn
    # every row into a violation candidate; its process writes the dump
    # at once, and the row keeps only the path (a row that kept its dump
    # held ~28 KB here)
    bound = focklab.cmoe.bound_for
    monkeypatch.setattr("focklab.cmoe.bound_for", lambda spec, s: bound(spec, s) + 10.0)
    rows, held = _held_trial_rows(jobs, str(tmp_path))
    assert {r["verdict"] for r in rows} == {"ViolationCandidate"}
    assert held <= cli.CMOE_ROW_BYTES * len(rows)
    paths = [str(tmp_path / f"counterexample_{i}.json") for i in range(len(rows))]
    assert [r["counterexample"] for r in rows] == paths
    assert sorted(map(str, tmp_path.glob("counterexample_*.json"))) == sorted(paths)


@pytest.mark.parametrize(
    "payload",
    [
        {"grid_z_points": 10**15},
        {"grid_order_points": 10**15},
        # one (z, order) array of 3e6 x 25 points alone takes 572 MiB
        {"grid_z_points": 3_000_000},
    ],
    ids=["z-points", "order-points", "three-million-z"],
)
def test_oversized_lemma_grid_exits_two_before_it_allocates(tmp_path, payload):
    code, err = _capped_cli(tmp_path, "verify-lemma", {"lemma": payload})
    assert code == EXIT_CONFIG, err[-20:]
    assert len(err) == 1
    assert err[0].startswith("input error: ResourceLimitError: the ")
    assert " point lemma grid at 4 gains needs " in err[0]
    assert err[0].endswith(" exceeds limit 512 MiB")


def test_huge_solver_gains_print_only_fail_lines(tmp_path):
    # from z_bar 0.75, the solver's image at gain 1e17 and the maximizer's
    # last golden-section cell at 5e12 round to z = 1, where the thermal
    # norms are -inf or NaN: the rows fail, and nothing warns
    gains = [2.0, 1e17, 5e12]
    payload = {"lemma": dict(SMALL_LEMMA["lemma"], solver_z=[0.75], solver_gains=gains)}
    code, err = _capped_cli(tmp_path, "verify-lemma", payload)
    assert code == EXIT_CLAIM_FAILED
    assert err == [
        "FAIL solver at z_bar=0.75 gain=1e+17 q=1.3",
        "FAIL solver at z_bar=0.75 gain=5000000000000.0 q=1.3",
    ]


@pytest.mark.parametrize(
    "z_points, gain, margins_fail",
    [(199, 1e14, True), (15, 562950050069908.6, False)],
    ids=["image-of-z", "image-of-z-plus-step"],
)
def test_huge_grid_gains_print_only_fail_lines(tmp_path, z_points, gain, margins_fail):
    # at gain 1e14 the grid's amplifier image of z = 199/200 rounds to 1,
    # where phi is not defined; at the second gain only the image of
    # z + FD_STEP at z = 15/16 does.  Both exited 2 on a config that
    # validate_config admits; now the margins or the fd residual fail
    payload = {"lemma": dict(SMALL_LEMMA["lemma"], grid_z_points=z_points, grid_gains=[2.0, gain])}
    code, err = _capped_cli(tmp_path, "verify-lemma", payload)
    assert code == EXIT_CLAIM_FAILED, err
    assert err[-1] == "FAIL lemma fd residual nan not within FD_TOL 1e-06"
    if margins_fail:
        assert len(err) == 2
        assert err[0].startswith("FAIL lemma grid margins: {'phi_image_positive': {'min_margin': nan")
        assert f"'gain': {gain!r}" in err[0]
    else:
        assert len(err) == 1


def test_probe_ceiling_reaches_the_vacuum_near_gain_one():
    # at gain 1 + 1e-7 the thermal ratio is largest at z = 0 (-9.97e-8);
    # a ceiling scanned from z = 1/2001 on read -2.96e-5, below the best
    # random trial (-8.04e-7), and the probe failed a claim that holds
    section, gain = DEFAULT_CONFIG["lemma"], 1.0000001
    probe = focklab.lemma.pq_norm_saturation_probe(
        gain, focklab.lemma.PROBE_P, focklab.lemma.PROBE_Q,
        section["probe_cutoff"], section["probe_trials"], DEFAULT_CONFIG["seed"],
    )
    assert not probe.exceeded
    ceiling = focklab.lemma.log_thermal_norm_ratio(0.0, gain, probe.p, probe.q)
    assert probe.thermal_log_ceiling >= ceiling
    assert probe.best_trial_log_ratio < probe.thermal_log_ceiling


def test_dense_probe_over_the_byte_limit_exits_two(tmp_path, capsys):
    # 500 levels at gain 2: the dense path would need 1,231 MiB, and a
    # chunk's states, stacked dense inputs and array headers 100 MiB past its output
    cfg = write_config(tmp_path, {"lemma": dict(SMALL_LEMMA["lemma"], probe_cutoff=500)})
    assert main(["verify-lemma", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["input error: ResourceLimitError: dense 500 -> 1207 level map and the"
                   " saturation probe's 16-trial chunks need 1331 MiB, exceeds limit 512 MiB"]


DENSE_CHECK_RSS = r"""
import json, resource
from focklab import channels
from focklab.cmoe import check_cmoe
from focklab.sampling import random_mixed, substream

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

rho = random_mixed(4, 4, substream(1, 0))
check_cmoe(channels.attenuator(0.5, 0.5), rho)  # first-call costs, at 33 output levels
spec = channels.attenuator(0.5, 50.0)
before = maxrss()
check_cmoe(spec, rho)
d_out = channels.default_dims(spec, 4).d_out
print(json.dumps({"d_out": d_out, "grown": maxrss() - before, "need": channels.dense_bytes(4, d_out)}))
"""


def test_dense_bytes_bound_a_dense_check():
    # the output's Hermiticity check and its eigensolve each hold a copy
    # of it: the growth read ~2.05 outputs, against 1.0 counted before
    got = _run_script(DENSE_CHECK_RSS, preexec_fn=_cap_address_space)
    assert got["d_out"] >= 1500
    assert got["grown"] <= got["need"]


@pytest.mark.parametrize(
    "command, payload, where",
    [
        ("verify-lemma", {"lemma": {"probe_trials": "many"}}, "lemma.probe_trials"),
        ("verify-lemma", {"lemma": {"probe_cutoff": 0}}, "lemma.probe_cutoff"),
        ("verify-lemma", {"lemma": {"solver_z": [0.5, 1.0]}}, "lemma.solver_z[1]"),
        ("verify-cmoe", {"cmoe": {"trials_per_channel": "10"}}, "cmoe.trials_per_channel"),
        ("verify-cmoe", {"cmoe": {"cutoffs": [16, 1]}}, "cmoe.cutoffs[1]"),
        ("verify-cmoe", {"cmoe": {"channels": ["attenuator"]}}, "bad channel entry"),
        ("verify-thermal-laws", {"thermal": {"gains": 2.0}}, "thermal.gains"),
        ("verify-cmoe", {"thermal": {"tail_target": 1.0}}, "thermal.tail_target"),
        ("verify-cmoe", {"cmoe": {"channels": [{"kind": "amplifier", "gain": "2"}]}}, "gain"),
        ("verify-thermal-laws", {"thermal": {"env_energies": [10**400]}}, "thermal.env_energies[0]"),
        ("verify-thermal-laws", {"thermal": 5}, "'thermal'"),
        ("verify-lemma", {"lemma": []}, "'lemma'"),
        ("verify-lemma", {"lemma": {"grid_gains": []}}, "lemma.grid_gains"),
        ("verify-lemma", {"lemma": {"grid_order_points": 1}}, "lemma.grid_order_points"),
        ("verify-lemma", {"lemma": {"solver_z": []}}, "lemma.solver_z"),
        # every row would be exploratory, so the solver claim could not fail
        ("verify-lemma", {"lemma": {"solver_q": [1.5, 2.0]}}, "lemma.solver_q"),
        ("verify-cmoe", {"cmoe": {"equality_input_energies": []}}, "cmoe.equality_input_energies"),
        ("verify-cmoe", {"cmoe": {"cutoffs": []}}, "cmoe.cutoffs"),
        ("verify-thermal-laws", {"lemma": {"solver_q": [1.6]}}, "lemma.solver_q"),
        # the contravariant kind's derived additive stage would get env energy inf
        (
            "verify-cmoe",
            {"cmoe": {"channels": [{"kind": "contravariant", "gain": 1e300, "env_energy": 1e300}]}},
            "bad channel entry {'kind': 'contravariant', 'gain': 1e+300, 'env_energy': 1e+300}: "
            "contravariant gain 1e+300 x env_energy 1e+300 is not finite",
        ),
    ],
)
def test_mistyped_config_value_exits_two(tmp_path, capsys, command, payload, where):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and where in err[0]


# the bounds of each config rule; a rule's edges are 1e300, 1e-300 where
# it admits it, 10**15, 10**400 (past the float range), and each bound +- 1e-7
RULE_BOUNDS = {
    cli.NONNEGATIVE: [0.0], cli.OPEN_UNIT: [0.0, 1.0],
    cli.TRANSMISSIVITY: [0.0, 1.0], cli.CHANNEL_GAIN: [1.0], cli.ABOVE_ONE: [1.0],
    cli.COUNT: [0], cli.POSITIVE_COUNT: [1], cli.LEVELS: [2],
}
CHANNEL_RULES = {"transmissivity": cli.TRANSMISSIVITY, "gain": cli.CHANNEL_GAIN,
                 "env_energy": cli.NONNEGATIVE}
SECTION_RUNS = {"thermal": ("verify-thermal-laws", SMALL_THERMAL),
                "cmoe": ("verify-cmoe", SMALL_CMOE), "lemma": ("verify-lemma", SMALL_LEMMA)}


def _edges(rule):
    edges = [1e300] + ([1e-300] if rule[1](1e-300) else []) + [10**15, 10**400]
    return edges + [bound + step for bound in RULE_BOUNDS[rule] for step in (-1e-7, 1e-7)]


def _run(section, **values):
    """(command, payload) of the section's small run with `values` set."""
    command, base = SECTION_RUNS[section]
    return command, dict(base, **{section: dict(base.get(section, {}), **values)})


def _edge_configs():
    """(name, command, payload) of each edge of each numeric config value, one at a time.

    The values that size only the run time are left out.
    """
    for section, values in cli.CONFIG_SECTIONS.items():
        for key, (_, rule) in values.items():
            if rule is None or key in ("adversarial_iterations", "probe_trials"):
                continue
            listed = isinstance(rule, list)
            for edge in _edges(rule[0] if listed else rule):
                yield f"{section}.{key}={edge!r}", *_run(section, **{key: [edge] if listed else edge})
    for entry in DEFAULT_CONFIG["cmoe"]["channels"]:
        for param in sorted(entry.keys() - {"kind"}):
            for edge in _edges(CHANNEL_RULES[param]):
                channel = dict(entry, **{param: edge})
                yield f"{entry['kind']}.{param}={edge!r}", *_run("cmoe", channels=[channel])


EDGE_RUNNER = r"""
import contextlib, io, json, sys, traceback
from focklab import channels, cli

results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except BaseException:
            code = None
            traceback.print_exc()
    channels.clear_caches()
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def _dishonest_runs(tmp_path, cases) -> list:
    """(name, code, last stderr lines) of each (name, command, payload) run that breaks the exit contract.

    One capped child runs every case, so a case that allocates fails there.
    """
    argvs = [
        [command, "--config", write_config(tmp_path, payload, f"{i}.json"), "--out", str(tmp_path / f"r{i}")]
        for i, (_, command, payload) in enumerate(cases)
    ]
    results = _run_script(EDGE_RUNNER, json.dumps(argvs), preexec_fn=_cap_address_space)
    assert len(results) == len(cases)
    bad = []
    for (name, _, _), (code, err) in zip(cases, results):
        lines = err.splitlines()
        honest = code in (EXIT_OK, EXIT_CLAIM_FAILED, EXIT_CONFIG) and "Traceback" not in err
        if code == EXIT_CONFIG:
            honest &= len(lines) == 1 and lines[0].startswith(("config error:", "input error:"))
        if code == EXIT_CLAIM_FAILED:
            honest &= any(line.startswith("FAIL ") for line in lines)
        if not honest:
            bad.append((name, code, lines[-3:]))
    return bad


def test_every_config_edge_exits_honestly(tmp_path):
    assert _dishonest_runs(tmp_path, list(_edge_configs())) == []


# values of generated configs: solver orders on both sides of 3/2, and
# the gains and env energies of channels
ORDERS = st.sampled_from([1.01, 1.3, 1.49, 1.5, 1.6, 2.0])
SIZES = st.sampled_from([1, 2, 1e300])


def _entries(values):
    return st.lists(values, min_size=1, max_size=3)


def _listed(values):
    """A list value of 1-3 entries, or an empty or a nested one."""
    return st.one_of(_entries(values), st.just([]), _entries(values).map(lambda v: [v]))


CHANNEL = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["amplifier", "contravariant"]), "gain": SIZES, "env_energy": SIZES}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("attenuator"), "transmissivity": st.just(0.6), "env_energy": SIZES}
    ),
    st.fixed_dictionaries({"kind": st.just("additive"), "env_energy": SIZES}),
)
GENERATED_CONFIG = st.one_of(
    st.builds(_run, st.just("lemma"), solver_q=_listed(ORDERS),
              solver_gains=_entries(st.sampled_from([1.5, 2, 1e300]))),
    st.builds(_run, st.just("cmoe"), channels=st.lists(CHANNEL, min_size=1, max_size=3)),
    st.builds(_run, st.just("thermal"), gains=_listed(SIZES), env_energies=_entries(SIZES)),
)


def _covers_the_edges(configs) -> bool:
    """Whether the configs mix orders, hold empty and nested lists, and repeat and mix kinds."""
    lemma = [payload["lemma"]["solver_q"] for command, payload in configs if command == "verify-lemma"]
    kinds = [[c["kind"] for c in payload["cmoe"]["channels"]]
             for command, payload in configs if command == "verify-cmoe"]
    listed = [v for _, payload in configs for section in payload.values() if isinstance(section, dict)
              for v in section.values() if isinstance(v, list)]
    return (
        any(min(q) < 1.5 <= max(q) for q in lemma if q and not isinstance(q[0], list))
        and [] in listed and any(v and isinstance(v[0], list) for v in listed)
        and any(len(set(k)) < len(k) for k in kinds) and any(len(set(k)) > 1 for k in kinds)
    )


@settings(max_examples=1)
@given(st.lists(GENERATED_CONFIG, min_size=40, max_size=40))
def test_generated_configs_exit_honestly(tmp_path_factory, configs):
    # the simplest example repeats one config, so the one run is of a list that covers the edges
    assume(_covers_the_edges(configs))
    cases = [(json.dumps(payload), command, payload) for command, payload in configs]
    assert _dishonest_runs(tmp_path_factory.mktemp("generated"), cases) == []


def test_suppressed_rows_fail_verify_cmoe(tmp_path, monkeypatch, capsys):
    def truncating(*args, **kwargs):
        raise TruncationError("forced truncation", deficit=0.5)

    monkeypatch.setattr("focklab.cmoe.apply_channel", truncating)
    cfg = write_config(tmp_path, SMALL_CMOE)
    out = str(tmp_path / "run")
    assert main(["verify-cmoe", "--config", cfg, "--out", out]) == EXIT_CLAIM_FAILED
    summary = json.loads((tmp_path / "run" / CMOE_SUMMARY).read_text())
    assert summary["passed"] is False
    assert summary["violations"] == 0
    suppressed = sum(rec["suppressed"] for rec in summary["per_channel"].values())
    assert suppressed > 0
    assert f"FAIL {suppressed} rows suppressed" in capsys.readouterr().err


def test_thermal_equality_rows_off_bound_fail_verify_cmoe(tmp_path, monkeypatch, capsys):
    # one nat taken off the bound leaves every row Satisfied, so the
    # thermal inputs no longer reach it and no row is a violation
    bound = focklab.cmoe.bound_for
    monkeypatch.setattr("focklab.cmoe.bound_for", lambda spec, s: bound(spec, s) - 1.0)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, SMALL_CMOE)
    assert main(["verify-cmoe", "--config", cfg, "--out", str(out)]) == EXIT_CLAIM_FAILED
    rows = read_rows(out / CMOE_CSV)[1:]
    assert {r[-1] for r in rows} == {"Satisfied"}
    summary = json.loads((out / CMOE_SUMMARY).read_text())
    equality = sum(r[0] == "equality" for r in rows)
    assert summary["equality_failures"] == equality == 4
    assert summary["violations"] == 0 and summary["passed"] is False
    err = capsys.readouterr().err.splitlines()
    assert err == [f"FAIL {equality} thermal equality rows off bound"]


def test_violation_candidates_are_dumped(tmp_path, monkeypatch, capsys):
    # one nat added to the bound turns every row into a violation candidate
    bound = focklab.cmoe.bound_for
    monkeypatch.setattr("focklab.cmoe.bound_for", lambda spec, s: bound(spec, s) + 1.0)
    checked, drawn, searched = [], [], []
    check, draw, search = cli.check_cmoe, cli.draw_state, cli.adversarial_search

    def recording_check(spec, state, *rest):
        checked.append((spec, state))
        return check(spec, state, *rest)

    def recording_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def recording_search(*args):
        result = search(*args)
        searched.append(result.best_state)
        return result

    monkeypatch.setattr(cli, "check_cmoe", recording_check)
    monkeypatch.setattr(cli, "draw_state", recording_draw)
    monkeypatch.setattr(cli, "adversarial_search", recording_search)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, SMALL_CMOE)
    assert main(["verify-cmoe", "--config", cfg, "--jobs", "1", "--out", str(out)]) == EXIT_CLAIM_FAILED
    rows = read_rows(out / CMOE_CSV)[1:]
    assert all(r[-1] == "ViolationCandidate" for r in rows)
    # the equality rows are checked first, one thermal input per grid channel
    equality = checked[: len(checked) - len(drawn)]
    assert {spec.kind for spec, _ in equality} == set(cli.ChannelKind)
    assert [r[6] for r in rows] == ["thermal"] * len(equality) + [
        "mixed", "pure", "diagonal", "pinned", "mixed", "pure", "search-best"
    ]
    paths = [str(out / f"counterexample_{i}.json") for i in range(len(rows))]
    assert sorted(str(p) for p in out.glob("counterexample_*.json")) == sorted(paths)
    summary = json.loads((out / CMOE_SUMMARY).read_text())
    assert summary["counterexamples"] == paths
    assert summary["violations"] == len(rows)
    err = capsys.readouterr().err
    seed = DEFAULT_CONFIG["seed"]
    channel = cli.parse_channel(SMALL_CMOE["cmoe"]["channels"][0])
    # equality rows, then trial rows in draw order, then the search's row
    dumped = equality + [(channel, state) for state in drawn + searched]
    assert len(dumped) == len(paths)
    for path, (channel, state), row in zip(paths, dumped, rows):
        dense = state if hasattr(state, "matrix") else state.to_density()
        expected = json.dumps(state_to_json(dense, seed, channel), sort_keys=True, indent=2) + "\n"
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode()
        with open(path) as fh:
            rho, got_seed, spec = state_from_json(json.load(fh))
        assert np.array_equal(rho.matrix, dense.matrix) and got_seed == seed
        assert spec == channel
        assert [spec.kind.value, fmt(spec.parameter), fmt(spec.env_energy)] == row[1:4]
        assert f"FAIL violation candidate recorded at {path}" in err


def test_maps_hold_only_the_bands_their_callers_read(tmp_path, monkeypatch):
    # verify-thermal-laws reads only the transition matrix of each map,
    # and the cache holds that one map at each grid point
    channel_maps.clear_caches()
    apply_diagonal, held = cli.apply_diagonal, []

    def recording_apply(spec, state, dims):
        out = apply_diagonal(spec, state, dims)
        held.append([len(cmap.bands) for cmap in channel_maps._map_cache.values()])
        return out

    monkeypatch.setattr(cli, "apply_diagonal", recording_apply)
    assert main(["verify-thermal-laws", "--out", str(tmp_path / "thermal")]) == EXIT_OK
    assert len(held) == 56
    assert all(bands == [1] for bands in held)
    assert not channel_maps._map_cache
    # verify-cmoe completes every trial map before the pool forks, and
    # holds no equality-row map by then
    channel_maps.clear_caches()
    section = TWO_CHANNEL_CMOE["cmoe"]
    specs = [cli.parse_channel(entry) for entry in section["channels"]]
    cutoffs = set(section["cutoffs"]) | {section["adversarial_cutoff"]}
    run_tasks, seen = cli._run_tasks, []

    def checking_run_tasks(jobs, tasks):
        at_fork = {id(cmap) for cmap in channel_maps._map_cache.values()}
        trial_maps = set()
        for spec in specs:
            for cutoff in cutoffs:
                cmap = channel_maps.get_channel_map(spec, cutoff)
                trial_maps.add(id(cmap))
                seen.append(len(cmap.bands) == min(cmap.d_in, cmap.d_out))
        seen.append(at_fork == trial_maps)
        return run_tasks(jobs, tasks)

    monkeypatch.setattr(cli, "_run_tasks", checking_run_tasks)
    cfg = write_config(tmp_path, TWO_CHANNEL_CMOE)
    out = str(tmp_path / "cmoe")
    assert main(["verify-cmoe", "--config", cfg, "--jobs", "2", "--out", out]) == EXIT_OK
    assert seen and all(seen)
    channel_maps.clear_caches()


def test_thermal_grid_memory_is_bounded_by_its_largest_map(tmp_path, monkeypatch):
    # band_zero_bytes bounds the build of one map; the grid frees each
    # map before it builds the next, so the walk peaks at one build
    band_zero_bytes, needs = channel_maps.band_zero_bytes, []

    def recording_band_zero_bytes(d_in, sizes):
        needs.append(band_zero_bytes(d_in, sizes))
        return needs[-1]

    monkeypatch.setattr(channel_maps, "band_zero_bytes", recording_band_zero_bytes)
    cfg = write_config(tmp_path, {"thermal": {"input_energies": [5.0, 10.0]}})
    channel_maps.clear_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["verify-thermal-laws", "--config", cfg, "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    # each of the 28 points is sized once before the first is built, and once as it is built
    assert len(needs) == 2 * 28
    assert peak < max(needs)


def test_pure_trial_entropy_below_zero_by_rounding_passes(tmp_path):
    # trial 329 draws a pure state whose entropy sum rounds to -6.2e-17
    payload = {"cmoe": dict(TINY_CMOE, trials_per_channel=330)}
    cfg = write_config(tmp_path, payload)
    assert main(["verify-cmoe", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK


def _blas_threads(_=None):
    return [get() for get, _ in linalg._loaded_openblas().values()]


def test_commands_run_blas_on_one_thread_and_restore(tmp_path, monkeypatch, blas_controls):
    controls = blas_controls
    saved = [get() for get, _ in controls]
    seen = []

    def recording(cfg):
        seen.append(_blas_threads())
        return EXIT_OK

    def refusing(cfg):
        raise ConfigError("refused")

    def crashing(cfg):
        raise RuntimeError("crashed")

    argv = ["verify-lemma", "--out", str(tmp_path / "r")]
    try:
        for _, put in controls:
            put(2)
        before = _blas_threads()
        monkeypatch.setattr(cli, "cmd_verify_lemma", recording)
        assert main(argv) == EXIT_OK
        assert seen == [[1] * len(controls)]
        assert _blas_threads() == before
        monkeypatch.setattr(cli, "cmd_verify_lemma", refusing)
        assert main(argv) == EXIT_CONFIG
        assert _blas_threads() == before
        monkeypatch.setattr(cli, "cmd_verify_lemma", crashing)
        with pytest.raises(RuntimeError):
            main(argv)
        assert _blas_threads() == before
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def test_pool_workers_inherit_one_blas_thread(blas_controls):
    controls = blas_controls
    with linalg._single_blas_thread():
        counts = cli._run_tasks(2, [(_blas_threads, 0), (_blas_threads, 1)])
    assert counts == [[1] * len(controls)] * 2


def _run_script(script, *args, preexec_fn=None):
    """Run a Python script in a fresh interpreter on this focklab and tests/; its stdout as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    paths = [src, os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, preexec_fn=preexec_fn, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SCIPY_GUARD = r"""
import json, sys
import numpy as np
import focklab, focklab.cli
from focklab.channels import apply_channel, attenuator
from focklab.sampling import random_mixed, substream
from dilation import apply_channel_dense

loaded = {"import": "scipy" in sys.modules}
for name, argv in json.loads(sys.argv[1]):
    assert focklab.cli.main(argv) == 0, name
    loaded[name] = "scipy" in sys.modules
spec, rho = attenuator(0.6, 0.4), random_mixed(6, 3, substream(1, 0))
error = np.abs(apply_channel_dense(spec, rho).matrix - apply_channel(spec, rho).matrix).max()
loaded["dense"] = "scipy" in sys.modules
print(json.dumps({"loaded": loaded, "error": float(error)}))
"""


def test_no_command_imports_the_scipy_package(tmp_path):
    commands = [
        (name, [name, "--config", write_config(tmp_path, payload, f"{name}.json"),
                "--out", str(tmp_path / name)])
        for name, payload in [
            ("verify-thermal-laws", SMALL_THERMAL),
            ("verify-lemma", SMALL_LEMMA),
            ("verify-cmoe", SMALL_CMOE),
        ]
    ]
    got = _run_script(SCIPY_GUARD, json.dumps(commands))
    assert got["loaded"] == {
        "import": False,
        "verify-thermal-laws": False,
        "verify-lemma": False,
        "verify-cmoe": False,
        "dense": False,
    }
    assert got["error"] < 1e-12


FOOTPRINT = r"""
import importlib, json, sys

steps, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
loaded = []
for op, *args in steps:
    if op == "import":
        importlib.import_module(args[0])
    elif op == "main":
        assert sys.modules["focklab.cli"].main(args) == 0, args
    elif op == "search":
        from focklab.channels import amplifier

        sys.modules["focklab.sampling"].adversarial_search(amplifier(1.5, 0.1), 0.8, 10, 8, 5)
    else:
        sys.modules["focklab.sampling"].substream(1, 0)
    loaded.append({name: name in sys.modules for name in watched})
print(json.dumps(loaded))
"""

# modules a command should load only when it draws a state (numpy.random,
# and hashlib through its secrets import) or forks a pool; no command
# imports the scipy package, the search loads only scipy's expm kernel
RNG, POOL, SCIPY, SCIPY_LINALG = "numpy.random", "concurrent.futures", "scipy", "scipy.linalg"
NONE_LOADED = {RNG: False, "hashlib": False, POOL: False, SCIPY: False, SCIPY_LINALG: False}


@pytest.mark.parametrize(
    "steps, expected",
    [
        pytest.param([("import", "focklab.cli")], [NONE_LOADED], id="import-cli"),
        pytest.param(
            [
                ("import", "focklab.cli"),
                ("main", "verify-thermal-laws", "--config", "{thermal}", "--out", "{out}"),
            ],
            [NONE_LOADED, NONE_LOADED],
            id="verify-thermal-laws",
        ),
        pytest.param(
            [("import", "focklab.cli"), ("main", "report", "--out", "{out}")],
            [NONE_LOADED, NONE_LOADED],
            id="report",
        ),
        pytest.param(
            [
                ("import", "focklab.cli"),
                ("main", "verify-lemma", "--config", "{lemma}", "--out", "{out}"),
            ],
            [NONE_LOADED, {RNG: True, POOL: False, SCIPY: False}],
            id="verify-lemma",
        ),
        pytest.param(
            [
                ("import", "focklab.cli"),
                ("main", "verify-cmoe", "--jobs", "1", "--config", "{cmoe}", "--out", "{out}"),
            ],
            [NONE_LOADED, {RNG: True, POOL: False, SCIPY: False, SCIPY_LINALG: False}],
            id="verify-cmoe-jobs1",
        ),
        pytest.param(
            [
                ("import", "focklab.cli"),
                ("main", "verify-cmoe", "--jobs", "2", "--config", "{cmoe}", "--out", "{out}"),
            ],
            # the workers draw and search; the parent only forks them
            [NONE_LOADED, {RNG: False, POOL: True, SCIPY: False, SCIPY_LINALG: False}],
            id="verify-cmoe-jobs2",
        ),
        pytest.param(
            [("import", "focklab.sampling"), ("search",)],
            [{SCIPY: False, SCIPY_LINALG: False}, {SCIPY: False, SCIPY_LINALG: False}],
            id="adversarial-search",
        ),
        pytest.param(
            [("import", "focklab.sampling"), ("substream",)],
            [{RNG: False}, {RNG: True}],
            id="sampling-substream",
        ),
    ],
)
def test_import_footprint_per_command(tmp_path, steps, expected):
    paths = {
        "thermal": write_config(tmp_path, SMALL_THERMAL, "thermal.json"),
        "lemma": write_config(tmp_path, SMALL_LEMMA, "lemma.json"),
        "cmoe": write_config(tmp_path, SMALL_CMOE, "cmoe.json"),
        "out": str(tmp_path / "run"),
    }
    if ("main", "report", "--out", "{out}") in steps:  # give report suites to read
        for command, config in (("verify-thermal-laws", "thermal"), ("verify-lemma", "lemma")):
            assert main([command, "--config", paths[config], "--out", paths["out"]]) == EXIT_OK
    steps = [[arg.format(**paths) for arg in step] for step in steps]
    watched = sorted({name for row in expected for name in row})
    loaded = _run_script(FOOTPRINT, json.dumps(steps), json.dumps(watched))
    assert [{name: row[name] for name in want} for row, want in zip(loaded, expected)] == expected


SEARCH_WORKER_BLAS = r"""
import importlib.util, json, os, sys
from focklab import cli, linalg

search = cli.adversarial_search

def recording(*args, **kwargs):
    result = search(*args, **kwargs)
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in os.path.basename(line.split()[-1])}
    record = {
        "pid": os.getpid(),
        "threads": [get() for get, _ in linalg._loaded_openblas().values()],
        "paths": sorted(paths),
    }
    with open(os.path.join(sys.argv[2], f"search{os.getpid()}.json"), "w") as fh:
        json.dump(record, fh)
    return result

cli.adversarial_search = recording
argv = ["verify-cmoe", "--jobs", "2", "--config", sys.argv[1], "--out", sys.argv[3]]
assert cli.main(argv) == 0
scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
print(json.dumps({"pid": os.getpid(), "scipy_dir": scipy_dir}))
"""


def test_search_workers_run_every_blas_on_one_thread(tmp_path, blas_controls):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts with one thread on one core")
    records = tmp_path / "records"
    records.mkdir()
    cfg = write_config(tmp_path, TWO_CHANNEL_CMOE)
    got = _run_script(SEARCH_WORKER_BLAS, cfg, str(records), str(tmp_path / "run"))
    seen = [json.loads(p.read_text()) for p in records.iterdir()]
    assert seen and all(r["pid"] != got["pid"] for r in seen)
    if not any(p.startswith(got["scipy_dir"]) for r in seen for p in r["paths"]):
        pytest.skip("scipy brings no OpenBLAS of its own")
    for r in seen:
        assert r["threads"] == [1] * len(r["paths"])


LIBRARY_SEARCH_BLAS = r"""
import os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "2"  # every OpenBLAS starts at 2 threads
if sys.argv[1] == "scipy-first":
    import scipy.linalg
import importlib.util, json
from focklab import linalg, sampling
from focklab.channels import amplifier

def counts():
    return {path: get() for path, (get, _) in linalg._loaded_openblas().items()}

check, seen, before = sampling.check_cmoe, [], counts()

def recording(spec, state):
    seen.append(counts())
    return check(spec, state)

sampling.check_cmoe = recording
sampling.adversarial_search(amplifier(1.5, 0.1), 0.8, 10, 8, seed=5)
print(json.dumps({
    "before": before,
    "seen": seen,
    "after": counts(),
    "scipy_linalg": "scipy.linalg" in sys.modules,
    "scipy_dir": os.path.realpath(importlib.util.find_spec("scipy").submodule_search_locations[0]),
}))
"""


def _library_search_blas(first):
    """Run a first library search in a fresh interpreter; check the OpenBLAS counts around it.

    Every OpenBLAS starts at 2 threads.  During and after the search,
    scipy's own is at 1 and any other keeps its 2.
    """
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts with one thread on one core")
    got = _run_script(LIBRARY_SEARCH_BLAS, first)
    if not got["before"]:
        pytest.skip("no OpenBLAS loaded")
    expected = {p: 1 if p.startswith(got["scipy_dir"]) else 2 for p in got["after"]}
    if 1 not in expected.values():
        pytest.skip("scipy brings no OpenBLAS of its own")
    assert got["before"] == {p: 2 for p in got["before"]}
    assert len(got["seen"]) > 1 and all(c == expected for c in got["seen"])
    assert got["after"] == expected
    return got


def test_first_library_search_pins_the_blas_it_loads():
    # numpy's OpenBLAS keeps the caller's 2 threads during and after the
    # search; scipy's, which the search maps, is at 1 from the first check on
    assert not _library_search_blas("numpy-only")["scipy_linalg"]


def test_library_search_pins_scipys_blas_when_scipy_linalg_came_first():
    # scipy's OpenBLAS is already mapped, at 2 threads, when the search loads
    # the kernel: it is pinned by where it lies, not by when it was loaded
    got = _library_search_blas("scipy-first")
    assert got["before"].keys() == got["after"].keys()
