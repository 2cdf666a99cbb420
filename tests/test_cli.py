import csv
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

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
from focklab.sampling import state_from_json, write_counterexample

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
        "trend_q": [1.1, 1.01],
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
        ["verify-lemma", "--config", "c.json", "--seed", "5", "--jobs", "2", "--out", "d", "--exploratory"]
    )
    assert args.command == "verify-lemma"
    assert args.seed == 5 and args.jobs == 2 and args.out == "d"
    assert args.exploratory
    for name in ("verify-thermal-laws", "verify-cmoe", "report"):
        assert parser.parse_args([name]).command == name


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


def test_thermal_forced_failure_exits_one(tmp_path):
    # a 1% tail cuts the grid's inputs and outputs short: some outputs lose
    # more than 1% of their trace and are refused, others miss the
    # predicted spectrum at a finite distance
    payload = {"thermal": dict(SMALL_THERMAL["thermal"], tail_target=0.01)}
    cfg = write_config(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["verify-thermal-laws", "--config", cfg, "--out", out]) == EXIT_CLAIM_FAILED
    summary = json.loads((tmp_path / "run" / THERMAL_SUMMARY).read_text())
    assert summary["passed"] is False
    assert summary["failures"]
    failed = [dict(zip(THERMAL_COLUMNS, r)) for r in read_rows(os.path.join(out, THERMAL_CSV))[1:]]
    failed = [r for r in failed if r["passed"] == "false"]
    assert any(r["output_cutoff"] == "0" and r["spectral_distance"] == "nan" for r in failed)
    assert any(r["spectral_distance"] != "nan" for r in failed)


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
        pytest.param("cmoe", "thermal_only", True, id="cmoe.thermal_only"),
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


def test_equality_rows_walk_the_thermal_laws_grid(tmp_path):
    cfg = write_config(tmp_path, SMALL_THERMAL)
    out = str(tmp_path / "run")
    assert main(["verify-thermal-laws", "--config", cfg, "--out", out]) == EXIT_OK
    thermal = {tuple(r[:3]) for r in read_rows(os.path.join(out, THERMAL_CSV))[1:]}
    args = build_parser().parse_args(["verify-cmoe", "--config", cfg])
    rows = [item["row"] for item in cli._equality_rows(cli.load_config(args))]
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


def test_lemma_small_run_passes(tmp_path):
    cfg = write_config(tmp_path, SMALL_LEMMA)
    out = str(tmp_path / "run")
    assert main(["verify-lemma", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(os.path.join(out, LEMMA_CSV))
    assert rows[0] == LEMMA_COLUMNS
    assert all(r[-1] == "true" for r in rows[1:])
    summary = json.loads((tmp_path / "run" / LEMMA_SUMMARY).read_text())
    assert summary["passed"] is True


def test_lemma_exploratory_orders_need_flag(tmp_path):
    payload = {"lemma": dict(SMALL_LEMMA["lemma"], solver_q=[1.3, 1.6])}
    cfg = write_config(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["verify-lemma", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert main(["verify-lemma", "--config", cfg, "--out", out, "--exploratory"]) == EXIT_OK
    rows = read_rows(os.path.join(out, LEMMA_CSV))
    flags = {float(r[2]): r[-2] for r in rows[1:] if float(r[0]) == 0.5}
    assert flags[1.6] == "true"
    assert flags[1.3] == "false"


def _lemma_failure(tmp_path, capsys, payload):
    code = main(["verify-lemma", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "run")])
    summary = json.loads((tmp_path / "run" / LEMMA_SUMMARY).read_text())
    return code, summary, capsys.readouterr().err.strip().splitlines()


def test_lemma_trend_failure_is_named(tmp_path, capsys):
    # an increasing trend_q list: p - 1 grows along it
    code, summary, err = _lemma_failure(tmp_path, capsys, {"lemma": {"trend_q": [1.01, 1.1]}})
    assert code == EXIT_CLAIM_FAILED
    assert summary["trend_ok"] is False and summary["boundary_ok"] is True
    assert len(err) == 1 and err[0].startswith("FAIL") and "trend_q=[1.01, 1.1]" in err[0]


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
    derivative = focklab.lemma.norm_ratio_log_derivative
    monkeypatch.setattr(
        focklab.lemma, "norm_ratio_log_derivative", lambda *args: derivative(*args) + shift
    )
    code, summary, err = _lemma_failure(tmp_path, capsys, SMALL_LEMMA)
    assert code == EXIT_CLAIM_FAILED
    residual = summary["grid"]["fd_max_residual"]
    assert summary["grid"]["all_hold"] is False and not residual <= FD_TOL
    assert all(m["min_margin"] > 0.0 for m in summary["grid"]["margins"].values())
    assert err == [f"FAIL lemma fd residual {residual:.3e} not within FD_TOL 1e-06"]


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


def test_trend_order_next_to_one_fails_the_claim(tmp_path, capsys):
    # q passes the config's q > 1 rule, but the solver's bracket
    # (1 + 1e-9, q - 1e-9) is empty there: p - 1 is NaN, not an input error
    payload = {"lemma": dict(SMALL_LEMMA["lemma"], trend_q=[1.1, 1.000000000001])}
    code, summary, err = _lemma_failure(tmp_path, capsys, payload)
    assert code == EXIT_CLAIM_FAILED
    assert summary["trend_ok"] is False
    assert err == ["FAIL p-1 does not decrease along trend_q=[1.1, 1.000000000001]"]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("verify-lemma", {"lemma": dict(SMALL_LEMMA["lemma"], probe_gain=1000.0)}),
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
    # gain 1000 sizes d_out in the tens of thousands; the probe's and the
    # trial warm-up's band completion refuse it before allocating
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


@pytest.mark.parametrize(
    "command, payload",
    [
        # an attenuator band 0 of 322,379 x 322,379 levels (774 GiB of int64)
        ("verify-thermal-laws", {"thermal": {"input_energies": [1e4]}}),
        # 2 -> 32,236,176 levels, after a lgamma table of as many floats
        ("verify-thermal-laws", {"thermal": {"gains": [1e6]}}),
        # 30 -> 3,223,665 levels (738 MiB of int64)
        ("verify-thermal-laws", {"thermal": {"env_energies": [1e5]}}),
        # the equality rows walk the same grid at cmoe.equality_input_energies
        ("verify-cmoe", {"cmoe": dict(TINY_CMOE, equality_input_energies=[1e4])}),
        ("verify-cmoe", {"thermal": {"gains": [1e6]}, "cmoe": TINY_CMOE}),
        ("verify-cmoe", {"thermal": {"env_energies": [1e5]}, "cmoe": TINY_CMOE}),
    ],
    ids=["input-energy", "gain", "env-energy", "cmoe-input-energy", "cmoe-gain", "cmoe-env-energy"],
)
def test_oversized_band_zero_exits_two_before_it_allocates(tmp_path, command, payload):
    # each config runs in a child under an address-space cap and a
    # timeout, so a build that does allocate fails there and not here
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
    err = proc.stderr.strip().splitlines()
    assert proc.returncode == EXIT_CONFIG, proc.stderr[-2000:]
    assert len(err) == 1
    assert err[0].startswith("input error: ResourceLimitError: band 0 of the ")
    assert err[0].endswith(" exceeds limit 512 MiB")


def test_probe_ceiling_reaches_the_vacuum_near_gain_one(tmp_path, capsys):
    # at gain 1 + 1e-7 the thermal ratio is largest at z = 0 (-9.97e-8);
    # a ceiling scanned from z = 1/2001 on read -2.96e-5, below the best
    # random trial (-8.04e-7), and the probe failed a claim that holds
    payload = {"lemma": dict(SMALL_LEMMA["lemma"], probe_gain=1.0000001)}
    for key in ("probe_cutoff", "probe_trials"):
        del payload["lemma"][key]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "r"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    probe = json.loads((out / LEMMA_SUMMARY).read_text())["probe"]
    assert probe["thermal_log_ceiling"] >= focklab.lemma.log_thermal_norm_ratio(0.0, 1.0000001, 1.2, 1.35)
    assert probe["best_trial_log_ratio"] < probe["thermal_log_ceiling"]


def test_dense_probe_over_the_byte_limit_exits_two(tmp_path, capsys):
    # 500 levels at gain 2: d_out 1,207 passes MAX_DENSE_D_OUT, but the
    # dense path would need 1,187 MiB
    cfg = write_config(tmp_path, {"lemma": dict(SMALL_LEMMA["lemma"], probe_cutoff=500)})
    assert main(["verify-lemma", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["input error: ResourceLimitError: dense 500 -> 1207 level map needs 1187 MiB,"
                   " exceeds limit 512 MiB"]


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
        ("verify-thermal-laws", {"thermal": {"tolerance": 10**400}}, "thermal.tolerance"),
        ("verify-thermal-laws", {"thermal": 5}, "'thermal'"),
        ("verify-lemma", {"lemma": []}, "'lemma'"),
        ("verify-lemma", {"lemma": {"grid_gains": []}}, "lemma.grid_gains"),
        ("verify-lemma", {"lemma": {"grid_order_points": 1}}, "lemma.grid_order_points"),
        ("verify-lemma", {"lemma": {"solver_z": []}}, "lemma.solver_z"),
        ("verify-lemma", {"lemma": {"trend_q": [1.1]}}, "lemma.trend_q"),
        ("verify-cmoe", {"cmoe": {"equality_input_energies": []}}, "cmoe.equality_input_energies"),
        ("verify-cmoe", {"cmoe": {"cutoffs": []}}, "cmoe.cutoffs"),
    ],
)
def test_mistyped_config_value_exits_two(tmp_path, capsys, command, payload, where):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and where in err[0]


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
    expected = tmp_path / "expected.json"
    # equality rows, then trial rows in draw order, then the search's row
    dumped = equality + [(channel, state) for state in drawn + searched]
    assert len(dumped) == len(paths)
    for path, (channel, state), row in zip(paths, dumped, rows):
        dense = state if hasattr(state, "matrix") else state.to_density()
        write_counterexample(expected, dense, seed, channel)
        with open(path, "rb") as fh:
            assert fh.read() == expected.read_bytes()
        with open(path) as fh:
            rho, got_seed, spec = state_from_json(json.load(fh))
        assert np.array_equal(rho.matrix, dense.matrix) and got_seed == seed
        assert spec == channel
        assert [spec.kind.value, fmt(spec.parameter), fmt(spec.env_energy)] == row[1:4]
        assert f"FAIL violation candidate recorded at {path}" in err


def test_maps_hold_only_the_bands_their_callers_read(tmp_path, monkeypatch):
    # verify-thermal-laws reads only the transition matrix of each map
    channel_maps.clear_caches()
    assert main(["verify-thermal-laws", "--out", str(tmp_path / "thermal")]) == EXIT_OK
    assert channel_maps._map_cache
    assert all(len(cmap.bands) == 1 for cmap in channel_maps._map_cache.values())
    # verify-cmoe completes every trial map before the pool forks
    channel_maps.clear_caches()
    section = TWO_CHANNEL_CMOE["cmoe"]
    specs = [cli.parse_channel(entry) for entry in section["channels"]]
    run_tasks, seen = cli._run_tasks, []

    def checking_run_tasks(jobs, tasks):
        for spec in specs:
            for cutoff in section["cutoffs"]:
                cmap = channel_maps.get_channel_map(spec, cutoff)
                seen.append(len(cmap.bands) == min(cmap.d_in, cmap.d_out))
        return run_tasks(jobs, tasks)

    monkeypatch.setattr(cli, "_run_tasks", checking_run_tasks)
    cfg = write_config(tmp_path, TWO_CHANNEL_CMOE)
    out = str(tmp_path / "cmoe")
    assert main(["verify-cmoe", "--config", cfg, "--jobs", "2", "--out", out]) == EXIT_OK
    assert seen and all(seen)
    channel_maps.clear_caches()


def _blas_threads(_=None):
    return [get() for get, _ in linalg._loaded_openblas().values()]


def test_commands_run_blas_on_one_thread_and_restore(tmp_path, monkeypatch, blas_controls):
    controls = blas_controls
    saved = [get() for get, _ in controls]
    seen = []

    def recording(cfg, exploratory):
        seen.append(_blas_threads())
        return EXIT_OK

    def refusing(cfg, exploratory):
        raise ConfigError("refused")

    def crashing(cfg, exploratory):
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


def _run_script(script, *args):
    """Run a Python script in a fresh interpreter on this focklab and tests/; its stdout as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    paths = [src, os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
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
import importlib.util, json, sys
from focklab import linalg, sampling
from focklab.channels import amplifier

def counts():
    return {path: get() for path, (get, _) in linalg._loaded_openblas().items()}

def all_to_two():
    for _, put in linalg._loaded_openblas().values():
        put(2)
    return counts()

kernel, check, seen = linalg._expm_kernel, sampling.check_cmoe, []

def loading():
    # the kernel's OpenBLAS maps here; give it a count the search must undo
    module = kernel()
    before.update(all_to_two())
    return module

def recording(spec, state):
    seen.append(counts())
    return check(spec, state)

before = all_to_two()
linalg._expm_kernel, sampling.check_cmoe = loading, recording
sampling.adversarial_search(amplifier(1.5, 0.1), 0.8, 10, 8, seed=5)
print(json.dumps({
    "before": before,
    "seen": seen,
    "after": counts(),
    "scipy_linalg": "scipy.linalg" in sys.modules,
    "scipy_dir": importlib.util.find_spec("scipy").submodule_search_locations[0],
}))
"""


def test_first_library_search_pins_the_blas_it_loads():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts with one thread on one core")
    got = _run_script(LIBRARY_SEARCH_BLAS)
    if not got["before"]:
        pytest.skip("no OpenBLAS loaded")
    if not any(p.startswith(got["scipy_dir"]) for p in got["before"]):
        pytest.skip("scipy brings no OpenBLAS of its own")
    assert not got["scipy_linalg"]
    assert len(got["seen"]) > 1
    assert all(c == {p: 1 for p in got["before"]} for c in got["seen"])
    assert got["after"] == got["before"] == {p: 2 for p in got["before"]}
