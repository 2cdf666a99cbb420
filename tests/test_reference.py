"""The benchmark's command-line workloads replayed against their reference tables.

perfbench/reference/ holds the CSVs that the benchmark's gate compares
every run with, cell by cell.  Replaying the same commands here makes a
drifted cell fail the test suite before the benchmark refuses it.
"""

import importlib.util
import json
import os

import pytest

from focklab.cli import CMOE_CSV, EXIT_OK, LEMMA_CSV, THERMAL_CSV, main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SEED = 20260823

# the cmoe-cli workload's config, copied from WORKLOADS in perfbench/run.py;
# importing run.py would remove the BLAS thread variables from os.environ
CMOE_CLI_CONFIG = {
    "cmoe": {
        "trials_per_channel": 500,
        "adversarial_searches": 1,
        "equality_input_energies": [0.0, 1.0],
    }
}


def _load_gate():
    path = os.path.join(PERFBENCH, "gate.py")
    spec = importlib.util.spec_from_file_location("perfbench_gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


gate = _load_gate()


@pytest.mark.parametrize(
    "workload, argv, config, csv_name, seeded",
    [
        ("thermal-laws", ["verify-thermal-laws", "--jobs", "1"], {}, THERMAL_CSV, False),
        ("cmoe-cli", ["verify-cmoe", "--jobs", "2"], CMOE_CLI_CONFIG, CMOE_CSV, True),
        ("lemma", ["verify-lemma", "--jobs", "1"], {}, LEMMA_CSV, True),
    ],
)
def test_workload_matches_benchmark_reference(tmp_path, workload, argv, config, csv_name, seeded):
    out = tmp_path / "run"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = argv + ["--seed", str(SEED), "--config", str(config_path), "--out", str(out)]
    assert main(argv) == EXIT_OK
    table = gate.read_csv(str(out / csv_name))
    reference = gate.read_csv(gate.reference_path(workload, SEED, seeded))
    assert gate.compare_to_reference(table, reference) == []


def test_gate_self_test_passes(capsys):
    # the gate must still fail a flipped verdict, a gap moved by 1e-9 and
    # a dropped row; a loosened gate fails here
    assert gate.self_test()
    assert capsys.readouterr().out.splitlines()[-1] == "gate self-test OK"
