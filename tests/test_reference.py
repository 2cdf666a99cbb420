"""The benchmark's tools run against the program.

perfbench/reference/ holds the CSVs that the benchmark's gate compares
every run with, cell by cell.  Replaying the same commands here makes a
drifted cell fail the test suite before the benchmark refuses it.  The
benchmark's tracer (perfbench/spans.py, behind run.py --trace 1) wraps
program functions by name, so a renamed one fails here too.
"""

import importlib
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


# names the tracer wraps that the program no longer has; their layers read zero
NOT_TRACED = {
    "focklab.channels.beamsplitter_unitary",
    "focklab.channels.squeezer_unitary",
    # the saturation probe applies band 0 alone, through apply_diagonal
    "focklab.lemma.apply_channel",
    "focklab.sampling.von_neumann_entropy",
}


def _load_perfbench(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_perfbench("gate")
spans = _load_perfbench("spans")


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


def test_tracer_wraps_every_name_it_still_finds():
    # the modules perfbench/run.py hands the tracer
    names = ("channels", "cli", "cmoe", "entropy", "lemma", "sampling", "states", "thermal")
    modules = {name: importlib.import_module(f"focklab.{name}") for name in names}
    channels = modules["channels"]
    spec, dims = channels.amplifier(2.0, 0.5), channels.ChannelDims(d_sys=30, d_env=30, d_out=30)
    channels.clear_caches()
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        built = [channels.get_channel_map(spec, 6), channels.get_channel_map(spec, 6, dims)]
    finally:
        tracer.uninstall()
        channels.clear_caches()
    assert set(tracer.missing) <= NOT_TRACED
    assert [span[4] for span in tracer.spans if span[0] == "channels.map_build"] == [
        {"miss": True, "map": id(cmap), "bytes": cmap.bands[0].nbytes, "d_out": d, "d_sys": d}
        for cmap, d in zip(built, (channels.default_dims(spec, 6).d_out, 30))
    ]
    assert not hasattr(channels.get_channel_map, "__wrapped__")  # uninstalled
