"""Tests of the benchmark itself: gate, trace sanity, guards and manifest.

    python3 -m pytest perfbench -q      # from the repository root; about 3 minutes

The trace-sanity tests run each workload's commands traced twice, so they are
slow; they are kept out of the package's own test suite.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from fourtops import cli  # noqa: E402
from fourtops.poset import Poset, sieves_on  # noqa: E402

CONFIG = run.load_config()
GOLDEN = HERE.parent / "tests" / "golden"
STAR = "2cg p=2 q=2 cross { 2_ > _1 }"


def cli_json(argv: list) -> dict:
    out = io.StringIO()
    assert cli.main(argv, out=out) == 0
    return json.loads(out.getvalue())


class TestGate:
    """The gate, checked read-only against the package's golden files."""

    def test_sweep_golden_passes(self):
        data = json.loads((GOLDEN / "sweep_1_1.json").read_text())
        assert run.check_sweep(data, 6) is None

    def test_sweep_gate_catches_a_bad_instance(self):
        data = json.loads((GOLDEN / "sweep_1_1.json").read_text())
        assert run.check_sweep(data, 76) is not None
        bad = copy.deepcopy(data)
        bad["result"]["instances"][3]["census"]["lts"] = False
        assert run.check_sweep(bad, 6) is not None
        bad = copy.deepcopy(data)
        bad["result"]["instances"][5]["expected_count"] += 1
        assert run.check_sweep(bad, 6) is not None

    def test_census_golden_passes(self):
        data = json.loads((GOLDEN / "enumerate_nuclei_oracle_star.json").read_text())
        formula = cli_json(["enumerate", "nuclei", "--mode", "formula", "--json", "-t", STAR])
        reference = {run.canonical(i) for i in formula["result"]["items"]}
        assert run.check_census(data, 4, reference) is None

    def test_census_gate_catches_a_wrong_set(self):
        data = json.loads((GOLDEN / "enumerate_nuclei_oracle_star.json").read_text())
        formula = cli_json(["enumerate", "nuclei", "--mode", "formula", "--json", "-t", STAR])
        reference = {run.canonical(i) for i in formula["result"]["items"]}
        assert run.check_census(data, 5, reference) is not None
        assert run.check_census(data, 4, None) is not None
        assert run.check_census(data, 4, set(list(reference)[1:]) | {"{}"}) is not None

    def test_gate_checks_exit_code_and_digest(self):
        cmd = run.build_commands(CONFIG, ["sweep-2x2"], 0)[0]
        golden = (GOLDEN / "sweep_1_1.json").read_bytes()
        assert run.gate(cmd, 1, golden, None) == "exit code 1"
        assert run.gate(cmd, None, golden, None) is not None
        assert run.gate(cmd, 0, golden, None) == "stdout digest changed"
        unpinned = run.Command(cmd.workload, cmd.name, cmd.argv, cmd.gate, 0, None)
        assert run.gate(unpinned, 0, golden, None) == "6 instances, expected 76"


class TestSeeds:
    def test_seed_zero_keeps_configured_order_and_pins_every_digest(self):
        commands = run.build_commands(CONFIG, list(CONFIG["workloads"]), 0)
        configured = [(w, c["name"]) for w, wl in CONFIG["workloads"].items() for c in wl["commands"]]
        assert [(c.workload, c.name) for c in commands] == configured
        assert all(c.sha256 for c in commands)
        assert "points: a b c d e f ;" in commands[2].argv[-1]

    def test_other_seeds_permute_census_points_and_are_repeatable(self):
        a = run.build_commands(CONFIG, ["census-oracle"], 11)
        assert a == run.build_commands(CONFIG, ["census-oracle"], 11)
        assert all(c.sha256 is None for c in a)
        assert {c.name for c in a} == {c["name"] for c in CONFIG["workloads"]["census-oracle"]["commands"]}
        fan = next(c for c in a if c.name == "lttops/fan6")
        assert fan.points == 6
        original = {c.name: c.argv for c in run.build_commands(CONFIG, ["census-oracle"], 0)}
        assert any(c.argv != original[c.name] for c in a)
        sweep = run.build_commands(CONFIG, ["sweep-2x2"], 11)[0]
        assert sweep.sha256 == CONFIG["workloads"]["sweep-2x2"]["commands"][0]["sha256"]


class TestGuards:
    def test_address_space_limit_fails_the_child(self):
        child = run.spawn([sys.executable, "-c", "bytearray(2 << 30)"], 30, 256)
        assert child.rc not in (0, None)
        assert b"MemoryError" in child.stderr

    def test_wall_time_limit_kills_the_child(self):
        child = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], 0.5, 256)
        assert child.rc is None
        assert child.wall_s < 10

    @pytest.mark.parametrize("entry", CONFIG["never_run"], ids=lambda e: str(e["sieves_at_top"]))
    def test_never_run_arithmetic(self, entry):
        poset = Poset(entry["poset"]["points"], [tuple(a) for a in entry["poset"]["arrows"]])
        assert len(sieves_on(poset, "f")) == entry["sieves_at_top"]
        families = 2 ** (entry["sieves_at_top"] - 1)
        assert f"= {families} frozensets" in entry["arithmetic"]


def test_manifest_is_derived_from_config():
    assert json.loads(run.MANIFEST_PATH.read_text()) == run.manifest(CONFIG)


@pytest.mark.parametrize("workload", list(CONFIG["workloads"]))
def test_trace_sanity(workload):
    """Traced and untraced outputs pass the gate with the pinned digests, and
    every exact count repeats across two traced runs."""
    bench = run.Run(CONFIG, [workload], 0)
    bench.prepare()
    first = bench.traced_round(0)[workload]
    second = bench.traced_round(1)[workload]
    assert bench.failed[workload] == 0
    exact = [m["name"] for m in CONFIG["per_layer"] if m["unit"] in ("count", "ratio")]
    exact.remove("trace.overhead_ratio")
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    if workload == "sweep-2x2":
        assert first["cli.sweep_reuse_ratio"] == pytest.approx(36 / 76)

