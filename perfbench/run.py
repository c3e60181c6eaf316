"""End-to-end and per-layer benchmark of the fourtops CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-2x2 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --report        # every workload and metric; rewrites BENCHMARK.json

Each CLI command runs in a fresh child (``python -m fourtops.cli`` with ``src``
on ``PYTHONPATH``) under a wall-time limit and an address-space rlimit, one
child at a time (a closed loop with one client). Rounds repeat until
``--seconds`` have passed; a round runs every command of the selected
workloads once, in an order fixed by the seed, so repetitions of one command
are never back to back. While each timed child runs, a thread of this process
times a short pure-Python probe every 50 ms (about 3% of one core); the probe
times are recorded with the round, so a step in host speed shows in the
results rather than passing as a regression, and ``verdict_norm`` divides each
command's wall time by them. Set-up time is ``import fourtops.cli`` in a fresh
interpreter, timed back to back with a fixed stdlib import whose ratio to it
holds steady across host speed steps. Every output passes the verdict gate
(exit code, pinned digest, known answer) before it counts; any miss is a
failure.

With ``--trace 1`` each command instead runs in process through
``perfbench/inproc.py``, once untraced and once traced, and the per-layer
metrics are printed. The workloads, the known answers, the pinned digests, the
limits and the metric definitions live in ``perfbench/config.json``; the
``BENCHMARK.json`` manifest is derived from it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from inproc import LAYERS, SIZED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG_PATH = HERE / "config.json"
MANIFEST_PATH = ROOT / "BENCHMARK.json"
INPROC = HERE / "inproc.py"
LAYER_NAMES = {"_kernels": "kernels"}  # metric names must start with a letter


def load_config() -> dict:
    return json.loads(CONFIG_PATH.read_text())


def manifest(config: dict) -> dict:
    """The BENCHMARK.json manifest, derived from the config."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": config["run_seconds"],
        "workloads": [{"name": n, "why": w["why"]} for n, w in config["workloads"].items()],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in config["end_to_end"]
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in config["per_layer"]],
    }


# -- commands ---------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    workload: str
    name: str
    argv: tuple  # fourtops CLI arguments
    gate: dict
    points: int  # |points| of the census poset, 0 elsewhere
    sha256: str | None  # pinned digest, None when the seed permutes the input

    def formula_argv(self) -> tuple:
        return tuple("formula" if a == "oracle" else a for a in self.argv)


def poset_text(points: list, arrows: list) -> str:
    return f"poset {{ points: {' '.join(points)} ; arrows: {' '.join(f'{u} > {v}' for u, v in arrows)} }}"


def build_commands(config: dict, workloads: list[str], seed: int) -> list[Command]:
    """The commands of one round, in round order.

    Seed 0 keeps the configured point order and command order, so the pinned
    digests apply to it; any other seed permutes the point order of each census
    poset and the command order, and is checked against known answers only.
    """
    rng = random.Random(seed)
    commands = []
    for wname in workloads:
        workload = config["workloads"][wname]
        posets = {}
        for pname, p in workload.get("posets", {}).items():
            points = list(p["points"])
            if seed:
                rng.shuffle(points)
            posets[pname] = (points, p["arrows"])
        for c in workload["commands"]:
            argv, points = list(c["argv"]), 0
            if "poset" in c:
                pts, arrows = posets[c["poset"]]
                argv += ["-t", poset_text(pts, arrows)]
                points = len(pts)
            pinned = c["sha256"] if seed == 0 or "poset" not in c else None
            commands.append(Command(wname, c["name"], tuple(argv), c["gate"], points, pinned))
    if seed:
        rng.shuffle(commands)
    return commands


# -- children ---------------------------------------------------------------------


@dataclass
class Child:
    rc: int | None  # None when killed by the wall-time limit
    wall_s: float
    stdout: bytes
    stderr: bytes
    rss_mb: float
    probe_s: list  # probe times sampled while the child ran; empty unless asked for


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list, timeout_s: float, address_space_mb: int, sample: bool = False) -> Child:
    """Run one child to completion, timing launch to exit.

    The address-space rlimit is set only in the child. A child still running
    after ``timeout_s`` is killed and reported with ``rc=None``. With
    ``sample``, the probe is timed every 50 ms until the child exits; the
    sampler starts after the fork and is joined before returning, so no other
    thread runs while a child is forked.
    """
    limit = address_space_mb * 1024 * 1024

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    errors: list = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=limit_memory,
    )
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout_s, 0.0), kill)
    timer.start()
    probes: list = []
    done = threading.Event()
    sampler = threading.Thread(target=sample_probe, args=(probes, done))
    if sample:
        sampler.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4 rather than Popen.wait: it also returns the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        done.set()
        if sample:
            sampler.join()
        timer.cancel()
        timer.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rc = None if killed.is_set() else proc.returncode
    return Child(rc, wall, out, errors[0] if errors else b"", usage.ru_maxrss / 1024, probes)


def cli_args(argv) -> list:
    return [sys.executable, "-m", "fourtops.cli", *argv]


# -- verdict gate -----------------------------------------------------------------


def canonical(item) -> str:
    return json.dumps(item, sort_keys=True)


def check_sweep(data: dict, instances: int) -> str | None:
    result = data["result"]
    found = result["instances"]
    if len(found) != instances:
        return f"{len(found)} instances, expected {instances}"
    for e in found:
        flags = [e["ok"], *e["census"].values(), *e["checks"].values()]
        if not all(v is True for v in flags):
            return f"instance p={e['p']} q={e['q']} cross={e['cross']} not ok"
        if e["expected_count"] != 2 ** (e["p"] + e["q"]):
            return f"instance p={e['p']} q={e['q']}: expected_count {e['expected_count']}"
    return None if result["ok"] is True else "sweep result not ok"


def check_axioms(data: dict, structures: int) -> str | None:
    found = data["result"]["instances"]
    passed = sum(all(v for v in e.values() if isinstance(v, bool)) for e in found)
    if len(found) != structures or passed != structures:
        return f"{passed}/{len(found)} pass, expected {structures}/{structures}"
    return None if data["result"]["ok"] is True else "axioms result not ok"


def check_census(data: dict, points: int, reference: set | None) -> str | None:
    count, items = data["result"]["count"], data["result"]["items"]
    if count != 2 ** points or len(items) != count:
        return f"count {count} with {len(items)} items, expected 2^{points}"
    if reference is None:
        return "no formula-mode reference"
    if {canonical(i) for i in items} != reference:
        return "oracle set differs from formula set"
    return None


def gate(cmd: Command, rc, stdout: bytes, reference: set | None) -> str | None:
    """None when the output is right, else the reason it is not."""
    if rc is None:
        return "killed at the wall-time limit"
    if rc != 0:
        return f"exit code {rc}"
    if cmd.sha256 is not None and hashlib.sha256(stdout).hexdigest() != cmd.sha256:
        return "stdout digest changed"
    try:
        data = json.loads(stdout)
        kind = cmd.gate["kind"]
        if kind == "sweep":
            return check_sweep(data, cmd.gate["instances"])
        if kind == "axioms":
            return check_axioms(data, cmd.gate["structures"])
        return check_census(data, cmd.points, reference)
    except (ValueError, KeyError, TypeError) as e:
        return f"malformed output: {e!r}"


# -- probe ------------------------------------------------------------------------


def probe() -> float:
    """Time a fixed dict/frozenset loop (1.4 ms on an idle 2.1 GHz Xeon core)."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(2000):
        k = (i * 7919) % 1021
        key = frozenset((k, k >> 1, k & 7))
        acc[key] = acc.get(key, 0) + 1
    return time.perf_counter() - t0


def sample_probe(out: list, done: threading.Event) -> None:
    """Append a probe time every 50 ms until ``done`` is set (at least once)."""
    while True:
        out.append(probe())
        if done.wait(0.05):
            return


# -- measurement ------------------------------------------------------------------


class Run:
    """One benchmark run: children, gate results and per-round records."""

    def __init__(self, config: dict, workloads: list[str], seed: int):
        self.config = config
        self.workloads = workloads
        self.commands = build_commands(config, workloads, seed)
        self.start = time.perf_counter()
        self.deadline = self.start + config["run_deadline_s"]
        self.attempted = {w: 0 for w in workloads}
        self.failed = {w: 0 for w in workloads}
        self.setup: list[tuple] = []  # (fourtops import, reference import) wall times
        self.references: dict = {}

    def child(self, args: list, sample: bool = False) -> Child:
        left = min(self.config["command_timeout_s"], self.deadline - time.perf_counter())
        return spawn(args, left, self.config["address_space_mb"], sample)

    def record(self, cmd: Command, rc, stdout: bytes, stderr: bytes = b"") -> bool:
        self.attempted[cmd.workload] += 1
        reason = gate(cmd, rc, stdout, self.references.get(cmd.formula_argv()))
        if reason is None:
            return True
        self.failed[cmd.workload] += 1
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        print(f"FAIL {cmd.workload} {cmd.name}: {reason} {' '.join(tail)}", file=sys.stderr)
        return False

    def environment(self, seed: int) -> dict:
        c = self.child([sys.executable, "-c", "import fourtops, fourtops.cli; print(fourtops.kernel_backend)"])
        return {
            "python": platform.python_version(),
            "kernel_backend": c.stdout.decode().strip() if c.rc == 0 else None,
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed,
            "workloads": self.workloads,
        }

    def sample_setup(self) -> None:
        """Time ``import fourtops.cli`` and, right after it, the stdlib reference import."""
        c = self.child([sys.executable, "-c", "import fourtops.cli"])
        ref = self.child([sys.executable, "-c", self.config["setup_reference"]["code"]])
        if c.rc == 0 and ref.rc == 0:
            self.setup.append((c.wall_s, ref.wall_s))

    def setup_metrics(self) -> dict:
        if not self.setup:  # every import failed, and so did every command
            return {"setup_s": 0.0, "import_s": 0.0}
        ref_s = self.config["setup_reference"]["seconds"]
        return {
            "setup_s": statistics.median(a / b for a, b in self.setup) * ref_s,
            "import_s": statistics.median(a for a, _ in self.setup),
        }

    def prepare(self) -> None:
        """Untimed: formula-mode references for the census, first set-up samples."""
        for cmd in self.commands:
            if cmd.gate["kind"] == "census" and cmd.formula_argv() not in self.references:
                c = self.child(cli_args(cmd.formula_argv()))
                try:
                    items = json.loads(c.stdout)["result"]["items"] if c.rc == 0 else None
                except (ValueError, KeyError, TypeError):
                    items = None  # the gate then fails every command that needs it
                if items is not None:
                    self.references[cmd.formula_argv()] = {canonical(i) for i in items}
        for _ in range(self.config["setup_samples"]):
            self.sample_setup()

    def rounds(self, seconds: float, body) -> list:
        """Repeat ``body`` until ``seconds`` have passed (at least once)."""
        records = []
        while True:
            records.append(body(len(records)))
            now = time.perf_counter()
            if now - self.start >= seconds or now >= self.deadline:
                return records

    def timed_round(self, index: int) -> dict:
        probes, walls, rss, ok = [], [], [], []
        for cmd in self.commands:
            self.sample_setup()
            c = self.child(cli_args(cmd.argv), sample=True)
            probes.append(statistics.mean(c.probe_s))
            walls.append(c.wall_s)
            rss.append(c.rss_mb)
            ok.append(self.record(cmd, c.rc, c.stdout, c.stderr))
        self.sample_setup()
        per = {}
        for w in self.workloads:
            idx = [i for i, cmd in enumerate(self.commands) if cmd.workload == w]
            per[w] = {
                "verdict_s": sum(walls[i] for i in idx),
                "verdict_norm": sum(walls[i] / probes[i] for i in idx),
                "peak_rss_mb": max(rss[i] for i in idx),
                "ok": all(ok[i] for i in idx),
            }
        record = {"round": index, "probe_s": probes, "wall_s": walls, "workloads": per}
        print(json.dumps(record))
        return record

    def traced_round(self, index: int) -> dict:
        per = {w: {"plain_s": 0.0, "traced": [], "instances": 0} for w in self.workloads}
        for cmd in self.commands:
            reports = {}
            for mode in ("plain", "trace"):
                c = self.child([sys.executable, str(INPROC), mode, *cmd.argv])
                report = json.loads(c.stdout) if c.rc == 0 else None
                stdout = report["stdout"].encode() if report else b""
                if self.record(cmd, report["rc"] if report else c.rc, stdout, c.stderr):
                    reports[mode] = report
            if len(reports) < 2:
                continue
            if reports["plain"]["stdout"] != reports["trace"]["stdout"]:
                self.attempted[cmd.workload] += 1
                self.failed[cmd.workload] += 1
                print(f"FAIL {cmd.workload} {cmd.name}: traced output differs", file=sys.stderr)
            w = per[cmd.workload]
            w["plain_s"] += reports["plain"]["inproc_s"]
            w["traced"].append(reports["trace"])
            if cmd.gate["kind"] == "sweep":
                w["instances"] += len(json.loads(reports["trace"]["stdout"])["result"]["instances"])
        record = {w: layer_metrics(v["traced"], v["plain_s"], v["instances"]) for w, v in per.items()}
        print(json.dumps({"round": index, "layers": record}))
        return record

    def result(self, workload: str, metrics: dict) -> dict:
        attempted, failed = self.attempted[workload], self.failed[workload]
        return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


# -- metrics ----------------------------------------------------------------------


def layer_metrics(traced: list[dict], plain_s: float, sweep_instances: int) -> dict:
    """Per-layer metrics of one workload's traced commands in one round."""
    calls: dict = {}
    self_s: dict = {}
    named_calls: dict = {}
    inclusive: dict = {}
    hits = misses = 0
    tables = 0
    traced_s = 0.0
    for report in traced:
        traced_s += report["inproc_s"]
        tables += sum(report["sizes"].get(name, 0) for name in SIZED)
        for info in report["cache"].values():
            hits += info["hits"]
            misses += info["misses"]
        for s in report["spans"]:
            layer = s["name"].split(":")[0]
            calls[layer] = calls.get(layer, 0) + s["calls"]
            self_s[layer] = self_s.get(layer, 0.0) + s["self_s"]
            bare = s["name"].split(":")[1]
            named_calls[bare] = named_calls.get(bare, 0) + s["calls"]
            # inclusive time counts outermost spans only
            if s["parent"].split(":")[-1].split("[")[0] != bare.split("[")[0]:
                inclusive[bare] = inclusive.get(bare, 0.0) + s["total_s"]

    def total(*names):
        return sum(inclusive.get(n, 0.0) for n in names)

    metrics = {}
    for layer in LAYERS:
        name = LAYER_NAMES.get(layer, layer)
        metrics[f"{name}.calls"] = calls.get(layer, 0)
        metrics[f"{name}.self_s"] = self_s.get(layer, 0.0)
    metrics.update({
        "poset.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "kernels.tables": tables,
        "presheaf.built": named_calls.get("Presheaf.__init__", 0),
        "presheaf.morphisms_built": named_calls.get("Morphism.__init__", 0),
        "classifier.chi_calls": named_calls.get("chi", 0),
        "topology.closure_calls": named_calls.get("closure_of", 0),
        "topology.universe_s": total("build_universe"),
        "convert.enum_s": total(*(f"enumerate_{f}[oracle]" for f in ("nuclei", "grotops", "lts"))),
        "convert.route_s": total(
            "check_truncation_route", "check_closure_route", "check_top_region_covers", "check_roundtrips"
        ),
        "cli.emit_s": total("emit_json"),
        "cli.sweep_reuse_ratio": (
            1 - named_calls.get("sweep_instance", 0) / sweep_instances if sweep_instances else 0.0
        ),
        "trace.overhead_ratio": traced_s / plain_s if plain_s else 0.0,
    })
    return metrics


def median_metrics(records: list[dict], names: list[str]) -> dict:
    return {n: statistics.median(r[n] for r in records) for n in names}


def measure(config: dict, workloads: list[str], seed: int, seconds: float, trace: bool) -> tuple:
    """Run the workloads; returns (run, environment, metrics by workload)."""
    run = Run(config, workloads, seed)
    env = run.environment(seed)
    print(json.dumps({"env": env}))
    run.prepare()
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["reported"] + config["per_layer"]}
    out = {}
    if trace:
        records = run.rounds(seconds, run.traced_round)
        for w in workloads:
            per = [r[w] for r in records]
            exact = [n for n, u in units.items() if u in ("count", "ratio") and n in per[0]]
            if any(r[n] != per[0][n] for r in per for n in exact if n != "trace.overhead_ratio"):
                run.attempted[w] += 1
                run.failed[w] += 1
                print(f"FAIL {w}: traced counts differ between rounds", file=sys.stderr)
            out[w] = median_metrics(per, [m["name"] for m in config["per_layer"]])
    else:
        records = run.rounds(seconds, run.timed_round)
        for w in workloads:
            out[w] = median_metrics([r["workloads"][w] for r in records], ["verdict_s", "verdict_norm", "peak_rss_mb"])
            out[w].update(run.setup_metrics())
    return run, env, {w: {n: {"value": v, "unit": units[n]} for n, v in m.items()} for w, m in out.items()}


def report(config: dict, seed: int, seconds: float) -> int:
    """Every workload, untraced then traced; prints every metric and writes the manifest."""
    names = list(config["workloads"])
    timed_run, env, timed = measure(config, names, seed, seconds, trace=False)
    traced_run, _, traced = measure(config, names, seed, 0, trace=True)
    print(f"\nenvironment: {json.dumps(env)}")
    for w in names:
        attempted = timed_run.attempted[w] + traced_run.attempted[w]
        failed = timed_run.failed[w] + traced_run.failed[w]
        print(f"\n[{w}] {failed} of {attempted} commands failed")
        for name, m in {**timed[w], **traced[w]}.items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"  {name:28s} {value:>14} {m['unit']}")
        print(f"  {'failed_ratio':28s} {failed / max(attempted, 1):>14.6g} ratio")
    print("\nrender: no workload calls it; stated, not measured")
    for entry in config["never_run"]:
        print(f"never run: {entry['command']} on {entry['name']}: {entry['arithmetic']}")
    MANIFEST_PATH.write_text(json.dumps(manifest(config), indent=2) + "\n")
    print(f"wrote {MANIFEST_PATH.name}")
    return 0


def main(argv=None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(config["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload and print every metric")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fourtops" / "cli.py").is_file():
        print(f"error: no fourtops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.report:
        return report(config, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --report")
    run, _, metrics = measure(config, [args.workload], args.seed, args.seconds, bool(args.trace))
    section = config["per_layer" if args.trace else "end_to_end"]
    chosen = {m["name"]: metrics[args.workload][m["name"]] for m in section}
    print(json.dumps(run.result(args.workload, chosen)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
