"""Benchmark of the ``portsim`` command line, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs as a user runs it: a fresh interpreter per command, one
command at a time, with ``src`` of the checkout on ``PYTHONPATH`` (see
``child.py``). A pass runs the workload's fixed command list; passes repeat
until the next one would end after ``--seconds``. Every command's output is
checked against closed forms (``checks.py``) and must be byte-identical in
every pass.

With ``--trace 0`` the metrics are the end-to-end ones: median set-up time
per command, and per-command medians over the passes for everything else,
all scaled to a nominal machine speed. With ``--trace 1`` traced and
untraced passes alternate and the metrics are the per-layer ones from the
traced passes. ``NOTES.md`` says why each workload exists, which metric each
layer should move and why times are scaled.

The second-to-last line of stdout records the seed, the machine, the
metrics of the command families the workload runs, and the raw per-command
medians; the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from child import LAYERS

ROOT = Path.cwd()
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().with_name("child.py")
KINDS = ("dpbt", "dpbt-opt", "ppbt-mes", "ppbt-opt")
COMMAND_TIMEOUT_S = 120
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
# Median calibration time (child.calibrate) that times are scaled to: about
# what it takes on a quiet 2-CPU x86-64 host.
NOMINAL_CALIBRATION_S = 0.09

WORKLOADS = ("sample-wide", "sample-deep", "exact")

# Per-layer metrics and their units. Counts and computed bytes must repeat
# exactly between traced passes of the same code.
PER_LAYER = {
    "circuit.self_s": "s",
    "circuit.op_applies": "count",
    "circuit.batch_columns": "count",
    "circuit.bytes_touched": "bytes",
    "circuit.peak_state_mb": "MB",
    "circuit.oaa_rounds": "count",
    "circuit.SubspaceBlocks.self_s": "s",
    "circuit.DenseSystem.self_s": "s",
    "circuit.PortCswap.self_s": "s",
    "circuit.RegisterProjector.self_s": "s",
    "protocols.self_s": "s",
    "protocols.compile_s": "s",
    "protocols.compile_calls": "count",
    "protocols.batch_calls": "count",
    "povm_analytic.self_s": "s",
    "povm_analytic.entries_assembled": "count",
    "schur.self_s": "s",
    "schur.vectors_built": "count",
    "povm_oracle.self_s": "s",
    "povm_oracle.dense_bytes": "bytes",
    "spinalg.self_s": "s",
    "spinalg.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
# Counters that hook public boundaries, so a workload that should drive them
# must record a nonzero value.
REQUIRED_COUNTS = {
    "sample-wide": ("circuit.op_applies", "circuit.batch_columns",
                    "circuit.oaa_rounds", "protocols.batch_calls"),
    "sample-deep": ("circuit.op_applies", "circuit.batch_columns",
                    "circuit.oaa_rounds", "protocols.batch_calls"),
    "exact": ("povm_oracle.dense_bytes", "protocols.compile_calls"),
}


@dataclass(frozen=True)
class Command:
    family: str
    argv: tuple[str, ...]
    check: Callable[[bytes], list[str]]
    trials: int = 0


def teleport(kind: str, n: int, trials: int, seed: int) -> Command:
    argv = ("teleport", "--regime", kind, "--ports", str(n), "--trials", str(trials),
            "--seed", str(seed), "--format", "json")
    return Command("teleport", argv,
                   lambda out: checks.check_teleport(out, kind, n, trials, seed), trials)


def table(metric: str, lo: int, hi: int) -> Command:
    argv = ("table", "--metric", metric, "--ports", f"{lo}..{hi}", "--format", "json")
    return Command("table", argv, lambda out: checks.check_table(out, metric, lo, hi))


def povm_check(lo: int, hi: int) -> Command:
    argv = ("povm-check", "--regime", "all", "--ports", f"{lo}..{hi}")
    suites = 3 * (hi - lo + 1)
    return Command("povm-check", argv, lambda out: checks.check_povm(out, suites))


def command_seeds(workload: str, seed: int):
    """Per-command PCG64 seeds, a pure function of the workload seed."""
    index = 0
    while True:
        digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
        yield int.from_bytes(digest[:4], "big")
        index += 1


def build_workload(name: str, seed: int) -> list[Command]:
    """The workload's fixed command list; NOTES.md says why each exists."""
    seeds = command_seeds(name, seed)
    if name == "sample-wide":
        return [teleport(kind, n, 10_000, next(seeds)) for n in (1, 2) for kind in KINDS]
    if name == "sample-deep":
        return [teleport(kind, n, trials, next(seeds))
                for n, trials in ((5, 20), (6, 10)) for kind in KINDS]
    return [table(metric, 1, 6) for metric in ("fidelity", "success", "resources")] \
        + [povm_check(1, 5)]


@dataclass
class Outcome:
    setup_s: float
    time_s: float
    rss_kb: int
    out_bytes: int
    calibration_s: float
    layers: dict | None


@dataclass
class Runner:
    """Runs commands, checks their outputs and keeps every outcome."""

    env: dict
    outcomes: dict[int, list[Outcome]] = field(default_factory=dict)
    digests: dict[tuple, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def run(self, key: int, cmd: Command, traced: bool) -> None:
        self.attempted += 1
        found = self._run(cmd, traced)
        if isinstance(found, str):
            self.failed += 1
            self.problems.append(f"portsim {' '.join(cmd.argv)}: {found}")
        else:
            self.outcomes.setdefault(key, []).append(found)

    def _run(self, cmd: Command, traced: bool) -> Outcome | str:
        read_fd, write_fd = os.pipe()
        spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(write_fd), "1" if traced else "0",
                 *cmd.argv],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        try:
            out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            os.close(read_fd)
            return f"no result within {COMMAND_TIMEOUT_S} s"
        with os.fdopen(read_fd) as source:
            raw = source.read()
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {err.decode(errors='replace')[-400:]}"
        if err:
            return f"wrote to stderr: {err.decode(errors='replace')[-400:]}"
        try:
            record = json.loads(raw)
        except ValueError:
            return "no timing record"
        if not Path(record["src"]).resolve().is_relative_to(SRC.resolve()):
            return f"imported portsim from {record['src']}, not from {SRC}"
        digest = hashlib.sha256(out).hexdigest()
        if cmd.argv not in self.digests:
            found = cmd.check(out)
            if found:
                return "; ".join(found[:5])
            self.digests[cmd.argv] = digest
        elif self.digests[cmd.argv] != digest:
            return "output differs from an earlier run of the same command"
        return Outcome(setup_s=(record["ready_ns"] - spawn) / 1e9,
                       time_s=(record["done_ns"] - record["start_ns"]) / 1e9,
                       rss_kb=record["maxrss_kb"], out_bytes=len(out),
                       calibration_s=record["calibration_s"],
                       layers=record.get("layers"))

    def median(self, key: int, attr: str) -> float:
        return statistics.median(getattr(o, attr) for o in self.outcomes[key])

    def speed(self) -> float:
        """Nominal over measured calibration time: above 1 on a fast machine."""
        return NOMINAL_CALIBRATION_S / statistics.median(
            o.calibration_s for results in self.outcomes.values() for o in results)


def run_passes(runner: Runner, commands: list[Command], schedule, seconds: float,
               minimum: int) -> int:
    """Run passes with the traced flags `schedule` yields until `minimum`
    passes are done and the next would end after `seconds`. Traced outcomes
    are keyed after the untraced ones."""
    begin = time.monotonic()
    done = 0
    for traced in schedule:
        for key, cmd in enumerate(commands):
            runner.run(key + (len(commands) if traced else 0), cmd, traced)
        done += 1
        elapsed = time.monotonic() - begin
        if done >= minimum and elapsed + elapsed / done > seconds:
            break
    return done


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, commands: list[Command]) -> tuple[dict, dict]:
    """The bounded metrics, and the metrics of each command family, which
    only the workloads running that family have (None elsewhere). Times are
    per-command medians scaled to the nominal machine speed."""
    speed = runner.speed()

    def command_time(family: str | None = None) -> float | None:
        keys = [k for k, c in enumerate(commands) if family in (None, c.family)]
        return sum(runner.median(k, "time_s") for k in keys) * speed if keys else None

    setups = [o.setup_s for results in runner.outcomes.values() for o in results]
    bounded = {
        "setup_s": _metric(statistics.median(setups) * speed, "s"),
        "wall_s": _metric(command_time(), "s"),
        "peak_rss_mb": _metric(max(runner.median(k, "rss_kb") for k in runner.outcomes)
                               / 1024, "MB"),
    }
    teleport_s = command_time("teleport")
    trials = sum(c.trials for c in commands)
    family = {
        "trials_per_s": _metric(trials / teleport_s if teleport_s else None, "1/s"),
        "table_s": _metric(command_time("table"), "s"),
        "check_s": _metric(command_time("povm-check"), "s"),
    }
    return bounded, family


def per_layer(runner: Runner, workload: str, commands: list[Command]) -> dict:
    """Per-layer medians over the traced passes, times scaled like the
    end-to-end ones; counts must repeat exactly."""
    n = len(commands)
    passes = []
    for index in range(len(runner.outcomes[n])):
        total: dict[str, float] = {"cli.output_bytes": 0}
        for key in range(n, 2 * n):
            outcome = runner.outcomes[key][index]
            total["cli.output_bytes"] += outcome.out_bytes
            for name, value in outcome.layers.items():
                if name == "circuit.peak_state_mb":
                    total[name] = max(total.get(name, 0.0), value)
                else:
                    total[name] = total.get(name, 0) + value
        passes.append(total)
    for name in passes[0]:
        if not name.endswith("_s") and len({p[name] for p in passes}) > 1:
            runner.problems.append(f"count {name} differs between traced passes: "
                                   f"{[p[name] for p in passes]}")
    for layer in LAYERS:
        if passes[0][f"{layer}.spans"] == 0:
            runner.problems.append(f"span coverage: layer {layer} recorded no spans "
                                   f"on {workload}")
    for name in REQUIRED_COUNTS[workload]:
        if passes[0][name] == 0:
            runner.problems.append(f"span coverage: {name} is 0 on {workload}")
    traced_wall = sum(runner.median(k, "time_s") for k in range(n, 2 * n))
    plain_wall = sum(runner.median(k, "time_s") for k in range(n))
    speed = runner.speed()
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = traced_wall / plain_wall
        else:
            value = statistics.median(p[name] for p in passes)
            if unit == "s":
                value *= speed
        metrics[name] = _metric(value, unit)
    return metrics


def machine() -> dict:
    import ctypes
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "loadavg": os.getloadavg()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "portsim" / "cli.py").is_file():
        print(f"error: no portsim sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine()}
    runner = Runner(dict(os.environ, PYTHONPATH=str(SRC)))
    commands = build_workload(args.workload, args.seed)
    metrics: dict = {}
    if args.trace:
        passes = run_passes(runner, commands, itertools.cycle((True, False)),
                            args.seconds, 2 * MIN_TRACED_PASSES - 1)
        if not runner.failed:
            metrics = per_layer(runner, args.workload, commands)
    else:
        passes = run_passes(runner, commands, itertools.repeat(False),
                            args.seconds, MIN_PASSES)
        if not runner.failed:
            metrics, info["family_metrics"] = end_to_end(runner, commands)
    info.update(passes=passes, attempted=runner.attempted, failed=runner.failed,
                failed_ratio=runner.failed / runner.attempted,
                speed=runner.speed() if runner.outcomes else None,
                commands=[{"argv": " ".join(c.argv),
                           "raw_time_s": runner.median(k, "time_s"),
                           "raw_setup_s": runner.median(k, "setup_s")}
                          for k, c in enumerate(commands) if k in runner.outcomes])
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
