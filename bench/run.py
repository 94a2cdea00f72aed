"""kerramp benchmark runner.

    python3 bench/run.py --workload {lossy-strong,lossy-sweep,circuit-verify}
                         --seed N --seconds S --trace {0,1}

Run from the root of a kerramp source checkout; kerramp is imported from
``src/``, nothing is installed.  Each pass runs the workload's operations
once in a fresh interpreter (``bench/worker.py``), with BLAS pinned to one
thread.  Passes repeat while the next one still fits in ``--seconds``; at
least one always runs.

--trace 0 prints the end-to-end metrics: the median pass time, the median
start-up time and the median peak RSS.  Both times are corrected for the
host's speed, which every worker samples on its own core
(``bench/probe.py``).  Every worker times its own start-up; after the
last pass, workers with no operations fill the rest of --seconds so that
every run has several start-ups.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones, plus the tracing overhead.  Every operation's output passes
a correctness gate; a miss counts in ``failed``.  The last stdout line is the
JSON result; the full record, environment included, goes to ``.bench_out/``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

# Workers with no operations started after the last pass of a --trace 0 run,
# at the least; more fill the rest of --seconds.  Passes alone give too few
# start-ups: one or two passes fill a circuit-verify run.
MIN_STARTUPS = 5
# A run must end within 180 s; no worker outlives this point of the run.
RUN_DEADLINE_S = 170.0

# Failing checks of `kerramp verify` at its defaults on the commit that
# introduced this benchmark; more than this fails the gate.
SEED_RED_CHECKS = 3
# `kerramp lossy --theta1 1.5 --rs 0.1 --rk 0.1` fidelity on that commit.
STRONG_FIDELITY = 0.33671232

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Functions whose calls and self time are reported; see bench/README.md for
# the end-to-end metric each one should move.
TRACED_FUNCTIONS = (
    "fock.embed",
    "fock.expm",
    "fock.exp_i_hermitian",
    "fock.Operator.matmul",
    "fock.evolve",
    "fock.fidelity",
    "su11.solve_params",
    "su11.verify_identity",
    "circuits.compose",
    "circuits.squeeze_single",
    "circuits.squeeze_two_mode",
    "loss.apply_mode_loss",
    "cli.main",
)


def per_layer_units() -> dict:
    units = {}
    for name in TRACED_FUNCTIONS + LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "fock.expm.dim_cubed": "count",
            "loss.run_lossy_amplifier.calls": "count",
            "loss.run_lossy_amplifier.passes": "count",
            "loss.pass_yield": "ratio",
            "cli.verify.red_checks": "count",
            "trace.spans": "count",
            "trace.overhead_s": "s",
        }
    )
    return units


PER_LAYER = per_layer_units()


# --- workloads: each returns the op list the worker runs once per pass ---


def _lossy_op(label, flags, gate, via_config=False):
    flags = {k: repr(v) if isinstance(v, float) else v for k, v in flags.items()}
    argv = ["lossy", "--format", "json"]
    op = {"kind": "cli", "label": label, "gate": {"exit": [0], **gate}}
    if via_config:
        op.update(argv=argv, config=flags)
    else:
        op["argv"] = argv + [x for k, v in flags.items() for x in (f"--{k}", v)]
    return op


def lossy_strong(seed: int) -> list:
    flags = {"theta1": 1.5, "rs": 0.1, "rk": 0.1, "state": "plus-plus"}
    gate = {"target": STRONG_FIDELITY, "within": 1e-3}
    return [_lossy_op("strong theta1=1.5", flags, gate)]


# Acceptance criteria 2 and 3 at theta1 = delta = 0.5: (rk, rs) -> F.
ANCHORS = {
    "plus-plus": {(0.1, 0.1): 0.74, (0.1, 0.0): 0.82, (0.0, 0.1): 0.87, (0.2, 0.2): 0.59},
    "werner": {(0.1, 0.1): 0.89, (0.1, 0.0): 0.929, (0.0, 0.1): 0.941, (0.2, 0.2): 0.81},
}
LIMITS = {  # (R, state) -> (F, within)
    (0.0, "plus-plus"): (1.0, 1e-9),
    (0.0, "werner"): (1.0, 1e-9),
    (1.0, "plus-plus"): (0.25, 1e-6),
    (1.0, "werner"): (0.375, 1e-6),
}
SWEEP_POINTS = 40


def lossy_sweep(seed: int) -> list:
    ops = []
    for state, targets in ANCHORS.items():
        for (rk, rs), f in targets.items():
            flags = {"theta1": 0.5, "rs": rs, "rk": rk, "state": state}
            ops.append(
                _lossy_op(f"anchor {state} rk={rk} rs={rs}", flags, {"target": f, "within": 0.01})
            )
    for (r, state), (f, within) in LIMITS.items():
        flags = {"theta1": 0.5, "rs": r, "rk": r, "state": state}
        ops.append(_lossy_op(f"limit {state} R={r}", flags, {"target": f, "within": within}))
    # Latin hypercube over (theta1, rs, rk): every seed covers each stratum
    # once, so the cost of a pass barely depends on the seed.
    rng = random.Random(seed)
    strata = [rng.sample(range(SWEEP_POINTS), SWEEP_POINTS) for _ in range(3)]
    for i in range(SWEEP_POINTS):
        u = [(s[i] + rng.random()) / SWEEP_POINTS for s in strata]
        flags = {
            "theta1": 0.1 + 0.7 * u[0],
            "rs": 0.2 * u[1],
            "rk": 0.2 * u[2],
            "state": ("plus-plus", "werner")[i % 2],
        }
        ops.append(_lossy_op(f"drawn {i}", flags, {}, via_config=(i // 2) % 2 == 1))
    return ops


def circuit_verify(seed: int) -> list:
    return [
        {
            "kind": "cli",
            "label": "verify defaults",
            "argv": ["verify", "--format", "json"],
            "gate": {"exit": [0, 2], "max_red": SEED_RED_CHECKS},
        },
        {"kind": "three-mode", "label": "three-mode D=28 block 5", "dim": 28, "block": 5, "gate": {"tol": 1e-6}},
        {"kind": "swap", "label": "swap decomposition D=14", "dim": 14, "gate": {"tol": 1e-12}},
        {"kind": "two-mode", "label": "two-mode D=80 block 15", "dim": 80, "block": 15, "gate": {"tol": 1e-7}},
        {"kind": "fock-single", "label": "fock-single D=200 block 40", "dim": 200, "block": 40, "gate": {"tol": 1e-10}},
    ]


WORKLOADS = {
    "lossy-strong": lossy_strong,
    "lossy-sweep": lossy_sweep,
    "circuit-verify": circuit_verify,
}


# --- running passes ---


class WorkerError(RuntimeError):
    pass


def run_worker(spec: dict, deadline: float) -> dict:
    """Start one worker and return its result.

    The worker is killed, and the run fails, if it is still running at
    ``deadline`` (a time.perf_counter() value)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--spawned-at", repr(time.monotonic())]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=max(deadline - t0, 1.0),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker still running at the run deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"worker printed no result:\n{proc.stderr[-2000:]}") from exc


def run_passes(args, ops: list, deadline: float) -> tuple[list, list]:
    """Run passes while the next one fits in --seconds; return the pass
    results and the corrected start-up times of every worker the run
    started."""
    passes = []
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        kinds = {p["traced"] for p in passes}
        required = not passes or (args.trace and kinds != {True, False})
        now = time.perf_counter()
        if not required and (now - t_start + longest > args.seconds or now + longest > deadline):
            break
        spec = {
            "ops": ops,
            "trace": traced,
            "out_dir": str(OUT_DIR),
            "spans_path": str(
                OUT_DIR / f"spans-{args.workload}-seed{args.seed}-pass{len(passes)}.jsonl.gz"
            )
            if traced
            else None,
        }
        result = run_worker(spec, deadline)
        result["traced"] = traced
        passes.append(result)
        longest = max(longest, time.perf_counter() - now)

    setups = [p["setup_work_s"] for p in passes]
    if not args.trace:
        bare = {"ops": [], "trace": False, "out_dir": str(OUT_DIR), "spans_path": None}
        fill_until = min(t_start + args.seconds, deadline - 10.0)
        while len(setups) < len(passes) + MIN_STARTUPS or time.perf_counter() < fill_until:
            setups.append(run_worker(bare, deadline)["setup_work_s"])
    return passes, setups


# --- metrics ---


def end_to_end(passes: list, setups: list) -> dict:
    """Median start-up and median pass, each corrected for host speed: the
    host's throughput moves by 40% or more, and a plain median moves with
    the share of slow time in the run (bench/README.md, Noise)."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["work_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list) -> tuple[dict, list]:
    """Per-layer metrics of the traced passes, and any count mismatch."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    first = traced[0]["layers"]

    def layer_total(layers, layer, key):
        return sum(v[key] for k, v in layers.items() if k.startswith(layer + "."))

    def counts(layers):
        return {k: v["calls"] for k, v in layers.items()}

    problems = [
        f"call counts differ between traced passes 0 and {i}"
        for i, p in enumerate(traced[1:], 1)
        if counts(p["layers"]) != counts(first)
    ]
    m = {}
    for name in TRACED_FUNCTIONS:
        m[f"{name}.calls"] = first.get(name, {}).get("calls", 0)
        m[f"{name}.self_s"] = statistics.median(
            p["layers"].get(name, {}).get("self_s", 0.0) for p in traced
        )
    for layer in LAYERS:
        m[f"{layer}.calls"] = layer_total(first, layer, "calls")
        m[f"{layer}.self_s"] = float(
            statistics.median(layer_total(p["layers"], layer, "self_s") for p in traced)
        )
    passes_run = first.get("loss.run_lossy_amplifier.pass", {}).get("calls", 0)
    m["fock.expm.dim_cubed"] = traced[0]["expm_dim_cubed"]
    m["loss.run_lossy_amplifier.calls"] = first.get("loss.run_lossy_amplifier", {}).get("calls", 0)
    m["loss.run_lossy_amplifier.passes"] = passes_run
    m["loss.pass_yield"] = traced[0]["converged_runs"] / passes_run if passes_run else 0.0
    m["cli.verify.red_checks"] = sum(op.get("red_checks", 0) for op in traced[0]["ops"])
    m["trace.spans"] = traced[0]["spans"]
    m["trace.overhead_s"] = statistics.median(p["work_s"] for p in traced) - statistics.median(
        p["work_s"] for p in untraced
    )
    return m, problems


# --- environment record ---


def git_commit() -> str | None:
    """HEAD commit, or None outside a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(worker_env: dict) -> dict:
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        **worker_env,
    }


# --- main ---


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="kerramp benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kerramp" / "__init__.py").is_file():
        print(f"error: no kerramp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    ops = WORKLOADS[args.workload](args.seed)
    try:
        passes, setups = run_passes(args, ops, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = []
    if args.trace:
        metrics, problems = per_layer(passes)
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, setups)
        units = END_TO_END
    op_records = [op for p in passes for op in p["ops"]]
    failed = [op for op in op_records if op["errors"]]
    env = environment(passes[0]["env"])

    for key, value in env.items():
        print(f"# env {key}: {value}")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
        f"{len(op_records)} ops, pass walls "
        + ", ".join(f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in passes)
    )
    for op in failed[:10]:
        print(f"# FAILED {op['label']}: {'; '.join(op['errors'])[:300]}")
    for message in problems:
        print(f"# FAILED {message}")
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")

    result = {
        "correct": not failed and not problems,
        "attempted": len(op_records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "args": vars(args),
        "env": env,
        "setup_s": setups,
        "passes": [{k: v for k, v in p.items() if k != "env"} for p in passes],
        "problems": problems,
        "result": result,
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
