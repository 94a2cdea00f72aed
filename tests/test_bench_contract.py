"""The benchmark's calls into kerramp, on small layouts.

bench/worker.py builds the truncation-headroom circuits through kerramp's
public functions, runs the lossy workloads through the CLI with an observer
on loss.run_lossy_amplifier, and bench/tracer.py patches some of kerramp's
attributes by name.  A rename that breaks any of these, or a numerical
change that breaks a workload's gate, would otherwise show only when the
benchmark runs; these tests load the bench scripts by path and run the same
calls.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# set by bench/worker.py at import, before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# bench/run.py's headroom ops at these ladders instead of D = 28, 14, 80, 200
SMALL_DIMS = {"three-mode": 10, "swap": 6, "two-mode": 20, "fock-single": 40}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    """(worker, run) loaded from bench/; sys.path, the BLAS thread variables
    and the modules the scripts import from bench/ are restored afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    for var in BLAS_THREAD_VARS:  # records the value the worker overwrites
        monkeypatch.setenv(var, "1")
    before = set(sys.modules)
    worker = _load("worker")
    assert worker.BLAS_THREAD_VARS == BLAS_THREAD_VARS
    yield worker, _load("run")
    for name in {"probe", "tracer"} - before:
        sys.modules.pop(name, None)


def headroom_ops(run):
    """bench/run.py's circuit-verify headroom ops, tolerances kept, on the
    SMALL_DIMS ladders with the block capped at half the ladder."""
    ops = []
    for op in run.circuit_verify(seed=1):
        if op["kind"] == "cli":
            continue
        dim = SMALL_DIMS[op["kind"]]
        small = dict(op, dim=dim)
        if "block" in op:
            small["block"] = min(op["block"], dim // 2)
        ops.append(small)
    return ops


def test_headroom_ops_pass_their_gates(bench):
    worker, run = bench
    _, mods = worker._setup()
    ops = headroom_ops(run)
    assert sorted(op["kind"] for op in ops) == sorted(SMALL_DIMS)
    for op in ops:
        out = worker._headroom(mods, op)
        assert worker._gate(op, out, None) == [], op["label"]


def test_lossy_ops_pass_their_gates(bench, monkeypatch):
    # lossy-strong's op and lossy-sweep's anchored ops, the ones with a
    # target fidelity; the drawn ops have no target to miss
    worker, run = bench
    _, mods = worker._setup()
    loss = mods["loss"]
    monkeypatch.setattr(loss, "run_lossy_amplifier", loss.run_lossy_amplifier)
    observer = worker.LossyObserver(loss)
    anchored = [op for op in run.lossy_sweep(seed=1) if "target" in op["gate"]]
    assert len(anchored) == 12
    for op in run.lossy_strong(seed=1) + anchored:
        out = worker._run_cli(mods["cli"], op["argv"])
        (report,) = observer.reports
        assert worker._gate(op, out, report) == [], op["label"]
        observer.reports.clear()


def test_tracer_finds_its_patched_attributes(bench, monkeypatch):
    worker, _ = bench
    _, mods = worker._setup()
    fock, loss = mods["fock"], mods["loss"]
    # register every function the tracer may replace, so teardown restores it
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj):
                monkeypatch.setattr(mod, attr, obj)
    monkeypatch.setattr(fock.Operator, "__matmul__", fock.Operator.__matmul__)
    originals = (fock.expm, fock.Operator.__matmul__, loss._run_fixed_dim)

    worker.Tracer().install(mods)

    patched = (fock.expm, fock.Operator.__matmul__, loss._run_fixed_dim)
    for before, after in zip(originals, patched):
        assert after is not before
