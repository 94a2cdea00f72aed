"""One benchmark pass in a fresh interpreter.

Started by ``bench/run.py``; reads a pass spec as JSON on stdin and writes
one JSON object on stdout.  A fresh process per pass gives every pass cold
kerramp caches, as a user running ``kerramp`` from the shell has, and its
own peak RSS.

    python3 bench/worker.py --spawned-at <time.monotonic()>

Its ``setup_s`` is the time from ``--spawned-at`` to the end of setup
(interpreter start, imports, parser build, BLAS warm-up).  The setup and the
pass are also returned corrected for host speed (``setup_work_s``,
``work_s``), from the samples of ``bench/probe.py`` taken in this process.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: OpenBLAS sizes its thread pool at load.
# One thread gave steadier pass times than two on a 2-core machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from probe import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402


def _setup():
    """Imports, parser build and BLAS warm-up: the cost of starting kerramp."""
    import numpy as np

    from kerramp import circuits, cli, fock, loss, su11

    cli.build_parser()
    a = np.random.default_rng(0).normal(size=(64, 64))
    np.linalg.eigh(a + a.T)
    (a @ a).sum()
    return np, {"cli": cli, "circuits": circuits, "fock": fock, "loss": loss, "su11": su11}


def _environment(np) -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


class LossyObserver:
    """Keeps the gate-relevant scalars of every lossy run report.

    Installed in untraced passes too: the CLI prints no trace of the output
    state, so this is how the trace gate sees it.  Costs one O(D) trace per
    run.
    """

    def __init__(self, loss_module):
        self.reports = []
        inner = loss_module.run_lossy_amplifier

        def observed(*args, **kwargs):
            report = inner(*args, **kwargs)
            tr = complex(report.rho_out.matrix.trace())
            self.reports.append(
                {
                    "converged": bool(report.converged),
                    "trace_err": abs(tr - 1.0),
                    "fidelity": float(report.fidelity),
                    "truncation": int(report.truncation),
                }
            )
            return report

        loss_module.run_lossy_amplifier = observed


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def _headroom(mods, op):
    """Residual of one truncation-headroom build (checked against op['tol'])."""
    import numpy as np

    circuits, fock, su11 = mods["circuits"], mods["fock"], mods["su11"]
    params = su11.solve_params(0.5, 0.5)
    d = op["dim"]
    if op["kind"] == "three-mode":
        _, lhs, rhs = circuits.build_three_mode_amplifier(
            params, fock.make_layout([2, d, d])
        )
        res = circuits.equivalence_residual(lhs, rhs, block=op["block"])
    elif op["kind"] == "swap":
        layout = fock.make_layout([2, d, d])
        _, plain, _ = circuits.build_three_mode_amplifier(params, layout)
        _, swapped, _ = circuits.build_three_mode_amplifier(
            params, layout, use_swap_decomposition=True
        )
        res = float(np.max(np.abs(swapped.matrix - plain.matrix)))
    elif op["kind"] == "two-mode":
        _, lhs, rhs = circuits.build_two_mode_amplifier(
            params, fock.make_layout([2, d])
        )
        res = circuits.equivalence_residual(lhs, rhs, block=op["block"])
    elif op["kind"] == "fock-single":
        gens = su11.generators(fock.make_layout([2, d]), "fock-single")
        res = su11.verify_identity(params, gens, block=op["block"])
    else:
        raise ValueError(f"unknown op kind {op['kind']!r}")
    return {"residual": float(res)}


def _gate(op, out, lossy) -> list[str]:
    """Failed gate messages for one op; empty when the op is correct."""
    gate = op["gate"]
    errors = []
    if op["kind"] != "cli":
        if not out["residual"] < gate["tol"]:
            errors.append(f"residual {out['residual']:.3e} >= {gate['tol']:.0e}")
        return errors
    if out["exit"] not in gate["exit"]:
        errors.append(f"exit code {out['exit']} not in {gate['exit']}")
        return errors
    rows = json.loads(out["stdout"])["rows"]
    if "max_red" in gate:
        red = sum(not r["passed"] for r in rows)
        out["red_checks"] = red
        if red > gate["max_red"]:
            errors.append(f"{red} red verify checks > {gate['max_red']}")
        return errors
    (row,) = rows
    f = row["fidelity"]
    if not row["converged"] or not (lossy and lossy["converged"]):
        errors.append("run did not converge")
    if lossy is None or not lossy["trace_err"] <= 1e-10:
        errors.append(f"output trace off by {lossy and lossy['trace_err']}")
    if lossy is not None and lossy["fidelity"] != f:
        errors.append("printed fidelity differs from the run report")
    if not 0.0 <= f <= 1.0:
        errors.append(f"fidelity {f} outside [0, 1]")
    if "target" in gate and not abs(f - gate["target"]) <= gate["within"]:
        errors.append(f"fidelity {f:.6f} not within {gate['within']} of {gate['target']}")
    return errors


def _time_ops(mods, ops, observer, work_dir):
    """Run every op once; return (outputs, per-op seconds, pass start and
    end as time.monotonic() values).

    Config files are written before the clock starts: they are inputs."""
    for i, op in enumerate(ops):
        if op.get("config"):
            path = Path(work_dir) / f"op{i}.conf"
            path.write_text("".join(f"{k} = {v}\n" for k, v in op["config"].items()))
            op["argv"] = op["argv"] + ["--config", str(path)]
    outputs, op_s = [], []
    cli = mods["cli"]
    pass_start = time.monotonic()
    for op in ops:
        n_lossy = len(observer.reports)
        t0 = time.perf_counter()
        try:
            out = _run_cli(cli, op["argv"]) if op["kind"] == "cli" else _headroom(mods, op)
        except Exception:  # one broken op is a failed op, not a dead pass
            out = {"error": traceback.format_exc(limit=3)}
        op_s.append(time.perf_counter() - t0)
        out["lossy"] = observer.reports[n_lossy] if len(observer.reports) > n_lossy else None
        outputs.append(out)
    return outputs, op_s, (pass_start, time.monotonic())


def _run_pass(mods, spec, sampler) -> dict:
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(mods)
    observer = LossyObserver(mods["loss"])  # outside the spans it observes
    with tempfile.TemporaryDirectory(dir=spec["out_dir"], prefix="work-") as work_dir:
        with sampler.running():
            outputs, op_s, (pass_start, pass_end) = _time_ops(
                mods, spec["ops"], observer, work_dir
            )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = []
    for op, out, t in zip(spec["ops"], outputs, op_s):
        if "error" in out:
            errors = [out["error"]]
        else:
            try:
                errors = _gate(op, out, out["lossy"])
            except (KeyError, ValueError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        record = {"label": op["label"], "seconds": t, "errors": errors}
        for key in ("residual", "red_checks"):
            if key in out:
                record[key] = out[key]
        if out.get("lossy"):
            record["fidelity"] = out["lossy"]["fidelity"]
            record["truncation"] = out["lossy"]["truncation"]
        ops.append(record)

    result = {
        "wall_s": pass_end - pass_start,
        "work_s": sampler.work_s(pass_start, pass_end),
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "converged_runs": sum(r["converged"] for r in observer.reports),
    }
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["spans"] = len(tracer.spans)
        result["expm_dim_cubed"] = tracer.expm_dim_cubed
        if spec.get("spans_path"):
            with gzip.open(spec["spans_path"], "wt", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    sampler = Sampler()
    with sampler.running():
        np, mods = _setup()
        setup_end = time.monotonic()
    result = {
        "setup_s": setup_end - args.spawned_at,
        "setup_work_s": sampler.work_s(args.spawned_at, setup_end),
        "env": _environment(np),
    }
    result.update(_run_pass(mods, json.load(sys.stdin), sampler))
    result["host_samples"] = sampler.samples
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
