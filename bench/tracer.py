"""Span tracer that wraps kerramp's public functions from outside.

Patching the module attribute also replaces the module global, so calls
made inside a module (``fock.annihilation`` -> ``fock.embed``) and between
modules (``loss`` -> ``fock.embed``) are both recorded.  Spans stay in
memory as ``[name, start, end, parent_index]`` until the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("fock", "su11", "circuits", "loss", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.expm_dim_cubed = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every public function of the five layers, plus
        ``fock.Operator.__matmul__`` and the private ``loss._run_fixed_dim``
        (one fixed-truncation pass of ``run_lossy_amplifier``)."""
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    setattr(mod, attr, self.wrap(f"{layer}.{attr}", obj))
        loss = modules["loss"]
        if hasattr(loss, "_run_fixed_dim"):
            loss._run_fixed_dim = self.wrap(
                "loss.run_lossy_amplifier.pass", loss._run_fixed_dim
            )
        fock = modules["fock"]
        expm = fock.expm

        def counted_expm(generator, *args, **kwargs):
            self.expm_dim_cubed += generator.layout.total_dim**3
            return expm(generator, *args, **kwargs)

        fock.expm = counted_expm
        op = fock.Operator
        op.__matmul__ = self.wrap("fock.Operator.matmul", op.__matmul__)

    def aggregate(self) -> dict:
        """{span name: {"calls", "self_s"}}; self time is the span's duration
        minus the time covered by its direct children."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_s):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - inner
        return out
