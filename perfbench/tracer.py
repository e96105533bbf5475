"""Span tracer that instruments the cmirecon modules from outside.

Every function and method defined in a layer module is replaced by a thin
wrapper that records one span per call: its name, the span that called it,
the benchmark item it ran for, and its start and end times. Spans stay in
compact in-memory arrays until the run ends, when ``summary`` folds them
into per-name call counts and self times (a span's duration minus the time
its child spans cover).

A few wrappers also read counters off return values (accepted steps,
convergence flags, bytes written). Names the metrics rely on but that no
longer exist are reported as absent instead of raising, so the tracer
survives refactors of the program it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "cmirecon"
LAYERS = ("linalg", "states", "entropy", "channels", "markov", "recovery", "experiments", "cli")

# Span names the per-layer metrics read; anything else is only summed into
# its layer's self time.
REQUIRED = (
    "states.MultipartiteState.__post_init__",
    "states.partial_trace",
    "states.permute",
    "linalg.eigh",
    "linalg.min_eigenvalue",
    "linalg.matrix_function",
    "entropy.von_neumann",
    "entropy.relative_entropy",
    "entropy.fidelity",
    "entropy.measured_relative_entropy",
    "entropy._ascend_measured_re",
    "channels.Channel.__post_init__",
    "channels.transpose_channel",
    "channels.apply",
    "recovery.optimize_recovery",
    "recovery._ascend",
    "recovery._RecoveryProblem.fidelity_value",
    "recovery._RecoveryProblem.fidelity_and_gradient",
    "recovery._RecoveryProblem.sigma_tensor",
    "recovery._retract",
    "experiments.emit_outputs",
)

# Emission path of the scatter experiment: file writers and their formatters.
EMIT = (
    "experiments.emit_outputs",
    "experiments.records_to_csv_text",
    "experiments._fmt",
    "experiments.jsonable",
    "experiments.write_scatter_svg",
)


class Tracer:
    """In-memory span store; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        self.current_item = -1
        self.counters: Counter = Counter()
        self.hook_errors: set[str] = set()
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        t = perf_counter()
        self.end[sid] = t
        self._stack.pop()
        if self._stack:
            self.child[self._stack[-1]] += t - self.start[sid]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        sid = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    # --- instrumentation ----------------------------------------------------

    def instrument(self) -> None:
        """Wrap every function and method defined in the layer modules."""
        wrapped: dict[int, object] = {}
        modules = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            modules.append(module)
            source = os.path.abspath(module.__file__)
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self._patch(module, attr, obj, f"{layer}.{attr}", wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and os.path.abspath(fn.__code__.co_filename) == source:
                            self._patch(obj, meth, fn, f"{layer}.{attr}.{meth}", wrapped)
        # re-exported aliases (package namespace, `from x import f`) point at
        # the originals; route them through the same wrappers
        modules.append(importlib.import_module(PACKAGE))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        self.absent = [name for name in REQUIRED if name not in self._ids]

    def uninstrument(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, fn, name, wrapped) -> None:
        if id(fn) in wrapped:
            return
        wrapper = _wrap(self, name, fn, _HOOKS.get(name))
        wrapped[id(fn)] = wrapper
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    # --- aggregation --------------------------------------------------------

    def summary(self, scales: dict[int, float] | None = None) -> dict:
        """Per-name call counts and self seconds over every recorded span.

        ``scales`` optionally maps an item id to a factor for its spans' times.
        """
        scales = scales or {}
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid in range(len(self.start)):
            name = self.names[self.name[sid]]
            calls[name] += 1
            own = (self.end[sid] - self.start[sid]) - self.child[sid]
            self_s[name] += own * scales.get(self.item[sid], 1.0)
        return {"calls": calls, "self_s": self_s}


def _wrap(tracer: Tracer, name: str, fn, hook):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            try:
                hook(tracer.counters, fn, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                tracer.hook_errors.add(name)
        return result

    return traced


# --- counters read off return values ------------------------------------------

def _mre_solve(counters, fn, args, kwargs, sol):
    counters["entropy.mre.nonconverged"] += int(not sol.converged)


def _mre_ascent(counters, fn, args, kwargs, result):
    counters["entropy.mre.accepted_steps"] += len(result[2]) - 1


def _recovery_solve(counters, fn, args, kwargs, result):
    counters["recovery.nonconverged"] += int(not result.converged)


def _recovery_ascent(counters, fn, args, kwargs, result):
    counters["recovery.accepted_steps"] += len(result[2]) - 1


def _emit(counters, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    for key, path in bound.arguments.items():
        if key.startswith("out_") and path is not None:
            counters["experiments.emit.bytes"] += os.path.getsize(path)


_HOOKS = {
    "entropy.measured_relative_entropy": _mre_solve,
    "entropy._ascend_measured_re": _mre_ascent,
    "recovery.optimize_recovery": _recovery_solve,
    "recovery._ascend": _recovery_ascent,
    "experiments.emit_outputs": _emit,
}


def layer_metrics(tracer: Tracer, scales: dict[int, float] | None = None) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit); ``scales`` as in ``summary``."""
    s = tracer.summary(scales)
    calls, self_s, counters = s["calls"], s["self_s"], tracer.counters

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    mre_starts = calls["entropy._ascend_measured_re"]
    value_evals = calls["recovery._RecoveryProblem.fidelity_value"]
    accepted = counters["recovery.accepted_steps"]
    out = {
        "states.validations": (calls["states.MultipartiteState.__post_init__"], "count"),
        "states.validate.self_s": (self_s["states.MultipartiteState.__post_init__"], "s"),
        "states.partial_trace.self_s": (self_s["states.partial_trace"], "s"),
        "states.permute.self_s": (self_s["states.permute"], "s"),
        "states.self_s": (layer_self("states"), "s"),
        "linalg.eigh.calls": (calls["linalg.eigh"], "count"),
        "linalg.min_eigenvalue.calls": (calls["linalg.min_eigenvalue"], "count"),
        "linalg.matrix_function.calls": (calls["linalg.matrix_function"], "count"),
        "linalg.eigh.self_s": (self_s["linalg.eigh"], "s"),
        "linalg.self_s": (layer_self("linalg"), "s"),
        "entropy.von_neumann.calls": (calls["entropy.von_neumann"], "count"),
        "entropy.relative_entropy.self_s": (self_s["entropy.relative_entropy"], "s"),
        "entropy.fidelity.self_s": (self_s["entropy.fidelity"], "s"),
        "entropy.self_s": (layer_self("entropy"), "s"),
        "entropy.mre.solves": (calls["entropy.measured_relative_entropy"], "count"),
        "entropy.mre.starts": (mre_starts, "count"),
        "entropy.mre.accepted_steps": (counters["entropy.mre.accepted_steps"], "count"),
        "entropy.mre.nonconverged": (counters["entropy.mre.nonconverged"], "count"),
        "entropy.mre_ascent.self_s": (
            self_s["entropy._ascend_measured_re"] / mre_starts if mre_starts else 0.0,
            "s/call",
        ),
        "channels.validations": (calls["channels.Channel.__post_init__"], "count"),
        "channels.transpose_channel.self_s": (self_s["channels.transpose_channel"], "s"),
        "channels.apply.self_s": (self_s["channels.apply"], "s"),
        "channels.self_s": (layer_self("channels"), "s"),
        "recovery.solves": (calls["recovery.optimize_recovery"], "count"),
        "recovery.starts": (calls["recovery._ascend"], "count"),
        "recovery.accepted_steps": (accepted, "count"),
        "recovery.value_evals": (value_evals, "count"),
        "recovery.linesearch_accept_ratio": (accepted / value_evals if value_evals else 0.0, "ratio"),
        "recovery.gradient_evals": (calls["recovery._RecoveryProblem.fidelity_and_gradient"], "count"),
        "recovery.sigma_tensor.self_s": (self_s["recovery._RecoveryProblem.sigma_tensor"], "s"),
        "recovery.gradient.self_s": (self_s["recovery._RecoveryProblem.fidelity_and_gradient"], "s"),
        "recovery.retract.self_s": (self_s["recovery._retract"], "s"),
        "recovery.nonconverged": (counters["recovery.nonconverged"], "count"),
        "recovery.self_s": (layer_self("recovery"), "s"),
        "markov.calls": (sum(v for k, v in calls.items() if k.startswith("markov.")), "count"),
        "markov.self_s": (layer_self("markov"), "s"),
        "experiments.emit.self_s": (sum(self_s[k] for k in EMIT), "s"),
        "experiments.emit.bytes": (counters["experiments.emit.bytes"], "bytes"),
        "experiments.self_s": (layer_self("experiments"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
    }
    return out
