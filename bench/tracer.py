"""Per-layer spans and counts, taken from outside the program.

``Tracer.install`` wraps every public function and public method of the
traced destab modules.  ``from .x import f`` copies ``f`` into the importing
module, so each wrapper is also bound in every loaded module (and every
module-level dict, such as ``corpus.PROFILES``) that holds the original.
Spans are aggregated in memory per name: calls, and self time (the span's
duration minus the time covered by its child spans).  Nothing in ``src/``
changes; with the tracer not installed the program runs untouched.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter_ns

MODULES = ("linalg", "groups", "reps", "parabolic", "instability", "gcr", "documents", "corpus", "cli")


def span_name(module: str, name: str) -> str:
    """Parse and emit functions of ``documents`` are reported as two layers."""
    if module == "documents":
        for prefix in ("parse", "emit"):
            if name.startswith(prefix + "_"):
                return f"documents.{prefix}"
    return f"{module}.{name}"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns]
        self.counters: dict[str, int] = {
            "cochars_examined": 0,
            "ru_found": 0,
            "qnorm_systems": 0,
        }
        self._children: list[int] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []
        counters = self.counters

        def examined(verdict, _solves):
            counters["cochars_examined"] += len(verdict.examined)

        def found(u, _solves):
            counters["ru_found"] += u is not None

        def systems(_d, solves):
            counters["qnorm_systems"] += solves

        # run on a span's result, with the solve_affine calls made inside it
        self._after = {
            "instability.is_cochar_closed": examined,
            "parabolic.find_ru_conjugator": found,
            "instability.min_qnorm_over_polyhedron": systems,
        }

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0])
        children = self._children
        after = self._after.get(name)
        solves = self.stats.setdefault("linalg.solve_affine", [0, 0])

        def wrapper(*args, **kwargs):
            before = solves[0]
            children.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stats[0] += 1
                stats[1] += dt - children.pop()
                if children:
                    children[-1] += dt
            if after is not None:
                after(result, solves[0] - before)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # id of the original -> its wrapper
        for short in MODULES:
            mod = importlib.import_module(f"destab.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(span_name(short, attr), obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            in_destab = str(getattr(mod, "__name__", "")).startswith("destab")
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._set(mod, attr, wrapper)
                elif in_destab and isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapper = wrappers.get(id(item))
                        if wrapper is not None and wrapper.__wrapped__ is item:
                            value[key] = wrapper
                            self._undo.append((value, key, item))

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = span_name(short, attr)
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0))[1] / 1e9

    def snapshot(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "self_s": ns / 1e9}
                for name, (calls, ns) in sorted(self.stats.items())
                if calls
            },
            "counters": dict(self.counters),
        }


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, per round of the workload."""

    def per_round(x):
        return x / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    t = tracer
    out: dict[str, tuple[float, str]] = {}
    for name in (
        "linalg.mat_mul",
        "linalg.solve_affine",
        "linalg.rref",
        "instability.min_qnorm_over_polyhedron",
        "instability.optimize_torus",
        "parabolic.find_ru_conjugator",
        "gcr.centralizer_dim",
        "reps.composed_with_action",
        "corpus.corpus_config",
    ):
        out[f"{name}.calls"] = (per_round(t.calls(name)), "count")
        out[f"{name}.self_s"] = (per_round(t.self_s(name)), "s")
    for name in (
        "linalg.in_row_space",
        "linalg.nullspace",
        "instability.optimize",
        "instability.is_cochar_closed",
        "instability.admissible_exponents",
        "parabolic.c_lambda",
        "gcr.enveloping_algebra",
        "documents.parse",
        "documents.emit",
        "cli.main",
    ):
        out[f"{name}.self_s"] = (per_round(t.self_s(name)), "s")
    for name in ("linalg.inverse", "reps.act", "reps.act_matrix", "groups.contains", "groups.weyl_representatives"):
        out[f"{name}.calls"] = (per_round(t.calls(name)), "count")
    qnorm = t.calls("instability.min_qnorm_over_polyhedron")
    out["instability.min_qnorm_over_polyhedron.systems_per_call"] = (
        ratio(t.counters["qnorm_systems"], qnorm),
        "ratio",
    )
    out["instability.cochars_examined"] = (per_round(t.counters["cochars_examined"]), "count")
    out["parabolic.find_ru_conjugator.found_ratio"] = (
        ratio(t.counters["ru_found"], t.calls("parabolic.find_ru_conjugator")),
        "ratio",
    )
    out["reps.act_matrix.per_act"] = (ratio(t.calls("reps.act_matrix"), t.calls("reps.act")), "ratio")
    return out
