"""Outside-in tracer: wraps the package's public functions at their boundaries.

Nothing in the package changes. ``Tracer.install`` replaces every public
function and method of each layer module (the names in its ``__all__``)
with a timing wrapper, also where another module re-bound the name through
``from ... import``; ``Tracer.uninstall`` puts the originals back. Spans
are kept in memory as ``(name, start, end, parent)``; calls, total and
self time are derived from them afterwards. Counts (kernel entries,
sampled points, birth/death outcomes) are taken from argument and return
shapes at the same boundaries. Span times are CPU seconds
(``time.process_time``), the benchmark's one clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "conicswarm"
LAYERS = ["kernels", "oracle", "objective", "dynamics", "birth_death", "domain",
          "swarm", "runner", "schedules", "experiments", "cli"]


def _n_rows(x, dim):
    return np.asarray(x).reshape(-1, dim).shape[0]


def _batch_len(model, idx):
    return model.n_samples if idx is None else np.asarray(idx).size


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _kernel_entries(name, idx_pos):
    """|A|*|B| kernel entries, times the batch for a sample-dependent kernel."""
    def count(args, kwargs, _result):
        model = args[0]
        entries = _n_rows(args[1], model.dim) * _n_rows(args[2], model.dim)
        if model.kernel_depends_on_samples:
            entries *= _batch_len(model, _arg(args, kwargs, idx_pos, "idx"))
        return {f"{name}.entries": entries}
    return count


def _y_side_entries(name):
    """|T| * m observation-side entries."""
    def count(args, kwargs, _result):
        model = args[0]
        return {f"{name}.entries":
                _n_rows(args[1], model.dim) * _batch_len(model, _arg(args, kwargs, 2, "idx"))}
    return count


def _sampled_points(args, kwargs, _result):
    size = _arg(args, kwargs, 2, "size")
    return {"domain.sample_uniform.points": 1 if size is None else int(size)}


def _birth_outcome(_args, _kwargs, result):
    born, candidates = result[0], result[1]
    return {"birth_death.candidates": len(candidates), "birth_death.births": len(born)}


def _death_outcome(_args, _kwargs, result):
    return {"birth_death.deaths": int(np.asarray(result).size)}


COUNTERS = {
    "kernels.kernel_matrix": _kernel_entries("kernels.kernel_matrix", 3),
    "kernels.weighted_grad1_kernel": _kernel_entries("kernels.weighted_grad1_kernel", 4),
    "kernels.y_inner_many": _y_side_entries("kernels.y_inner_many"),
    "kernels.grad_y_inner_many": _y_side_entries("kernels.grad_y_inner_many"),
    "domain.sample_uniform": _sampled_points,
    "birth_death.evaluate_birth_candidates": _birth_outcome,
    "birth_death.select_deaths": _death_outcome,
}


class Tracer:
    """Collects spans and counts from wrappers installed on the package."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls):
        for attr, member in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(member):
                self._set(cls, attr, self.wrap(f"{layer}.{cls.__name__}", member))
            elif attr.startswith("_"):
                continue
            elif isinstance(member, property) and member.fget is not None \
                    and not getattr(member.fget, "__isabstractmethod__", False):
                self._set(cls, attr, property(self.wrap(f"{layer}.{attr}", member.fget),
                                              member.fset, member.fdel, member.__doc__))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(f"{layer}.{attr}", member.__func__)))
            elif inspect.isfunction(member) and not getattr(member, "__isabstractmethod__", False):
                self._set(cls, attr, self.wrap(f"{layer}.{attr}", member))

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            public = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for attr in public:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    replaced[obj] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # names re-bound by ``from .x import f`` in any module of the package
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived figures ------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write_spans(self, path) -> None:
        """Write ``index,name,start,end,parent`` rows, one span per line."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
