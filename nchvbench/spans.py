"""In-memory spans around calls into the seven nchv modules.

The tracer wraps the public functions and a few public methods of each
module in place, in every nchv module namespace that refers to them, so
calls between modules are recorded as well as the benchmark's own calls.
Each span keeps its name, start, end, parent span and a small integer tag
(the dimension, for calls whose cost depends on it). Nothing inside
``src/`` changes; the wrappers are removed when a traced round ends.

Spans are held in flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np

from nchv import basisfamily, cli, kscheck, opcore, pba, povmfamily, simulator

MODULES = (opcore, basisfamily, pba, povmfamily, simulator, kscheck, cli)
LAYERS = tuple(m.__name__.split(".")[-1] for m in MODULES)

# argument plumbing too small to time without the tracer dominating it
SKIP = {"as_operator", "require_same_dim", "dagger"}

METHODS = {
    basisfamily: {"BasisFamily": ("save", "load")},
    pba: {"PartialBooleanAlgebra": ("from_family",), "TruthValuation": ("populate",)},
    povmfamily: {
        "RationalOperator": ("is_positive_semidefinite",),
        "ResolutionRegistry": ("register", "candidates_within",
                               "min_cross_member_distance", "save", "load"),
    },
}


def _dim_of_stack(args, kwargs):
    return int(np.shape(args[0])[-1])


def _dim_of_targets(args, kwargs):
    return int(np.shape(args[0][0])[-1])


TAGS = {
    "opcore.pairwise_commutator_norms": _dim_of_stack,
    "povmfamily.snap_resolution": _dim_of_targets,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.tag = array("q")
        self.rounds: list[tuple[int, int]] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid, tag):
        i = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.tag.append(tag)
        self._stack.append(i)
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, tag=-1):
        i = self._open(self._id(name), tag)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name):
        nid = self._id(name)
        tagger = TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid, tagger(args, kwargs) if tagger else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    # -- patching ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, replacement) for every traced callable."""
        out = []
        for mod in MODULES:
            layer = mod.__name__.split(".")[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if attr in SKIP or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(fn, f"{layer}.{attr}")
                for other in MODULES:
                    if other.__dict__.get(attr) is fn:
                        out.append((other, attr, wrapped))
            for cls_name, methods in METHODS.get(mod, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        out.append((cls, meth, classmethod(self.wrap(raw.__func__, name))))
                    else:
                        out.append((cls, meth, self.wrap(raw, name)))
        return out

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, replacement in self._targets():
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def begin_round(self):
        self._round_start = len(self.start)

    def end_round(self):
        self.rounds.append((self._round_start, len(self.start)))

    # -- analysis ---------------------------------------------------------

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            tag=np.frombuffer(self.tag, dtype=np.int64),
            rounds=np.array(self.rounds, dtype=np.int64).reshape(-1, 2),
        )


class SpanView:
    """The spans of one traced round, as numpy arrays."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.names = tracer.names
        self.start = np.frombuffer(tracer.start, dtype=np.float64)[lo:hi]
        self.end = np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(tracer.parent, dtype=np.int64)[lo:hi] - lo
        self.parent = np.where(parent < 0, -1, parent)
        self.name = np.frombuffer(tracer.name, dtype=np.int64)[lo:hi]
        self.tag = np.frombuffer(tracer.tag, dtype=np.int64)[lo:hi]
        self.dur = self.end - self.start
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def _ids(self, name):
        return [i for i, n in enumerate(self.names) if n == name]

    def select(self, name, parent=None, within=None, tag=None):
        """Indices of spans called ``name``.

        ``parent`` keeps spans whose direct parent has that name; ``within``
        keeps spans that lie inside any span of that name; ``tag`` keeps
        spans with that tag.
        """
        mask = np.isin(self.name, self._ids(name))
        if parent is not None:
            pids = self._ids(parent)
            has = self.parent >= 0
            pmask = np.zeros(len(mask), dtype=bool)
            pmask[has] = np.isin(self.name[self.parent[has]], pids)
            mask &= pmask
        if tag is not None:
            mask &= self.tag == tag
        idx = np.flatnonzero(mask)
        if within is not None and idx.size:
            outer = self.select(within)
            lo = self.start[outer]
            hi = self.end[outer]
            pos = np.searchsorted(lo, self.start[idx], side="right") - 1
            ok = (pos >= 0) & (self.start[idx] < hi[np.clip(pos, 0, None)])
            idx = idx[ok]
        return idx

    def durations(self, name, **filters):
        return self.dur[self.select(name, **filters)]

    def median(self, name, scale=1.0, **filters):
        d = self.durations(name, **filters)
        return float(np.median(d)) * scale if d.size else 0.0

    def total(self, name, scale=1.0, **filters):
        return float(self.durations(name, **filters).sum()) * scale

    def count(self, name, **filters):
        return int(self.select(name, **filters).size)

    def layer_self_times(self):
        out = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += float(self.self_time[self.name == nid].sum())
        return out
