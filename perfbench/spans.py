"""In-memory span tracer that measures library layers from outside.

The tracer never edits the library: :meth:`Tracer.wrap` replaces a public
function or method on its owner (a class or module) with a timing shim and
:meth:`Tracer.restore` puts the original back.  Every call through a shim
records one span — name (``<layer>:<entry>``), start, end, parent span and
the run (benchmark operation) it belongs to — into flat arrays, so the
hundred thousand spans of a 30 s flight cost a few megabytes and no
per-span objects.

A layer's *self time* is the duration of its spans minus the time their
child spans cover (:func:`self_times`).  Shims run on one thread and nest
strictly, so the children of a span never overlap and "time covered" is
the sum of their durations.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

#: ``hook(instance_or_None, args, kwargs, result)``: runs after the timed
#: region of a wrapped call, to count work the call did.
Hook = Callable[[Any, tuple, dict, Any], None]


class Tracer:
    """Span recorder with an injected clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack: List[int] = [-1]
        self._patched: List[Tuple[Any, str, Any]] = []

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.end)
        self.end.append(0.0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span named ``name``."""
        index = self._open(self._name(name))
        try:
            yield
        finally:
            self.end[index] = self.clock()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        hook: Optional[Hook] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``.

        The span is named ``"<layer>:<attr>"``, so :meth:`call_counts`
        can tell a layer's entry points apart.  ``owner`` is a class (the
        shim then receives ``self`` first) or a module whose global the
        callers look up at call time.
        """
        is_method = isinstance(owner, type)
        original = owner.__dict__[attr] if is_method else getattr(owner, attr)
        nid = self._name(f"{layer}:{attr}")
        tracer = self
        clock = self.clock
        stack = self._stack
        end = self.end

        # Bookkeeping happens outside [start, end] where it can, so it lands
        # in the parent's self time rather than this layer's.
        def shim(*args: Any, **kwargs: Any) -> Any:
            index = len(end)
            end.append(0.0)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.run.append(tracer.run_id)
            stack.append(index)
            tracer.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args[0] if is_method else None, args, kwargs, result)
            return result

        setattr(owner, attr, shim)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def _keep(self, runs: Optional[Iterable[int]]) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        data = self.spans()
        if runs is None:
            return data, np.ones(data["run"].size, dtype=bool)
        return data, np.isin(data["run"], np.asarray(list(runs), dtype=np.int32))

    def layer_self_times(self, runs: Optional[Iterable[int]] = None) -> Dict[str, float]:
        """Self time per layer, over the spans of ``runs`` (all if None)."""
        data, keep = self._keep(runs)
        per_span = self_times(data["start"], data["end"], data["parent"])
        totals = np.bincount(
            data["name_id"][keep], weights=per_span[keep], minlength=len(self.names)
        )
        layers: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(":")[0]
            layers[layer] = layers.get(layer, 0.0) + float(totals[nid])
        return layers

    def call_counts(self, runs: Optional[Iterable[int]] = None) -> Dict[str, int]:
        """Spans per name (``"<layer>:<attr>"`` for wrapped calls)."""
        data, keep = self._keep(runs)
        totals = np.bincount(data["name_id"][keep], minlength=len(self.names))
        return {name: int(totals[nid]) for nid, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write every span and the name table as an ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.spans())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of its children.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=duration.size
    )
    return duration - covered
