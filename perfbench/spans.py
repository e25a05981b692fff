"""An in-memory span recorder that wraps calls into the program's layers.

The recorder replaces each attribute named in :data:`layers.WRAPPED`
with a wrapper that records one span per call: a name, a start, an end
and the span that was open when the call began (its parent).  Spans are
kept in four flat arrays, so a run with a million spans costs ~24 MB, and
are only read after the run: :func:`layer_table` partitions the run into
per-layer self time, :func:`write_chrome_trace` writes a trace_event JSON
file that opens in ui.perfetto.dev.

Wrappers are installed on classes before the fleet is built (bound
methods captured at construction, such as the arbiter's periodic
``adjust_once``, then resolve to the wrapper) and are removed by
:meth:`SpanRecorder.uninstall`.  A run that is not traced never installs
them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from layers import DRIVER, WRAPPED

#: Where runs write their records, Chrome traces and layer tables.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Spans written to the Chrome trace.  Spans are stored in start order,
#: so the first N form a prefix of the run in which every span's parent
#: is present; the layer table always uses all of them.
CHROME_SPAN_LIMIT = 200_000


class SpanRecorder:
    """Records nested spans of wrapped calls on one thread.

    Attributes:
        active: Spans are recorded only while this is true, so set-up and
            the post-run checks call the wrapped functions unrecorded.
        names / layers: Span name and layer per name id.
        hits: Per name id, calls that returned a result other than
            ``None`` without raising.
        items: Per name id, summed length of the first argument after
            ``self`` when it is a list (the sample count for
            ``FleetSloMonitor.ingest``).
    """

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self.layers: List[str] = []
        self.hits: List[int] = []
        self.items: List[int] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.hits.append(0)
        self.items.append(0)
        return len(self.names) - 1

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A span-recording wrapper around *fn*."""
        nid = self._register(name, layer)
        rec = self
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        hits, items = self.hits, self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if len(args) > 1 and isinstance(args[1], list):
                items[nid] += len(args[1])
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if result is not None:
                hits[nid] += 1
            return result

        return wrapper

    def install(self, targets: Sequence[Tuple[str, str, Optional[str],
                                              str]] = WRAPPED) -> None:
        """Wrap every ``(layer, module, class, attribute)`` target."""
        for layer, module_name, cls_name, attr in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            if cls_name and attr not in vars(owner):
                raise AttributeError(
                    f"{module_name}.{cls_name} defines no {attr!r}")
            original = vars(owner)[attr]
            name = f"{cls_name}.{attr}" if cls_name else attr
            setattr(owner, attr, self.wrap(original, name, layer))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def calls(self) -> Dict[str, int]:
        """Recorded spans per span name."""
        counts = np.bincount(np.array(self.name_ids, dtype=np.int64),
                             minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def arrays(self):
        """``(layer_ids, parents, starts, ends, layer_names)``: numpy
        copies with one entry per span in start order."""
        layer_names = list(dict.fromkeys(self.layers))
        layer_of_name = np.array(
            [layer_names.index(layer) for layer in self.layers] or [0],
            dtype=np.int64)
        ids = np.array(self.name_ids, dtype=np.int64)
        return (layer_of_name[ids], np.array(self.parents, dtype=np.int64),
                np.array(self.starts), np.array(self.ends), layer_names)


def layer_times(layer_ids: np.ndarray, parents: np.ndarray,
                starts: np.ndarray, ends: np.ndarray,
                n_layers: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """Per-layer self and busy time, and the total of the root spans.

    A span's self time is its duration minus its children's durations;
    spans nest on one thread, so the children cover disjoint parts of the
    parent.  A layer's self time is the sum over its spans.  A layer's
    busy time is the sum of durations of its outermost spans (those with
    no ancestor in the same layer), which is the time any of its calls
    was on the stack.  Self times of all spans sum to the root total.
    Parents always precede children (spans are stored in start order).
    """
    dur = ends - starts
    n = len(dur)
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
    self_time = np.bincount(layer_ids, weights=dur - child,
                            minlength=n_layers)
    # Bitmask of layers open above each span: a parent's mask plus the
    # parent's own layer.  Parents precede children, so one pass works.
    masks = [0] * n
    outer = [False] * n
    lid = layer_ids.tolist()
    for i, p in enumerate(parents.tolist()):
        mask = (masks[p] | (1 << lid[p])) if p >= 0 else 0
        masks[i] = mask
        outer[i] = not (mask >> lid[i]) & 1
    outer = np.array(outer, dtype=bool)
    busy = np.bincount(layer_ids[outer], weights=dur[outer],
                       minlength=n_layers)
    root_total = float(dur[~nested].sum())
    return self_time, busy, root_total


def span_problems(recorder: SpanRecorder, start: float, end: float,
                  tolerance: float = 1e-7) -> List[str]:
    """Every way the recorded spans fail to nest inside the run that
    lasted from *start* to *end* (empty = they partition it).

    Each child must lie within its parent and no span may have negative
    self time (children that together outlast their parent); root spans
    must be disjoint and lie within the run, so that the driver's self
    time, the run outside every root span, is never negative.
    *tolerance* absorbs clock reads a few nanoseconds apart.
    """
    _layers, parents, starts, ends, _names = recorder.arrays()
    problems: List[str] = []
    dur = ends - starts
    nested = parents >= 0
    p = parents[nested]
    outside = ((starts[nested] < starts[p] - tolerance)
               | (ends[nested] > ends[p] + tolerance))
    if outside.any():
        problems.append(f"{int(outside.sum())} spans lie outside their "
                        f"parent span")
    child = np.bincount(p, weights=dur[nested], minlength=len(dur))
    negative = dur - child < -tolerance
    if negative.any():
        problems.append(f"{int(negative.sum())} spans have negative self "
                        f"time")
    root_starts, root_ends = starts[~nested], ends[~nested]
    if (root_starts[1:] < root_ends[:-1] - tolerance).any():
        problems.append("root spans overlap")
    if len(root_starts) and (root_starts[0] < start - tolerance
                             or root_ends[-1] > end + tolerance):
        problems.append("root spans reach outside the timed run")
    return problems


def layer_table(recorder: SpanRecorder, run_s: float) -> Dict[str, dict]:
    """``{layer: {"calls", "busy_s", "self_s"}}`` for a run of *run_s*
    seconds; the driver's self time is the part of the run outside every
    root span, so the self times of all layers sum to *run_s*."""
    layer_ids, parents, starts, ends, names = recorder.arrays()
    self_time, busy, root_total = layer_times(layer_ids, parents, starts,
                                              ends, len(names))
    calls = np.bincount(layer_ids, minlength=len(names))
    table = {DRIVER: {"calls": 0, "busy_s": run_s,
                      "self_s": run_s - root_total}}
    for i, layer in enumerate(names):
        table[layer] = {"calls": int(calls[i]), "busy_s": float(busy[i]),
                        "self_s": float(self_time[i])}
    return table


def format_table(table: Dict[str, dict], run_s: float) -> str:
    """The per-layer self-time table as text, largest self time first."""
    lines = [f"{'layer':<18} {'calls':>9} {'busy_s':>9} {'self_s':>9} "
             f"{'self%':>6}"]
    for layer, row in sorted(table.items(),
                             key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / run_s if run_s > 0 else 0.0
        lines.append(f"{layer:<18} {row['calls']:>9} {row['busy_s']:>9.4f} "
                     f"{row['self_s']:>9.4f} {share:>6.1%}")
    total = sum(row["self_s"] for row in table.values())
    lines.append(f"{'sum of self_s':<18} {'':>9} {'':>9} {total:>9.4f} "
                 f"(run_s {run_s:.4f})")
    return "\n".join(lines)


def write_chrome_trace(recorder: SpanRecorder, path: str, origin: float,
                       metadata: Dict[str, object]) -> int:
    """Write the first :data:`CHROME_SPAN_LIMIT` spans as Chrome
    trace_event JSON, with *metadata* as its ``otherData``.

    Times are microseconds since *origin* (the start of the run).
    Returns the number of spans written.
    """
    n = min(len(recorder.name_ids), CHROME_SPAN_LIMIT)
    names, layers = recorder.names, recorder.layers
    ids, starts, ends = recorder.name_ids, recorder.starts, recorder.ends
    with open(path, "w", encoding="utf-8") as out:
        out.write('{"displayTimeUnit":"ms","otherData":')
        out.write(json.dumps(metadata, sort_keys=True))
        out.write(',"traceEvents":[\n')
        out.write(json.dumps({"name": "process_name", "ph": "M", "pid": 1,
                              "tid": 1, "args": {"name": "fleet"}}))
        for i in range(n):
            nid = ids[i]
            out.write(',\n{"name":%s,"cat":%s,"ph":"X","pid":1,"tid":1,'
                      '"ts":%.3f,"dur":%.3f}' % (
                          json.dumps(names[nid]), json.dumps(layers[nid]),
                          (starts[i] - origin) * 1e6,
                          (ends[i] - starts[i]) * 1e6))
        out.write("\n]}\n")
    return n
