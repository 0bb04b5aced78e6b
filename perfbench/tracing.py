"""Spans around the library's layers, patched in from outside.

`Tracer.install` wraps each traced function or method wherever callers
look it up: methods on their class, module functions in every library
module that imported them. A span records its name, start, end, parent
and phase, and a value taken from the result (hits, terms, positions,
entries). Spans stay in memory until `save`. `ArgRmq.query` and the
context-group lookups are only counted, since they are too frequent to
span.

Memory is the size of what each layer leaves in the built structures,
found by walking them after the build (`retained_bytes`). tracemalloc
would give peaks, but it slowed the setup of pm-periodic about 19 times,
past the time a run may take.
"""

from __future__ import annotations

import sys
import time
from array import array
from types import FunctionType, ModuleType

import numpy as np

from ephemedit import (
    ephemeral_index,
    pattern_trees,
    pm_block_delete,
    pm_ephemeral_edits,
    predecessor_sets,
    prefix_suffix,
    suffix_tree,
    text_core,
)

PHASES = ("setup", "pattern", "query")


def _hit(result) -> int:
    return result is not None


def _count(result) -> int:
    return result.count


def _entries(result) -> int:
    return sum(len(v) for v in result.values())


# (span name, owner, attribute, value taken from the result)
TARGETS = [
    ("text_core.suffix_array", text_core, "suffix_array", None),
    ("text_core.lcp", text_core, "lcp_array", None),
    ("text_core.rmq_build", text_core.ArgRmq, "__init__", None),
    ("text_core.text_index", text_core.TextIndex, "__init__", None),
    ("text_core.report_starts", text_core.TextIndex, "report_starts", len),
    ("suffix_tree.build", suffix_tree.SuffixTree, "__init__", None),
    ("suffix_tree.links", suffix_tree.SuffixTree, "ensure_suffix_links", None),
    ("suffix_tree.matching_statistics", suffix_tree, "matching_statistics", None),
    ("suffix_tree.marked_gst", suffix_tree, "build_marked_gst", None),
    ("pattern_trees.tree_p", pattern_trees, "build_tree_p", None),
    ("pattern_trees.decompose", pattern_trees, "decompose_disjoint", None),
    ("pattern_trees.context_groups", pattern_trees, "build_context_groups", _entries),
    ("predecessor_sets.build", predecessor_sets.PredSet, "__init__", None),
    ("predecessor_sets.cover", predecessor_sets.PredSet, "cover", _hit),
    ("prefix_suffix.build", prefix_suffix.PrefSufIndex, "__init__", None),
    ("prefix_suffix.query", prefix_suffix.PrefSufIndex, "query", _count),
    ("ephemeral_index.text", ephemeral_index.EphemeralTextIndex, "__init__", None),
    ("ephemeral_index.pattern", ephemeral_index.PatternHandle, "__init__", None),
    ("ephemeral_index.query", ephemeral_index, "occurrences_after", len),
    ("pm_block_delete.build", pm_block_delete.BlockDeleteMatcher, "__init__", None),
    ("pm_block_delete.query", pm_block_delete.BlockDeleteMatcher, "occurrences_after_delete", len),
    ("pm_ephemeral_edits.sma_build", pm_ephemeral_edits.Sma, "__init__", None),
    ("pm_ephemeral_edits.build", pm_ephemeral_edits.EditMatcher, "__init__", None),
    ("pm_ephemeral_edits.query", pm_ephemeral_edits.EditMatcher, "occurrences_after_edit", len),
]
NAMES = [t[0] for t in TARGETS]


class _CountedGroups:
    """Stands in for the context-group table of one pattern, counting
    lookups and hits. Queries only call ``get`` on the table."""

    __slots__ = ("table", "counts")

    def __init__(self, table: dict, counts: list[int]):
        self.table = table
        self.counts = counts

    def get(self, key, default=None):
        counts = self.counts
        counts[0] += 1
        found = self.table.get(key)
        if found is None:
            return default
        counts[1] += 1
        return found


class Tracer:
    def __init__(self):
        self.phase = 0
        self.next_id = 0
        self.stack: list[int] = []
        self.ids = array("q")
        self.names = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.phases = array("b")
        self.values = array("q")
        self.sizes: dict[tuple[str, int], int] = {}  # (layer, phase) -> bytes
        self.measured = [0, 0]  # handles measured in the setup and pattern phases
        self.rmq_queries = 0
        self.group_counts = [0, 0]  # lookups, hits
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, measure):
        tr = self
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            value = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                tr.ids.append(sid)
                tr.names.append(name_id)
                tr.starts.append(t0)
                tr.ends.append(t1)
                tr.parents.append(parent)
                tr.phases.append(tr.phase)
                tr.values.append(value)

        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, handles=()) -> None:
        """Wrap the library's layers, and count the group lookups made on
        each of ``handles``."""
        for handle in handles:
            self.count_groups(handle)
        if self._saved:
            return
        for name_id, (_, owner, attr, measure) in enumerate(TARGETS):
            orig = getattr(owner, attr)
            wrapped = self._wrap(name_id, orig, measure)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            # A module function: replace it wherever a library module
            # imported it, since callers look it up in their own module.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("ephemedit") and getattr(mod, attr, None) is orig:
                    self._set(mod, attr, wrapped)

        tr = self
        rmq_query = text_core.ArgRmq.query

        def counted_query(self_, lo, hi):
            tr.rmq_queries += 1
            return rmq_query(self_, lo, hi)

        self._set(text_core.ArgRmq, "query", counted_query)

    def uninstall(self, handles=()) -> None:
        """Put the library's layers, and the group tables of ``handles``,
        back as they were."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        for handle in handles:
            groups = getattr(handle, "groups", None)
            if isinstance(groups, _CountedGroups):
                handle.groups = groups.table

    def count_groups(self, handle) -> None:
        """Count the context-group lookups queries make on ``handle``."""
        groups = getattr(handle, "groups", None)
        if groups is not None and not isinstance(groups, _CountedGroups):
            handle.groups = _CountedGroups(groups, self.group_counts)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays indexed by span id."""
        order = np.argsort(np.asarray(self.ids), kind="stable")
        out = {}
        for key in ("names", "starts", "ends", "parents", "phases", "values"):
            out[key] = np.asarray(getattr(self, key))[order]
        out["self_ns"] = self_times(out["starts"], out["ends"], out["parents"])
        return out

    def measure(self, handle, phase: int) -> None:
        """Add the sizes of what ``handle`` holds, by layer, to ``phase``."""
        self.measured[phase] += 1
        for layer, size in retained_bytes(handle, setup=phase == 0).items():
            key = (layer, phase)
            self.sizes[key] = self.sizes.get(key, 0) + size

    def save(self, path) -> None:
        np.savez_compressed(path, span_names=np.array(NAMES), phase_names=np.array(PHASES), **self.arrays())


def deep_size(roots, seen: set[int]) -> int:
    """Bytes of every object reachable from ``roots`` and not in ``seen``."""
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif not isinstance(obj, (str, bytes, int, float, array, np.ndarray)):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return total


def retained_bytes(handle, setup: bool) -> dict[str, int]:
    """What a prepared pattern holds, by the layer that built it.

    With ``setup`` the text-side layers are measured too; otherwise only
    the pattern's own structures: its two pattern trees and its context
    groups, including the groups' predecessor sets.
    """
    seen: set[int] = set()
    out = {}
    if isinstance(handle, ephemeral_index.PatternHandle):
        eti = handle.eti
        if setup:
            out["text_core"] = deep_size([eti.fwd, eti.rev], seen)
            out["suffix_tree"] = deep_size([eti.st_fwd, eti.st_rev], seen)
        else:
            seen.update(id(x) for x in handle.pattern)
        out["pattern_trees"] = deep_size([handle.tree_fwd, handle.tree_rev, handle.groups], seen)
    elif setup:
        # The matcher keeps no suffix tree, only the tables read off its
        # joint trees.
        out["text_core"] = deep_size([handle.idx], seen)
        out["suffix_tree"] = deep_size([handle.lsp, handle.lpf], seen)
    return out


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = (ends - starts).astype(np.float64)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child[: len(dur)]


def layer_metrics(tracer: Tracer, setups: int, patterns: int, ops: int, overhead: float) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Build metrics of the text and its trees are per setup (the setup phase
    spans ``setups`` setups); pattern metrics are per pattern prepared
    after the first; query metrics are per traced op or per call.
    """
    arrs = tracer.arrays()
    names, phases, self_s = arrs["names"], arrs["phases"], arrs["self_ns"] / 1e9
    values = arrs["values"]
    sel = {}

    def pick(name: str, phase: str):
        key = (name, phase)
        if key not in sel:
            sel[key] = (names == NAMES.index(name)) & (phases == PHASES.index(phase))
        return sel[key]

    def total(name, phase, what=self_s):
        return float(what[pick(name, phase)].sum())

    def calls(name, phase="query"):
        return int(pick(name, phase).sum())

    def mean_us(name):
        c = calls(name)
        return total(name, "query") / c * 1e6 if c else 0.0

    def size(layer, phase):
        """Mean bytes per measured handle."""
        i = PHASES.index(phase)
        return per(tracer.sizes.get((layer, i), 0), tracer.measured[i])

    def per(x, k):
        return x / k if k else 0.0

    mb = 1 << 20
    s, p = setups, patterns
    cover_calls = calls("predecessor_sets.cover")
    ps_calls = calls("prefix_suffix.query")
    rs_calls = calls("text_core.report_starts")
    lookups, hits = tracer.group_counts
    rmq = tracer.rmq_queries
    out = {
        "text_core.suffix_array_s": (per(total("text_core.suffix_array", "setup"), s), "s"),
        "text_core.lcp_s": (per(total("text_core.lcp", "setup"), s), "s"),
        "text_core.rmq_build_s": (per(total("text_core.rmq_build", "setup"), s), "s"),
        "text_core.build_mb": (size("text_core", "setup") / mb, "MB"),
        "suffix_tree.build_s": (per(total("suffix_tree.build", "setup"), s), "s"),
        "suffix_tree.links_s": (per(total("suffix_tree.links", "setup"), s), "s"),
        "suffix_tree.build_mb": (size("suffix_tree", "setup") / mb, "MB"),
        "suffix_tree.marked_gst_s": (per(total("suffix_tree.marked_gst", "setup"), s), "s"),
        "suffix_tree.matching_statistics_s": (per(total("suffix_tree.matching_statistics", "pattern"), p), "s"),
        "pattern_trees.tree_p_s": (per(total("pattern_trees.tree_p", "pattern"), p), "s"),
        "pattern_trees.decompose_s": (per(total("pattern_trees.decompose", "pattern"), p), "s"),
        "pattern_trees.context_groups_s": (per(total("pattern_trees.context_groups", "pattern"), p), "s"),
        "pattern_trees.group_entries": (per(total("pattern_trees.context_groups", "pattern", values), p), "count"),
        "pattern_trees.build_mb": (size("pattern_trees", "pattern") / mb, "MB"),
        "predecessor_sets.build_s": (per(total("predecessor_sets.build", "pattern"), p), "s"),
        "predecessor_sets.sets": (per(calls("predecessor_sets.build", "pattern"), p), "count"),
        "predecessor_sets.cover_us": (mean_us("predecessor_sets.cover"), "us"),
        "predecessor_sets.cover_calls": (per(cover_calls, ops), "count"),
        "predecessor_sets.cover_hit_ratio": (
            per(total("predecessor_sets.cover", "query", values), cover_calls), "ratio"),
        "prefix_suffix.build_s": (per(total("prefix_suffix.build", "pattern"), p), "s"),
        "prefix_suffix.query_us": (mean_us("prefix_suffix.query"), "us"),
        "prefix_suffix.query_calls": (per(ps_calls, ops), "count"),
        "prefix_suffix.terms_per_query": (per(total("prefix_suffix.query", "query", values), ps_calls), "count"),
        "text_core.report_starts_us": (mean_us("text_core.report_starts"), "us"),
        "text_core.report_starts_calls": (per(rs_calls, ops), "count"),
        "text_core.rmq_queries": (per(rmq, ops), "count"),
        "text_core.report_yield": (
            per(total("text_core.report_starts", "query", values), rmq), "ratio"),
        "ephemeral_index.query_self_us": (mean_us("ephemeral_index.query"), "us"),
        "ephemeral_index.group_hit_ratio": (per(hits, lookups), "ratio"),
        "pm_ephemeral_edits.sma_build_s": (per(total("pm_ephemeral_edits.sma_build", "pattern"), p), "s"),
        "pm_ephemeral_edits.query_self_us": (mean_us("pm_ephemeral_edits.query"), "us"),
        "pm_block_delete.query_self_us": (mean_us("pm_block_delete.query"), "us"),
        "trace.query_overhead_ratio": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
