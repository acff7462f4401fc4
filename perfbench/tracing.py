"""Outside-in tracing of fbpaths, installed from the benchmark's own files.

Nothing under src/ knows about it.  `Tracer.install()` replaces the public
entry points of each layer with thin wrappers, and rebinds every module
attribute that held the original function object, so `from .qpoly import
gaussian` sites (characters, transforms, the package re-exports) are traced
too.  Wrappers sit outside `lru_cache`, so hits and misses are both counted
and `cache_info()` of the original stays readable.

A span is (name, start, end, parent index).  Spans are kept in memory and
reduced to per-name totals by `drain()` when no span is open: at the end of a
process, after each pool task (pool workers are terminated without exit
hooks), and after each in-process benchmark op.  Self time is a span's
duration minus its direct child spans; busy time counts only spans with no
ancestor carrying the same busy key, so recursion and nested entry points
are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class.
SPANS = (
    ("fbpaths.qpoly", "gaussian", "qpoly.gaussian"),
    ("fbpaths.qpoly", "gaussian_modified", "qpoly.gaussian"),
    ("fbpaths.qpoly", "div_exact", "qpoly.div_exact"),
    ("fbpaths.qpoly", "QPoly.__mul__", "qpoly.mul"),
    ("fbpaths.model", "continued_fraction", "model.continued_fraction"),
    ("fbpaths.paths", "Path.__post_init__", "paths.path_init"),
    ("fbpaths.paths", "striking_sequence", "paths.striking"),
    ("fbpaths.paths", "path_stats", "paths.stats"),
    ("fbpaths.paths", "weight_wt", "paths.weight"),
    ("fbpaths.paths", "weight_wtilde", "paths.weight"),
    ("fbpaths.paths", "weight_from_striking", "paths.weight"),
    ("fbpaths.paths", "chi", "paths.chi"),
    ("fbpaths.paths", "chi_tilde", "paths.chi_tilde"),
    ("fbpaths.paths", "chi_tilde_by_m", "paths.chi_tilde"),
    ("fbpaths.transforms", "b1", "transforms.b1"),
    ("fbpaths.transforms", "b2", "transforms.b2"),
    ("fbpaths.transforms", "b3", "transforms.b3"),
    ("fbpaths.transforms", "decompose", "transforms.decompose"),
    ("fbpaths.transforms", "d_transform", "transforms.d"),
    ("fbpaths.transforms", "extend_left", "transforms.edge"),
    ("fbpaths.transforms", "extend_right", "transforms.edge"),
    ("fbpaths.transforms", "truncate_left", "transforms.edge"),
    ("fbpaths.transforms", "truncate_right", "transforms.edge"),
    ("fbpaths.transforms", "move_particle_once", "transforms.move"),
    ("fbpaths.transforms", "reverse_particle_move", "transforms.move"),
    ("fbpaths.transforms", "verify_b_bijection", "transforms.verify"),
    ("fbpaths.transforms", "verify_bd_bijection", "transforms.verify"),
    ("fbpaths.characters", "bosonic", "characters.bosonic"),
    ("fbpaths.characters", "fermionic_classical", "characters.fermionic"),
    ("fbpaths.characters", "fermionic_modified", "characters.fermionic"),
    ("fbpaths.characters", "build_system", "characters.build_system"),
    ("fbpaths.cli", "_identity_record", "cli.record"),
)

# Generators: items yielded, and seconds from the call to exhaustion.  The
# second is a busy time only for generators that are drained at once
# (`list(iter_identity_tasks(...))`).
GENERATORS = (
    ("fbpaths.paths", "iter_height_seqs", "paths.seqs"),
    ("fbpaths.characters", "_iter_admissible_m", "characters.mvec"),
    ("fbpaths.cli", "iter_identity_tasks", "cli.tasks"),
)

# Functions whose result length is counted (no span, so the caller's self
# time keeps the work).
RESULT_LENGTHS = (
    ("fbpaths.characters", "fermionic_terms", "characters.summands_kept"),
)

# Span names that also count toward a layer-level busy key.
GROUPS = {
    "paths.path_init": "paths.kernel",
    "paths.striking": "paths.kernel",
    "paths.stats": "paths.kernel",
    "paths.weight": "paths.kernel",
}

# Span names whose wrapped lru_cache objects give a hit ratio (cache_info()).
CACHED = ("qpoly.gaussian", "characters.build_system")


def _resolve(module: str, attr: str):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


class Tracer:
    """Span recorder and per-name totals for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.gen: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.lengths: dict[str, int] = defaultdict(int)
        self.cached: dict[str, list] = defaultdict(list)
        self.cache_tot: dict[str, list] = defaultdict(lambda: [0, 0])
        self.cache_base: dict[int, tuple[int, int]] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers keep these objects)."""
        for d in (self.calls, self.busy, self.self_s, self.lengths, self.cache_tot):
            d.clear()
        for acc in self.gen.values():
            acc[0], acc[1] = 0, 0.0
        self.spans.clear()
        self.stack.clear()
        self.cache_base = {id(f): self._info(f) for fs in self.cached.values() for f in fs}

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _generator(self, fn, name: str):
        acc = self.gen[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            for item in fn(*args, **kwargs):
                acc[0] += 1
                yield item
            acc[1] += clock() - t0
        return wrapper

    def _length(self, fn, name: str):
        lengths = self.lengths

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            lengths[name] += len(out)
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every entry point listed above in all loaded fbpaths modules."""
        import fbpaths.cli  # noqa: F401  (loads every submodule)
        plan = [(SPANS, self._span), (GENERATORS, self._generator),
                (RESULT_LENGTHS, self._length)]
        for table, make in plan:
            for module, attr, name in table:
                owner, key = _resolve(module, attr)
                orig = getattr(owner, key)
                if name in CACHED:
                    self.cached[name].append(orig)
                wrapped = make(orig, name)
                if isinstance(owner, type):
                    for k, v in list(vars(owner).items()):
                        if v is orig:
                            setattr(owner, k, wrapped)
                else:
                    self._rebind(orig, wrapped)
        self.reset()
        # a forked pool worker starts from zero; it inherits warm caches only
        os.register_at_fork(after_in_child=self.reset)

    @staticmethod
    def _rebind(orig, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None:
                continue
            if not (mod_name == "fbpaths" or mod_name.startswith("fbpaths.")):
                continue
            for k, v in list(vars(mod).items()):
                if v is orig:
                    setattr(mod, k, wrapped)

    # -- caches -------------------------------------------------------------

    @staticmethod
    def _info(fn) -> tuple[int, int]:
        info = fn.cache_info()
        return info.hits, info.misses

    def fold_caches(self) -> None:
        """Add the cache hits/misses since the last fold to the totals."""
        for name, fns in self.cached.items():
            tot = self.cache_tot[name]
            for f in fns:
                hits, misses = self._info(f)
                h0, m0 = self.cache_base.get(id(f), (0, 0))
                tot[0] += hits - h0
                tot[1] += misses - m0
                self.cache_base[id(f)] = (hits, misses)

    def caches_cleared(self) -> None:
        """Call after cache_clear(): the lru counters restart from zero."""
        for fns in self.cached.values():
            for f in fns:
                self.cache_base[id(f)] = (0, 0)

    # -- reduction ----------------------------------------------------------

    def drain(self) -> None:
        """Reduce the finished spans into totals; only valid with no open span."""
        if self.stack:
            raise RuntimeError("drain() with an open span")
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        empty = frozenset()
        active: list[frozenset] = []
        for i, (name, t0, t1, parent) in enumerate(spans):
            d = t1 - t0
            keys = _KEYS[name]
            anc = active[parent] if parent >= 0 else empty
            for k in keys:
                if k not in anc:
                    self.busy[k] += d
            active.append(anc if keys <= anc else anc | keys)
            self.calls[name] += 1
            self.self_s[name] += d - child[i]
        spans.clear()

    def snapshot(self) -> dict:
        self.drain()
        self.fold_caches()
        return {
            "calls": dict(self.calls), "busy": dict(self.busy),
            "self": dict(self.self_s), "lengths": dict(self.lengths),
            "gen": {k: list(v) for k, v in self.gen.items()},
            "cache": {k: list(v) for k, v in self.cache_tot.items()},
        }

    def dump(self, directory: str) -> None:
        """Write this process's totals to <directory>/<pid>.json (atomic)."""
        path = os.path.join(directory, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


_KEYS = defaultdict(frozenset)
for _, _, _name in SPANS:
    _KEYS[_name] = frozenset({_name, GROUPS[_name]} if _name in GROUPS else {_name})


def merge(snapshots) -> dict:
    """Sum snapshots from several processes."""
    out = {"calls": defaultdict(int), "busy": defaultdict(float),
           "self": defaultdict(float), "lengths": defaultdict(int),
           "gen": defaultdict(lambda: [0, 0.0]), "cache": defaultdict(lambda: [0, 0])}
    for snap in snapshots:
        for key in ("calls", "busy", "self", "lengths"):
            for k, v in snap[key].items():
                out[key][k] += v
        for key in ("gen", "cache"):
            for k, (x, y) in snap[key].items():
                out[key][k][0] += x
                out[key][k][1] += y
    return out


def read_dir(directory: str) -> dict:
    snaps = []
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".json"):
            with open(os.path.join(directory, fname)) as fh:
                snaps.append(json.load(fh))
    return merge(snaps)


def layer_shares(totals: dict) -> dict[str, float]:
    """Each layer's self time (the module before the first dot of a span
    name) as a share of all traced self time."""
    per_layer: dict[str, float] = defaultdict(float)
    for name, s in totals["self"].items():
        per_layer[name.split(".")[0]] += s
    total = sum(per_layer.values())
    return {k: v / total for k, v in per_layer.items()} if total else {}
