"""Span tracing installed from outside the program, for the traced run.

:class:`Tracer` wraps the public functions of each layer, plus the page
parse that counts decodes (module-level functions, and methods looked up
in the owning class's ``__dict__``), with a recorder, and puts the
originals back on :meth:`Tracer.uninstall`.
Nothing in ``src/`` knows about it: the untraced run installs nothing,
and the wrappers only time and count, so the engine takes the same
branches either way (``Kernel.supports_batch`` compares method identity;
wrapping the base and every override keeps that comparison's answer).

Each call becomes a span with a name, start, end, parent span and the
``query_id`` of the ``GTSEngine.run`` it ran under.  Calls made once
per page (``FINE`` targets) are folded into per-(name, query) totals
instead of one record each, so a served run stays a few MB of spans;
their time still counts as child time of the enclosing span, so self
times stay exact.  Everything stays in memory until :meth:`dump`.
"""

import functools
import importlib
import itertools
import json
import threading
import time

#: Span names whose calls are folded into per-(name, query) totals.
FINE = frozenset({
    "kernels.page", "streams.cached", "streams.streamed",
    "format.page", "format.prefetch", "format.decode",
})


def _targets():
    """(owner, attribute, span name, hook) for every wrapped function."""
    import repro.dynamic
    from repro.core.engine import GTSEngine
    from repro.core.kernels.base import Kernel
    from repro.core.plan import PagePlan
    from repro.core.result import RunResult
    from repro.core.strategies import Strategy
    from repro.core.streams import StreamScheduler
    from repro.dynamic.delta import DynamicGraphDatabase
    from repro.format.io import FileBackedDatabase

    out = [
        (GTSEngine, "run", "engine.run", _hook_run),
        (StreamScheduler, "dispatch_round", "streams.round", None),
        (StreamScheduler, "dispatch_cached", "streams.cached", None),
        (StreamScheduler, "dispatch_streamed", "streams.streamed", None),
        (PagePlan, "round_batch", "plan.gather", _hook_gather),
        (PagePlan, "__init__", "plan.build", None),
        (FileBackedDatabase, "page", "format.page", None),
        (FileBackedDatabase, "prefetch", "format.prefetch", None),
        (FileBackedDatabase, "_parse_page", "format.decode", None),
        (DynamicGraphDatabase, "apply", "dynamic.apply", None),
        (DynamicGraphDatabase, "pin", "dynamic.pin", None),
        (RunResult, "to_dict", "service.serialize", None),
    ]
    # By module object: ``repro.dynamic.compact`` names the re-exported
    # ``compact`` function, which shadows the submodule of that name.
    delta = importlib.import_module("repro.dynamic.delta")
    compact = importlib.import_module("repro.dynamic.compact")
    for module in (repro.dynamic, delta):
        out.append((module, "open_dynamic_database", "format.open",
                    _hook_open))
    for module in (repro.dynamic, compact):
        out.append((module, "maybe_compact", "dynamic.compact",
                    _hook_compact))
    for cls in _family(Kernel):
        for attr, name in (("process_batch", "kernels.batch"),
                           ("process_page", "kernels.page"),
                           ("next_round", "kernels.frontier"),
                           ("finish_round", "kernels.frontier")):
            out.append((cls, attr, name, None))
    for cls in _family(Strategy):
        for attr in ("book_sync", "book_wa_broadcast"):
            out.append((cls, attr, "strategies.sync", None))
    return out


def _family(cls):
    """``cls`` and every subclass loaded so far (all kernel modules are
    imported by ``repro.core``)."""
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _hook_run(tracer, args, kwargs, result, frame):
    tracer.results.append({
        "query_id": frame[4],
        "execution": result.execution,
        "elapsed_seconds": result.elapsed_seconds,
        "num_rounds": result.num_rounds,
        "edges_traversed": result.edges_traversed,
        "pages_streamed": result.pages_streamed,
        "pool_hits": result.pool_hits,
        "pool_misses": result.pool_misses,
        "snapshot_version": result.snapshot_version,
    })


def _hook_gather(tracer, args, kwargs, result, frame):
    frame[5] = len(args[1])


def _hook_open(tracer, args, kwargs, result, frame):
    tracer.databases.append(result)


def _hook_compact(tracer, args, kwargs, result, frame):
    if result is not None:
        frame[5] = 1


class Tracer:
    """Records spans around layer functions while installed."""

    def __init__(self):
        self.records = []       # finished coarse spans, as dicts
        self.results = []       # RunResult summaries seen by engine.run
        self.databases = []     # handles returned by open_dynamic_database
        #: query_id given to engine.run spans whose caller passed none
        #: (the one-shot workload tags its runs this way).
        self.default_query_id = None
        self._folded = []       # per-thread {(name, qid): [n, total, self]}
        self._folded_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed = []

    # -- installation -------------------------------------------------
    def install(self):
        """Wrap every layer function."""
        for owner, attr, name, hook in _targets():
            original = vars(owner).get(attr)
            if not callable(original):
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
            self._installed.append((owner, attr, original))
        return self

    def uninstall(self):
        """Put every original function back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.folded = {}
            with self._folded_lock:
                self._folded.append(local.folded)
        return local

    def _wrap(self, fn, name, hook):
        tracer = self
        fine = name in FINE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            parent = stack[-1] if stack else None
            if name == "engine.run":
                qid = kwargs.get("query_id") or tracer.default_query_id
            else:
                qid = parent[4] if parent is not None else None
            # frame: id, name, start, child seconds, query id, work
            frame = [0 if fine else next(tracer._ids), name, 0.0, 0.0,
                     qid, None]
            stack.append(frame)
            frame[2] = start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, out, frame)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                nested = parent is not None and parent[1] == name
                if parent is not None:
                    parent[3] += duration
                if fine:
                    entry = local.folded.setdefault((name, qid),
                                                    [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += 0.0 if nested else duration
                    entry[2] += duration - frame[3]
                else:
                    tracer.records.append({
                        "id": frame[0], "name": name,
                        "start": start, "end": end,
                        "self": duration - frame[3],
                        "parent": parent[0] if parent is not None else None,
                        "nested": nested, "query_id": qid,
                        "work": frame[5],
                        "thread": threading.get_ident()})
        return wrapper

    # -- output -------------------------------------------------------
    def folded(self):
        """Per-(name, query) totals of the fine spans, merged."""
        merged = {}
        with self._folded_lock:
            tables = list(self._folded)
        for table in tables:
            for (name, qid), (count, total, own) in list(table.items()):
                entry = merged.setdefault((name, qid), [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += own
        return [{"name": name, "query_id": qid, "count": count,
                 "total": total, "self": own}
                for (name, qid), (count, total, own) in sorted(
                    merged.items(), key=lambda kv: (kv[0][0],
                                                    str(kv[0][1])))]

    def counters(self):
        """Host counters read off the databases the program opened."""
        out = {"bytes_read": 0, "reclaimed_versions": 0}
        for db in self.databases:
            base = getattr(db, "_base", db)
            out["bytes_read"] += getattr(base, "host_bytes_read", 0)
            if hasattr(db, "mvcc_stats"):
                out["reclaimed_versions"] += int(
                    db.mvcc_stats().get("reclaimed_versions", 0))
        return out

    def dump(self, path):
        """Write every span, folded total and counter as JSON."""
        with open(path, "w") as handle:
            json.dump({"spans": self.records, "folded": self.folded(),
                       "results": self.results,
                       "counters": self.counters()}, handle)


def _total(spans, names):
    """Busy seconds of ``names``: outermost spans only."""
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] in names and not s["nested"])


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return (values[mid] if len(values) % 2
            else (values[mid - 1] + values[mid]) / 2.0)


def self_times(trace):
    """Self seconds per span name, coarse and folded together."""
    out = {}
    for span in trace["spans"]:
        out[span["name"]] = out.get(span["name"], 0.0) + span["self"]
    for entry in trace["folded"]:
        out[entry["name"]] = out.get(entry["name"], 0.0) + entry["self"]
    return out


def layer_metrics(trace, client_ms=None, stats=None):
    """Per-layer metrics from a dumped trace.

    ``client_ms`` maps query_id to the latency the caller observed
    (for ``service.overhead_ms``); ``stats`` is the service's ``/stats``
    snapshot at the end of the run, or None for the one-shot workload.
    Returns ``{name: (value, unit)}``.
    """
    spans = trace["spans"]
    folded = trace["folded"]
    results = trace["results"]

    def fold(names, field):
        return sum(e[field] for e in folded if e["name"] in names)

    def durations(name):
        return [s["end"] - s["start"] for s in spans
                if s["name"] == name and not s["nested"]]

    runs = [s for s in spans if s["name"] == "engine.run"]
    kernel_s = _total(spans, {"kernels.batch"}) + fold({"kernels.page"},
                                                       "total")
    edges = sum(r["edges_traversed"] for r in results)
    pool_hits = sum(r["pool_hits"] for r in results)
    pool_all = pool_hits + sum(r["pool_misses"] for r in results)
    plan_hits = plan_builds = 0
    shared = {}
    gate_wait = peak_queued = 0.0
    if stats is not None:
        for db in stats.get("databases", {}).values():
            plan_hits += db["plan_cache"]["hits"]
            plan_builds += db["plan_cache"]["builds"]
            shared = db["shared_cache"]
            gate_wait += (db["gate"]["reader_wait_seconds"]
                          + db["gate"]["writer_wait_seconds"])
        peak_queued = stats.get("peak_queued", 0)
    else:
        plan_builds = len(durations("plan.build"))
        plan_hits = len(runs) - plan_builds
    shared_lookups = shared.get("hits", 0) + shared.get("misses", 0)
    run_by_query = {s["query_id"]: s["end"] - s["start"] for s in runs}
    overhead = [client_ms[q] - 1000.0 * run_by_query[q]
                for q in (client_ms or {}) if q in run_by_query]
    counters = trace["counters"]
    return {
        "engine.run_ms": (1000.0 * _median(durations("engine.run")), "ms"),
        "engine.self_ms": (1000.0 * _median([s["self"] for s in runs]),
                           "ms"),
        "engine.rounds": (sum(r["num_rounds"] for r in results), "count"),
        "kernels.batch_s": (_total(spans, {"kernels.batch"}), "s"),
        "kernels.edges_per_s": (edges / kernel_s if kernel_s else 0.0,
                                "1/s"),
        "kernels.page_s": (fold({"kernels.page"}, "total"), "s"),
        "kernels.pages_paged": (fold({"kernels.page"}, "count"), "count"),
        "kernels.frontier_s": (_total(spans, {"kernels.frontier"}), "s"),
        "streams.round_s": (_total(spans, {"streams.round"}), "s"),
        "streams.page_s": (fold({"streams.cached", "streams.streamed"},
                                "total"), "s"),
        "streams.pages": (sum(r["pages_streamed"] for r in results),
                          "count"),
        "strategies.sync_s": (_total(spans, {"strategies.sync"}), "s"),
        "plan.gather_s": (_total(spans, {"plan.gather"}), "s"),
        "plan.gather_pages": (sum(s["work"] or 0 for s in spans
                                  if s["name"] == "plan.gather"), "count"),
        "plan.build_s": (_total(spans, {"plan.build"}), "s"),
        "plan.builds": (plan_builds, "count"),
        "plan.hit_rate": (plan_hits / (plan_hits + plan_builds)
                          if plan_hits + plan_builds else 0.0, "ratio"),
        "format.open_s": (_total(spans, {"format.open"}), "s"),
        "format.page_s": (fold({"format.page", "format.prefetch"},
                               "total"), "s"),
        "format.page_calls": (fold({"format.page"}, "count"), "count"),
        "format.decodes": (fold({"format.decode"}, "count"), "count"),
        "format.pool_hit_rate": (pool_hits / pool_all if pool_all else 0.0,
                                 "ratio"),
        "format.bytes_read": (counters["bytes_read"], "B"),
        "cache.shared_hit_rate": (shared.get("hits", 0) / shared_lookups
                                  if shared_lookups else 0.0, "ratio"),
        "cache.shared_evictions": (shared.get("evictions", 0), "count"),
        "dynamic.apply_ms": (1000.0 * _median(durations("dynamic.apply")),
                             "ms"),
        "dynamic.compact_s": (_total(spans, {"dynamic.compact"}), "s"),
        "dynamic.compactions": (sum(s["work"] or 0 for s in spans
                                    if s["name"] == "dynamic.compact"),
                                "count"),
        "dynamic.pin_ms": (1000.0 * _median(durations("dynamic.pin")),
                           "ms"),
        "dynamic.reclaimed_versions": (counters["reclaimed_versions"],
                                       "count"),
        "service.overhead_ms": (_median(overhead), "ms"),
        "service.serialize_ms": (
            1000.0 * _median(durations("service.serialize")), "ms"),
        "service.gate_wait_s": (gate_wait, "s"),
        "service.peak_queued": (peak_queued, "count"),
    }
