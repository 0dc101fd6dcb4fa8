"""Spans and call counts around radixca's public functions, from outside.

The tracer replaces a function in every radixca module namespace that
binds it, so calls made through any of those names are seen, and puts the
originals back on uninstall. Two kinds of target:

  span  each call is kept in memory as a record
        (id, name, start, end, parent id, job, child_s, cpu_s)
  call  hot functions, called once per state or per map step; each call
        only adds to a per-name (calls, total_s, self_s) aggregate

Both kinds keep a stack, so a call's self time is its duration minus the
time its traced children cover, and the self times of all calls on the
main thread add up to the duration of the root span, cli.main. Calls made
from pool worker threads have no parent on that stack: they are counted
with their own thread's CPU time and stay out of the self-time sum.
A target the package does not have is skipped.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, attribute, span name, kind); attribute "a.b" patches b on object a
TARGETS = [
    ("cli", "main", "cli.main", "span"),
    ("cli", "json.dumps", "cli.serialise", "span"),
    ("cli", "_write", "cli.write", "span"),
    ("rules", "parse_rule", "rules.parse_rule", "span"),
    ("globaldyn", "transition_table", "globaldyn.transition_table", "span"),
    ("globaldyn", "samples_to_csv", "globaldyn.samples_to_csv", "span"),
    ("globaldyn", "attractors", "globaldyn.attractors", "span"),
    ("globaldyn", "gardens_of_eden", "globaldyn.gardens_of_eden", "span"),
    ("globaldyn", "characteristic_value", "globaldyn.characteristic_value", "call"),
    ("lattice", "evolve", "lattice.evolve", "span"),
    ("lattice", "SpacetimeRaster.to_pgm", "lattice.to_pgm", "span"),
    ("lattice", "raster_from_indices", "lattice.raster_from_indices", "span"),
    ("lattice", "step", "lattice.step", "call"),
    ("digits", "digits_lsd", "digits.digits_lsd", "call"),
    ("digits", "from_digits", "digits.from_digits", "call"),
    ("realmap", "orbit_report", "realmap.orbit_report", "span"),
    ("realmap", "evolve_indices", "realmap.evolve_indices", "span"),
    ("realmap", "bifurcation_scan", "realmap.bifurcation_scan", "span"),
    ("realmap", "bifurcation_csv", "realmap.bifurcation_csv", "span"),
    ("realmap", "induced_ca_step", "realmap.induced_ca_step", "call"),
    ("realmap", "logistic_ca_step", "realmap.logistic_ca_step", "call"),
]


class _Namespace:
    """Stand-in for a module bound in a radixca namespace: one attribute
    replaced, every other read forwarded to the module."""

    def __init__(self, real, name: str, value) -> None:
        self._real = real
        setattr(self, name, value)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


def _image_bytes(table) -> int:
    """Bytes held by a transition table's image: the container, plus each
    entry when the entries are separate int objects."""
    image = table.image
    if isinstance(image, (tuple, list)):
        return sys.getsizeof(image) + sum(map(sys.getsizeof, image))
    return sys.getsizeof(image)


# span name -> (what to keep from the call, measurement made after the job)
MEASURES = {
    "globaldyn.transition_table": ("result", _image_bytes),
    "cli.write": ("text", lambda text: len(text.encode("utf-8"))),
}


class Tracer:
    def __init__(self) -> None:
        self.job = None
        self.reset()
        self._stack: list[list] = []  # [child_s, id of the nearest span]
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.detached: dict[tuple, list] = {}  # (name, thread) -> [calls, cpu_s]
        self.measures: list[tuple] = []  # (job, name, value)
        self._kept: list[tuple] = []

    def end_job(self) -> None:
        """Make the measurements deferred to the end of the current job."""
        for name, obj in self._kept:
            self.measures.append((self.job, name, MEASURES[name][1](obj)))
        self._kept = []

    # --- patching ------------------------------------------------------

    def install(self) -> None:
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if (name == "radixca" or name.startswith("radixca.")) and mod is not None
        }
        for module, attr, name, kind in TARGETS:
            if module not in modules:
                continue
            head, _, leaf = attr.rpartition(".")
            owner = getattr(modules[module], head, None) if head else modules[module]
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name, kind == "span")
            if head and isinstance(owner, type):
                self._patch(owner, leaf, wrapped)
            elif head:  # a module bound under `head`: swap in a stand-in
                self._patch(modules[module], head, _Namespace(owner, leaf, wrapped))
            else:
                for mod in modules.values():
                    if getattr(mod, leaf, None) is original:
                        self._patch(mod, leaf, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- recording -----------------------------------------------------

    def _wrap(self, fn, name: str, record: bool):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        cpu = time.process_time
        main_thread = threading.main_thread().ident
        get_ident = threading.get_ident
        keep = MEASURES.get(name, (None,))[0]

        def detached(args, kwargs):
            # one aggregate per thread, so no update is shared between threads
            agg = tracer.detached.setdefault((name, get_ident()), [0, 0.0])
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                agg[0] += 1
                agg[1] += time.thread_time() - start

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != main_thread:
                return detached(args, kwargs)
            parent = stack[-1][1] if stack else None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
                frame = [0.0, span_id]
                cpu_start = cpu()
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                agg = tracer.stats.get(name)
                if agg is None:
                    agg = tracer.stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += took
                agg[2] += took - frame[0]
                if record:
                    tracer.spans.append((
                        span_id, name, start, end, parent, tracer.job,
                        frame[0], cpu() - cpu_start,
                    ))
            if keep == "result":
                tracer._kept.append((name, result))
            elif keep == "text":
                tracer._kept.append((name, args[1]))
            return result

        return wrapper
