"""Spans around qcorr's public functions, recorded from outside the package.

Tracer.install() replaces each listed function, in its defining module and in
every qcorr module that imported it by name (statefile.validate, for one),
with a wrapper that records a span: name, start, end, parent span and the
request (state) it served.  Spans stay in memory until the run writes them.
Nested calls are seen because the package calls these functions through
module attributes (is_sppt -> bipartite.is_ppt, cq_detect ->
commutator_criterion, discord_a -> mutual_information).

A layer's self time is its span's duration minus the durations of its direct
child spans; the calls are single threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer (qcorr module) -> its timed public functions; a name missing from a
# later version of the package is simply not wrapped and reports zero calls
LAYERS = {
    "bipartite": ("validate", "is_ppt"),
    "factorization": ("is_sppt", "factorize_2xn", "factorize_3xn"),
    "discord": ("discord_a", "mutual_information", "cq_detect", "commutator_criterion"),
    "statefile": ("read_statefile",),
    "analysis": ("analyze", "to_machine"),
}
SHAPED = ("factorization.is_sppt", "discord.cq_detect", "discord.discord_a")
SHAPES = ("2x1", "2x2", "2x4", "2x8", "3x2", "3x4")
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request)
        self.request = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.call_s: defaultdict = defaultdict(list)  # (name, shape) -> durations
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _count(self, name: str, result) -> None:
        """Counts the program already returns, summed at the span boundary."""
        if name == "discord.discord_a":
            self.counts["evals"] += int(getattr(result, "optimizer_evals", 0))
            self.counts["grid_evals"] += int(getattr(result, "grid_resolution", 0))
        elif name == "discord.cq_detect":
            self.counts["cq_positive"] += int(bool(getattr(result, "is_cq", False)))
        elif name == "factorization.is_sppt":
            self.counts["rank_deficient"] += int(bool(getattr(result, "rank_deficient", False)))

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                self.spans.append(
                    (span_id, name, start, end, None if parent is None else parent[0], self.request)
                )
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
            self._count(name, result)
            if name in SHAPED:
                self.call_s[(name, f"{args[0].dim_a}x{args[0].dim_b}")].append(dur)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "qcorr" or k.startswith("qcorr.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"qcorr.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    if vars(mod).get(fn_name) is original:
                        setattr(mod, fn_name, wrapped)
                        self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def snapshot(self) -> tuple:
        """Counts that a pass over identical inputs must reproduce exactly."""
        return (dict(self.calls), dict(self.counts))

    def write(self, path) -> None:
        """Write every span as JSON lines: id, name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
