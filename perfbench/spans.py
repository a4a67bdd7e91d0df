"""Per-layer spans for the traced run.

Each traced public function is replaced by a wrapper wherever a caller in
mquilt looks the name up (``mquilt.cli.release``, ``mquilt.storage.quilt_scores``
and so on), so the program itself is not edited. A span records its name,
start, end and parent; self time is the duration minus the time covered by
child spans. Counts are read from arguments and results at the same
boundary. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

# metric prefix -> (module defining it, function name, modules whose lookups
# are wrapped; None means every mquilt module that holds the function)
LAYERS = {
    "mechanism.quilt_scores": ("mquilt.mechanism", "quilt_scores", None),
    "mechanism.release": ("mquilt.mechanism", "release", None),
    "mechanism.unit_laplace": ("mquilt.mechanism", "unit_laplace", None),
    "chains.spectral": ("mquilt.chains", "spectral", None),
    "chains.validate": ("mquilt.chains", "validate", None),
    "storage.append_release": ("mquilt.storage", "append_release", None),
    "storage.read_ledger": ("mquilt.storage", "read_ledger", None),
    "storage.replay_search": ("mquilt.storage", "replay_search", None),
    "storage.load_model": ("mquilt.storage", "load_model", None),
    "storage.load_sequence": ("mquilt.storage", "load_sequence", None),
    "influence.influence_over_set": ("mquilt.influence", "influence_over_set", None),
    "oracle.enumerate_sequences": ("mquilt.oracle", "enumerate_sequences", None),
    "oracle.release_values": ("mquilt.oracle", "release_values", None),
    "oracle.empirical_epsilon": ("mquilt.oracle", "empirical_epsilon", None),
}
# Every accounting rule is one layer; only the CLI's lookups are wrapped, so
# a rule that falls back to another is one call, not two.
for _rule in (
    "compose_auto",
    "compose_sequential_mqm",
    "compose_sequential_legacy",
    "compose_sequential_general",
    "compose_parallel_general",
    "compose_parallel_mqm_approx",
):
    LAYERS[f"composition.compose:{_rule}"] = ("mquilt.composition", _rule, ("mquilt.cli",))

# Metrics reported per pass, in BENCHMARK.json order: name -> unit.
METRICS = {
    "mechanism.quilt_scores.s": "s",
    "mechanism.quilt_scores.calls": "count",
    "mechanism.quilt_scores.nodes": "count",
    "mechanism.release.s": "s",
    "mechanism.unit_laplace.s": "s",
    "mechanism.unit_laplace.calls": "count",
    "chains.spectral.s": "s",
    "chains.spectral.calls": "count",
    "chains.validate.s": "s",
    "chains.validate.calls": "count",
    "storage.append_release.s": "s",
    "storage.append_release.calls": "count",
    "storage.append_release.last_s": "s",
    "storage.entry_bytes": "bytes",
    "storage.ledger_bytes": "bytes",
    "storage.read_ledger.s": "s",
    "storage.read_ledger.calls": "count",
    "storage.read_ledger.entries": "count",
    "storage.replay_search.s": "s",
    "storage.load_model.s": "s",
    "storage.load_sequence.s": "s",
    "composition.compose.s": "s",
    "composition.compose.calls": "count",
    "influence.influence_over_set.s": "s",
    "influence.influence_over_set.calls": "count",
    "oracle.enumerate_sequences.s": "s",
    "oracle.release_values.s": "s",
    "oracle.empirical_epsilon.s": "s",
    "oracle.trajectories": "count",
}


def _layer(name: str) -> str:
    return name.split(":", 1)[0]


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.counts: dict[str, float] = {}
        self.appends: list[tuple[float, int, int]] = []  # (seconds, entry bytes, ledger bytes)
        self.passes: list[dict] = []
        self._mark = (0, 0, {})

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mquilt" and m]
        for name, (home, attr, where) in LAYERS.items():
            orig = getattr(sys.modules[home], attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                if where is not None and mod.__name__ not in where:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def _wrap(self, name: str, fn):
        layer = _layer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = _size(args[0]) if layer == "storage.append_release" else 0
            frame = [len(self.spans) + len(self.stack), layer, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                dur = end - frame[2]
                parent = self.stack[-1][0] if self.stack else -1
                if self.stack:
                    self.stack[-1][3] += dur
                self.spans.append((frame[0], parent, layer, frame[2], end, dur - frame[3]))
            self._count(layer, args, result, before, dur)
            return result

        return wrapper

    def _count(self, layer: str, args, result, before: int, dur: float) -> None:
        c = self.counts
        c[layer + ".calls"] = c.get(layer + ".calls", 0) + 1
        if layer == "mechanism.quilt_scores":
            c[layer + ".nodes"] = c.get(layer + ".nodes", 0) + sum(len(q) for q in result[1].values())
        elif layer == "storage.read_ledger":
            c[layer + ".entries"] = c.get(layer + ".entries", 0) + len(result)
        elif layer == "oracle.enumerate_sequences":
            c["oracle.trajectories"] = c.get("oracle.trajectories", 0) + len(result)
        elif layer == "storage.append_release":
            after = _size(args[0])
            self.appends.append((dur, after - before, after))

    # ------------------------------------------------------------- passes

    def end_pass(self) -> None:
        """Close one pass of the fixed operation list and keep its totals."""
        n_spans, n_appends, counts = self._mark
        self_s: dict[str, float] = {}
        for span in self.spans[n_spans:]:
            self_s[span[2]] = self_s.get(span[2], 0.0) + span[5]
        appends = self.appends[n_appends:]
        per = {f"{k}.s": v for k, v in self_s.items()}
        per.update({k: v - counts.get(k, 0) for k, v in self.counts.items()})
        if appends:
            per["storage.append_release.last_s"] = appends[-1][0]
            per["storage.entry_bytes"] = sum(a[1] for a in appends) / len(appends)
            per["storage.ledger_bytes"] = max(a[2] for a in appends)
        self.passes.append(per)
        self._mark = (len(self.spans), len(self.appends), dict(self.counts))

    def metrics(self, scale: float) -> dict[str, dict]:
        """Median over passes of every per-layer metric (0 where a layer
        idles), times multiplied by ``scale`` into nominal seconds."""
        out = {}
        for name, unit in METRICS.items():
            value = statistics.median(p.get(name, 0) for p in self.passes)
            if unit == "s":
                value *= scale
            elif unit == "count":
                value = int(value)  # every pass does the same work
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self) -> dict:
        first = self.passes[0] if self.passes else {}
        n_first = int(first.get("storage.append_release.calls", 0))
        return {
            "per_pass": self.passes,
            "append_release_first_pass": [
                {"entry": n + 1, "s": s, "entry_bytes": b, "ledger_bytes": lb}
                for n, (s, b, lb) in enumerate(self.appends[:n_first])
            ],
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e, "self": x}
                for i, p, n, s, e, x in self.spans
            ],
        }


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
