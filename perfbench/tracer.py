"""In-memory spans for traced benchmark runs.

A span is (name, start, end, parent, tag).  The first dotted component of
the name is the layer: a `src/latile` module name, or `bench` for the
harness's own per-operation spans.  Spans are kept in a list while the run
goes and written out once, after all timing is done.

Spans wrap only the benchmark's calls into latile's public functions; the
package itself carries no instrumentation.
"""

import json
import time

_perf = time.perf_counter


class Tracer:
    """Records spans when enabled; when disabled, `call` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[str] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def record(self, name: str, start: float, end: float, tag: str = "") -> None:
        """Add an already-finished span as a child of the innermost open span."""
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.tags.append(tag)
        self.starts.append(start)
        self.ends.append(end)

    def call(self, name: str, tag: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as a span when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.tags.append(tag)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(_perf())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = _perf()
            self._open.pop()

    def durations(self, name: str, tag=None) -> list[float]:
        """Durations in seconds of every span called `name` (and tagged `tag`)."""
        return [
            e - s
            for n, s, e, t in zip(self.names, self.starts, self.ends, self.tags)
            if n == name and (tag is None or t == tag)
        ]

    def self_seconds_by_layer(self, first: int, last: int) -> dict[str, float]:
        """Span time minus the time covered by each span's direct children, per
        layer, over spans first..last-1.

        The range must hold whole subtrees: the spans of a region of the run
        that no span was open across.
        """
        self_time = {i: self.ends[i] - self.starts[i] for i in range(first, last)}
        for index in range(first, last):
            parent = self.parents[index]
            if parent >= 0:
                self_time[parent] -= self.ends[index] - self.starts[index]
        totals: dict[str, float] = {}
        for index, seconds in self_time.items():
            layer = self.names[index].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "tag": self.tags[i],
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds.

    Multiplied by the number of spans a run recorded, this gives the time
    tracing added to that run.
    """

    def noop():
        return None

    plain = Tracer(False)
    traced = Tracer(True)
    best = float("inf")
    for _ in range(3):
        t0 = _perf()
        for _ in range(samples):
            plain.call("bench.noop", "", noop)
        t1 = _perf()
        for _ in range(samples):
            traced.call("bench.noop", "", noop)
        t2 = _perf()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)
