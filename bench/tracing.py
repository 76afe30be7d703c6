"""In-memory spans around the ionfab calls the benchmark makes.

A span is ``[name, start, end, parent, task]``: ``name`` is
``<layer>.<function>[:<variant>]``, times are unscaled CPU seconds
(``clock``), ``parent`` is the index of the enclosing span (-1 at top
level) and ``task`` the closed-loop task index (-1 during set-up). Spans
stay in memory until the run ends.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from clock import clock


class Untraced:
    """Calls straight through; the end-to-end runs use this."""

    task = -1
    spans = ()

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call made through :meth:`call`."""

    def __init__(self):
        self.task = -1
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.task]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = clock()
            self._open.pop()

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` so nested calls made by ionfab get spans.

        Returns False, and wraps nothing, when the target no longer exists,
        so that a refactor which removes it reads as an absent layer metric
        rather than an error. ``after`` receives each call's result.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)
        return True


def summarize(spans) -> tuple[dict[str, float], Counter, dict[str, float]]:
    """Total seconds and call count per span name, and self seconds per layer.

    A span's self time is its duration minus the durations of its direct
    children; the layer is the part of the name before the first dot.
    """
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, _task in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _parent, _task) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += end - start - child[k]
    return total, calls, dict(self_s)
