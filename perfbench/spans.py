"""Span recorder for the traced run.

Spans are recorded from outside the program: ``Tracer.install`` replaces
public functions by timing wrappers through module attributes (every
``growtrain`` module that holds the same function object gets the wrapper,
so ``from .model import mlm_loss`` bindings are covered too) and wraps the
``Rng.fork`` method.  ``Tracer.remove`` puts the originals back.

A span is (name, tag, start_ns, end_ns, parent index, round id); the tag
splits one function's spans by a property of the call (the FFN mode, or a
pooled attention call).  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns
PROBE = "probe"   # span name of the machine-speed probe (probe.py)


def rebind(original, new) -> list[tuple]:
    """Point every growtrain module attribute bound to ``original`` at
    ``new``; returns (module, name, original) triples to undo it."""
    done = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("growtrain"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, new)
                done.append((mod, key, original))
    return done


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, tag, start, end, parent, round]
        self.counts: dict[tuple, float] = defaultdict(float)   # (round, name)
        self.round = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, tag: str = "") -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, _now(), 0, parent, self.round])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = _now()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[(self.round, name)] += value

    def count_sum(self, name: str, rounds) -> float:
        rounds = set(rounds)
        return sum(v for (r, n), v in self.counts.items() if n == name and r in rounds)

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        idx = self.begin(name, tag)
        try:
            yield
        finally:
            self.end(idx)

    def wrapped(self, fn, name: str, tag_of=None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, tag_of(args, kwargs) if tag_of else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self, module, attr: str, name: str, tag_of=None, on_result=None,
                wrapper=None) -> None:
        """Replace ``module.attr`` wherever a growtrain module binds it."""
        original = getattr(module, attr)
        new = wrapper or self.wrapped(original, name, tag_of, on_result)
        self._patched.extend(rebind(original, new))

    def install_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrapped(original, name))
        self._patched.append((cls, attr, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list[int]:
        """Duration of each span minus the time its child spans cover.

        Spans nest strictly (one thread, wrappers around calls), so the
        children of a span cover disjoint intervals inside it.
        """
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def totals(self, rounds) -> tuple[dict, dict, dict]:
        """Inclusive ns, self ns and call counts per name and per name.tag,
        over the spans recorded in the given rounds.  Time spent in
        ``probe`` spans is left out of every enclosing span."""
        rounds = set(rounds)
        net = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[0] == PROBE:
                parent = s[4]
                while parent >= 0:
                    net[parent] -= s[3] - s[2]
                    parent = self.spans[parent][4]
        incl, own, calls = defaultdict(int), defaultdict(int), defaultdict(int)
        for s, n, t in zip(self.spans, net, self.self_times()):
            if s[5] not in rounds or s[0] == PROBE:
                continue
            keys = (s[0], f"{s[0]}.{s[1]}") if s[1] else (s[0],)
            for key in keys:
                incl[key] += n
                own[key] += t
                calls[key] += 1
        return incl, own, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,round,parent,name,tag,start_ns,end_ns\n")
            for i, (name, tag, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(f"{i},{rnd},{parent},{name},{tag},{start},{end}\n")

