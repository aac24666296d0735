"""Call-boundary tracer for an imported package.

``Tracer.install`` replaces every public module-level function of the
package's modules with a wrapper, in every module namespace that binds it.
That is the attribute a caller looks up: ``family.rho_and_grad`` reaches
``series.kernel_s`` through the name bound in ``family``, so that binding is
the one wrapped.  Each wrapper records calls, inclusive time, self time
(inclusive minus the spans of wrapped callees) and the longest call, and may
run a hook on the arguments and result to count work.  Spans are kept per
thread; the totals are shared under a lock.  Generator functions are left
unwrapped, since their call returns before their work is done.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import types


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "max_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    def __init__(self, package: str, skip=(), hooks=None):
        """skip: "module.function" keys left unwrapped (per-item helpers whose
        wrapper would cost more than their work).  hooks: key -> callable
        (args, kwargs, result) run after each completed call."""
        self.package = package
        self.skip = set(skip)
        self.hooks = dict(hooks or {})
        self.stats: dict[str, Stat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> None:
        prefix = self.package + "."
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]
        wrappers = {}  # original -> wrapper, so every binding shares one
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__ or ""
                if not owner.startswith(prefix):
                    continue
                key = f"{owner[len(prefix):]}.{value.__name__}"
                if key in self.skip or inspect.isgeneratorfunction(value):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(key, value)
                setattr(mod, attr, wrappers[value])

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        hook = self.hooks.get(key)
        local = self._local
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)  # time spent in wrapped callees
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - inner
                    stat.max_s = max(stat.max_s, elapsed)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def to_obj(self) -> dict:
        return {key: stat.to_obj() for key, stat in sorted(self.stats.items())}
