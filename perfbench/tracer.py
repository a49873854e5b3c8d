"""Per-layer tracing of pmcs, installed from outside the program.

Every public function of each layer module is replaced by a wrapper that
records a span around the call.  Modules bind names at import
(``from .specfun import laguerre``), so the wrapper is rebound under every
name, in every ``pmcs.*`` module, that holds the original function object;
otherwise those calls would be missed.

Spans nest strictly (the program is single-threaded), so the self time of a
span is its duration minus the durations of its direct children.  Spans are
aggregated as they close: per function the call count, the self time and the
number of calls that raised a ``PmcsError`` or ``ValueError``.  A few
functions also feed computed counters (see NOTES.md): dense flops in
``fock``, converged quasi-probability calls per ``s`` and rendered bytes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("specfun", "weyl", "states", "fock", "nonclassical", "sweeps", "cli", "wavefunctions")

# Computed flops: 8 d^2 per dense complex mat-vec, 8 d^3 per dense matmul.
# Each takes the call's bound arguments and its result.
_FLOPS = {
    "fock.coherent_state": lambda a, result: 8 * result[0].dim,  # one product per level
    "fock.apply_superposed_power": lambda a, result: 8 * a["vec"].dim ** 2 * a["params"].N,
    "fock.expectation": lambda a, result: 8 * a["vec"].dim ** 2,
    "fock.displacement": lambda a, result: 0 if complex(a["gamma"]) == 0 else 8 * result.dim ** 3,
}

# lru caches whose hits show the working set against the cache size.
_MOMENT_CACHES = ("_normal_moment_matrix", "_number_power_matrix")


def _moment_cache_info() -> tuple[int, int]:
    """(hits, lookups) summed over the oracle's moment-matrix caches; (0, 0)
    once the program no longer has them."""
    module = sys.modules.get("pmcs.nonclassical")
    hits = lookups = 0
    for name in _MOMENT_CACHES:
        info = getattr(getattr(module, name, None), "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            lookups += ci.hits + ci.misses
    return hits, lookups


class Tracer:
    """``install`` and ``uninstall`` rebind the wrappers; ``reset`` clears the
    aggregates; ``snapshot`` returns those of the spans closed since."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns, fail]
        self.counters: dict = {}
        self._stack: list[list[int]] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._cache_base = (0, 0)

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        for key in self.counters:
            self.counters[key] = 0
        self._cache_base = _moment_cache_info()

    def install(self) -> None:
        import pmcs.cli  # noqa: F401  (imports every layer module)
        from pmcs.errors import PmcsError

        failures = (PmcsError, ValueError)
        holders = [m for n, m in sorted(sys.modules.items()) if n == "pmcs" or n.startswith("pmcs.")]
        for layer in LAYERS:
            module = sys.modules[f"pmcs.{layer}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn, failures)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._rebound.append((holder, attr, fn))
        self.reset()

    def uninstall(self) -> None:
        while self._rebound:
            holder, attr, fn = self._rebound.pop()
            setattr(holder, attr, fn)

    def _wrap(self, name: str, fn, failures):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns
        flops = _FLOPS.get(name)
        if flops is not None:
            signature = inspect.signature(fn)
            counters.setdefault(f"{name}.flops", 0)
        is_quasi_oracle = name == "nonclassical.quasiprob_oracle"
        is_render = name == "sweeps.render"
        if is_render:
            counters.setdefault("sweeps.render.bytes", 0)

        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            except failures:
                stat[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - children[0]
                if is_quasi_oracle:
                    s = float((args[1] if len(args) > 1 else kwargs["qp"]).s)  # (state, qp)
                    for key, add in ((("calls", s), 1), (("ok", s), ok)):
                        counters[key] = counters.get(key, 0) + add
            if flops is not None:
                bound = signature.bind(*args, **kwargs).arguments
                counters[f"{name}.flops"] += flops(bound, result)
            if is_render:
                counters["sweeps.render.bytes"] += len(result.encode("utf-8"))
            return result

        return functools.update_wrapper(wrapper, fn)

    def snapshot(self) -> dict:
        out: dict = {}
        for name, (calls, self_ns, fail) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.fail"] = fail
        quasi: dict = {}
        for key, value in self.counters.items():
            if isinstance(key, tuple):
                quasi.setdefault(repr(key[1]), {})[key[0]] = value
            else:
                out[key] = value
        out["quasiprob_oracle_by_s"] = quasi
        hits, lookups = _moment_cache_info()
        out["nonclassical.moment_cache.hits"] = hits - self._cache_base[0]
        out["nonclassical.moment_cache.lookups"] = lookups - self._cache_base[1]
        return out
