"""Runs one fourtops CLI command in this process, optionally traced.

    python3 perfbench/inproc.py {plain|trace} <fourtops CLI arguments...>

The package is imported from ``src`` (the caller puts it on ``PYTHONPATH``),
then ``fourtops.cli.main(argv, out=buffer)`` runs once. One JSON object is
written to stdout: the exit code, the in-process wall time, the command's
output text, the poset caches' hit counts and, in ``trace`` mode, the
aggregated spans.

Tracing wraps every public function and every public class constructor of the
layer modules at each place a ``fourtops`` module has bound it, because
``from .presheaf import intersection`` gives ``topology``, ``classifier`` and
``convert`` their own references. Nothing is added to the package itself.
Spans are aggregated in memory by (name, parent name): the traced axiom check
on the star makes about two million calls, too many to keep one record each.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import sys
import time

LAYERS = ("poset", "heyting", "_kernels", "presheaf", "classifier", "topology", "convert", "cli")
ROOT_SPAN = "root"
# Functions whose result length is recorded: the oracle kernel's tables.
SIZED = {"_kernels:enumerate_operator_tables"}
# lru-cached poset functions whose cache_info() the benchmark reads.
CACHED = ("enumerate_downsets", "sieves_on", "sieve_positions")


class Tracer:
    """Span aggregation keyed by (name, parent name)."""

    def __init__(self):
        self.stats: dict = {}  # (name, parent) -> [calls, total_s, self_s]
        self.sizes: dict = {}  # name -> summed len(result)
        self.stack = [[ROOT_SPAN, 0.0]]  # [name, time covered by children]

    def span(self, fn, name: str, mode_index: int | None = None):
        stats, stack, sizes = self.stats, self.stack, self.sizes
        clock = time.perf_counter
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if mode_index is not None:
                mode = kwargs.get("mode", args[mode_index] if len(args) > mode_index else None)
                if isinstance(mode, str):
                    label = f"{name}[{mode}]"
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                key = (label, parent[0])
                entry = stats.get(key)
                if entry is None:
                    stats[key] = [1, dt, dt - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += dt - frame[1]
            if sized:
                sizes[name] = sizes.get(name, 0) + len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function and constructor of the layer modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fourtops" or n.startswith("fourtops.")]
        wrapped: dict = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                layer = _layer_of(getattr(obj, "__module__", None))
                if layer is None or getattr(obj, "__name__", "_").startswith("_"):
                    continue
                if inspect.isclass(obj):
                    init = obj.__dict__.get("__init__")
                    if init is not None and id(obj) not in wrapped:
                        wrapped[id(obj)] = obj
                        obj.__init__ = self.span(init, f"{layer}:{obj.__name__}.__init__")
                elif inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    wrapper = wrapped.get(id(obj))
                    if wrapper is None:
                        params = list(inspect.signature(obj).parameters)
                        mode_index = params.index("mode") if "mode" in params else None
                        wrapper = self.span(obj, f"{layer}:{obj.__name__}", mode_index)
                        wrapped[id(obj)] = wrapper
                    setattr(module, attr, wrapper)

    def spans(self) -> list:
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(self.stats.items())
        ]


def _layer_of(module_name) -> str | None:
    if not isinstance(module_name, str) or not module_name.startswith("fourtops."):
        return None
    layer = module_name.split(".")[1]
    return layer if layer in LAYERS else None


def main(argv: list[str]) -> int:
    mode, cli_argv = argv[0], argv[1:]
    if mode not in ("plain", "trace"):
        print("usage: inproc.py {plain|trace} <cli args>", file=sys.stderr)
        return 2
    from fourtops import cli, poset  # cli imports every layer module

    caches = [getattr(poset, name) for name in CACHED]
    for cache in caches:
        cache.cache_clear()
    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    buffer = io.StringIO()
    t0 = time.perf_counter()
    rc = cli.main(cli_argv, out=buffer)
    elapsed = time.perf_counter() - t0
    info = {name: cache.cache_info() for name, cache in zip(CACHED, caches)}
    report = {
        "rc": rc,
        "inproc_s": elapsed,
        "stdout": buffer.getvalue(),
        "spans": tracer.spans(),
        "sizes": tracer.sizes,
        "cache": {name: {"hits": i.hits, "misses": i.misses} for name, i in info.items()},
    }
    sys.stdout.write(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
