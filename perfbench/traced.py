"""Traced run of one workload: spans around the calls into each anticip module.

Usage, from the repository root with the package on the path:

    PYTHONPATH=src python perfbench/traced.py -m anticip sample --period 64 ...
    PYTHONPATH=src python perfbench/traced.py perfbench/oracle.py --seed 7
    PYTHONPATH=src python perfbench/traced.py --memory -m anticip sample ...

The target runs in this process exactly as `python <target>` would run it,
after wrappers have been put around the public functions listed in
`install`. Each wrapper is bound under every name a caller uses (the `cli`
and `verify` modules import functions by name), and every original is put
back before this process reports. The target's stdout passes through
unchanged; the per-layer metrics are printed as one JSON object on the last
line of stderr, and the exit code is the target's.

Spans are kept per thread: each records its thread, its parent (the span open
in the same thread when it started) and the time its children took, so the
worker threads of `--threads 2` nest correctly and self time is per thread.
A span in a worker thread has no parent, because the pool does not carry the
caller's span across threads.

With `--memory` the run measures memory instead of time: tracemalloc, which
NumPy reports its array buffers to, is on inside each outermost engine span
(`run_monte_carlo`, `near_zero_statistics`, `tail_exceedance`), and the only
metric is `sampling.chunk_bytes`, the largest peak of bytes allocated inside
one such span. tracemalloc slows the engine several times over, so the span
times of this run are not reported.
"""
from __future__ import annotations

import inspect
import itertools
import json
import runpy
import sys
import threading
import time
import tracemalloc

import numpy as np

# verify.C<k> spans; `verify.run_suite` looks criteria up in this dict
CRITERIA_IDS = tuple(f"C{k}" for k in range(1, 13))
# spans whose outermost call runs the chunked engine; `--memory` traces them
ENGINE_SPANS = ("sampling.run_monte_carlo", "sampling.near_zero_statistics",
                "sampling.tail_exceedance")


class Span:
    __slots__ = ("name", "sid", "parent", "tid", "start", "end", "child_s", "rows",
                 "useful_rows", "nbytes", "macs")

    def __init__(self, name: str, sid: int, parent: int, tid: int, start: float):
        self.name, self.sid, self.parent, self.tid = name, sid, parent, tid
        self.start, self.end, self.child_s = start, start, 0.0
        self.rows = self.useful_rows = self.nbytes = self.macs = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """In-memory span recorder with wrappers that can be undone."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []
        self._lock = threading.Lock()
        # (seed, index) of every stream opened, by generator id; the
        # generators are kept alive so that ids are never reused
        self._stream_keys: dict[int, tuple[int, int]] = {}
        self._streams: list = []
        # (seed, index, law, width) -> id of the generator that read it first
        self._first_reader: dict[tuple, int] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None):
        """`fn` inside a span; `name` is a string or a function of the call's
        arguments, and `note(span, args, kwargs, result)` adds counters."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name if isinstance(name, str) else name(args, kwargs),
                        next(self._ids), stack[-1].sid if stack else 0,
                        threading.get_ident(), time.perf_counter())
            stack.append(span)
            traces = (self.memory and span.name in ENGINE_SPANS
                      and not tracemalloc.is_tracing())
            if traces:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(span, args, kwargs, result)
                return result
            finally:
                if traces:
                    span.nbytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.seconds
                self.spans.append(span)

        # verify.run_suite reads a criterion's base seed from __defaults__
        wrapper.__defaults__ = getattr(fn, "__defaults__", None)
        return wrapper

    def patch(self, owner, attr: str, name, note=None, modules=(), mappings=()) -> None:
        """Replace `owner.attr`, and every other binding of the same object in
        `modules` and `mappings`, by one wrapper."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, note)
        targets = [(owner, attr)]
        for mod in modules:
            targets += [(mod, key) for key, value in vars(mod).items()
                        if value is original and (mod, key) != (owner, attr)]
        for mapping in mappings:
            targets += [(mapping, key) for key, value in mapping.items()
                        if value is original]
        for obj, key in targets:
            if isinstance(obj, dict):
                obj[key] = wrapper
            else:
                setattr(obj, key, wrapper)
            self._undo.append((obj, key, original))

    def restore(self) -> None:
        for obj, key, original in reversed(self._undo):
            if isinstance(obj, dict):
                obj[key] = original
            else:
                setattr(obj, key, original)

    def restored(self) -> bool:
        return all((obj[key] if isinstance(obj, dict) else getattr(obj, key)) is original
                   for obj, key, original in self._undo)

    # -- counters recorded where the work happens ---------------------------

    def note_stream(self, span, args, kwargs, gen) -> None:
        with self._lock:
            self._stream_keys[id(gen)] = (args[0], args[1])
            self._streams.append(gen)

    def note_draw(self, span, args, kwargs, result) -> None:
        dist, rng, y = args[0], args[1], np.asarray(result)
        span.rows = y.shape[0] if y.ndim == 2 else 1
        key = self._stream_keys.get(id(rng))
        if key is None:
            span.useful_rows = span.rows
            return
        # rows re-read from a stream already read with the same law and width
        # are drawn twice; the first reader's rows are the useful ones
        read = (*key, dist.label, y.shape[-1] if y.ndim else 1)
        with self._lock:
            first = self._first_reader.setdefault(read, id(rng))
        span.useful_rows = span.rows if first == id(rng) else 0


def install(tracer: Tracer) -> None:
    """Wrap the public functions whose spans the per-layer metrics need."""
    import anticip
    import anticip.bounds
    import anticip.cli
    import anticip.closed_form
    import anticip.rng
    import anticip.sampling
    import anticip.spectral
    import anticip.verify

    mods = [m for name, m in sorted(sys.modules.items())
            if name == "anticip" or name.startswith("anticip.")]
    sampling, spectral, bounds, cf = (anticip.sampling, anticip.spectral,
                                      anticip.bounds, anticip.closed_form)

    def amplitude_span(args, kwargs):
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "fast-transform")
        return "spectral.exact_sum" if mode == "exact-sum" else "spectral.fast_transform"

    def note_macs(span, args, kwargs, result):
        if span.name == "spectral.exact_sum":
            span.macs = args[0].period ** 2

    tracer.patch(anticip.cli, "main", "cli", modules=mods)
    tracer.patch(anticip.rng, "stream", "rng.stream", tracer.note_stream, mods)
    tracer.patch(sampling.SamplingDistribution, "sample", "sampling.draw", tracer.note_draw)
    tracer.patch(sampling.MomentAccumulator, "add_batch", "sampling.reduce")
    for fn in ("merge_accumulators", "run_monte_carlo", "near_zero_statistics",
               "tail_exceedance"):
        tracer.patch(sampling, fn, "sampling." + fn.replace("_accumulators", ""),
                     modules=mods)
    tracer.patch(spectral, "amplitudes_periodic", amplitude_span, note_macs, mods)
    tracer.patch(spectral, "amplitudes_continuous", "spectral.amplitudes_continuous",
                 modules=mods)
    tracer.patch(bounds, "check_bounds", "bounds.check_bounds", modules=mods)
    tracer.patch(bounds, "build_orthogonal_measure", "bounds.build_orthogonal_measure",
                 modules=mods)
    for key, value in list(vars(cf).items()):
        # `getattr` skips an alias already rebound with the name it aliases
        if (inspect.isfunction(value) and value.__module__ == cf.__name__
                and not key.startswith("_") and getattr(cf, key) is value):
            tracer.patch(cf, key, "closed_form", modules=mods)
    verify = anticip.verify
    for cid in CRITERIA_IDS:
        tracer.patch(verify, verify.CRITERIA[cid].__name__, "verify." + cid,
                     modules=mods, mappings=[verify.CRITERIA])


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def of(name):
        return by_name.get(name, [])

    def total(name, attr="seconds"):
        return float(sum(getattr(s, attr) for s in of(name)))

    names = {s.sid: s.name for s in spans}
    top_cf = [s for s in of("closed_form") if names.get(s.parent) != "closed_form"]
    rows = total("sampling.draw", "rows")
    out = {
        "cli.self_s": total("cli", "self_seconds"),
        "rng.stream.calls": len(of("rng.stream")),
        "rng.stream.s": total("rng.stream"),
        "sampling.draw.calls": len(of("sampling.draw")),
        "sampling.draw.s": total("sampling.draw"),
        "sampling.rows_drawn": rows,
        "sampling.useful_draw_ratio":
            total("sampling.draw", "useful_rows") / rows if rows else 0.0,
        "sampling.reduce.calls": len(of("sampling.reduce")),
        "sampling.reduce.s": total("sampling.reduce"),
        "sampling.merge.calls": len(of("sampling.merge")),
        "sampling.merge.s": total("sampling.merge"),
        "sampling.run_monte_carlo.s": total("sampling.run_monte_carlo"),
        "sampling.run_monte_carlo.self_s":
            total("sampling.run_monte_carlo", "self_seconds"),
        "sampling.near_zero_statistics.s": total("sampling.near_zero_statistics"),
        "sampling.tail_exceedance.self_s":
            total("sampling.tail_exceedance", "self_seconds"),
        "spectral.exact_sum.s": total("spectral.exact_sum"),
        "spectral.exact_sum.macs": total("spectral.exact_sum", "macs"),
        "spectral.fast_transform.s": total("spectral.fast_transform"),
        "spectral.amplitudes_continuous.s": total("spectral.amplitudes_continuous"),
        "bounds.check_bounds.calls": len(of("bounds.check_bounds")),
        "bounds.check_bounds.s": total("bounds.check_bounds"),
        "bounds.build_orthogonal_measure.s": total("bounds.build_orthogonal_measure"),
        "closed_form.calls": len(top_cf),
        "closed_form.s": float(sum(s.seconds for s in top_cf)),
    }
    for cid in CRITERIA_IDS:
        out[f"verify.{cid}.s"] = total(f"verify.{cid}")
    return out


def run_target(argv: list[str]) -> int:
    """Run `python <argv>` in this process and return its exit code."""
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    memory = argv[:1] == ["--memory"]
    argv = argv[memory:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer(memory)
    install(tracer)
    try:
        code = run_target(argv)
    finally:
        sys.stdout.flush()
        tracer.restore()
    if not tracer.restored():
        print("traced.py: an original function was not restored", file=sys.stderr)
        return 3
    if memory:
        metrics = {"sampling.chunk_bytes": float(max(
            (s.nbytes for s in tracer.spans if s.name in ENGINE_SPANS), default=0))}
    else:
        metrics = layer_metrics(tracer.spans)
    print(json.dumps({"spans": len(tracer.spans), "metrics": metrics}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
