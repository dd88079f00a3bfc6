"""Spans recorded from outside the program, around every public function of each layer.

`Tracer.install()` replaces each public function of the layer modules with a
wrapper at every binding inside the `scenecast` package: module globals
(including names imported from other modules), functions held in module-level
containers such as `cli.REFINERS`, and function default arguments such as
`compose_pseudo_future(refiner=identity_refiner)`. `uninstall()` puts the
originals back, so untraced iterations run the unmodified program.

Each wrapped call records a span with its parent span; a span's self time is
its duration minus the durations of its direct children. A few spans also
record counts taken from their arguments and results after the clock stops.
"""
from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys
import time
import tracemalloc

import numpy as np

import scenecast

LAYERS = ("synth", "forecast", "warp", "fusion", "metrics", "dataio")
TRACED_MODULES = LAYERS + ("cli",)
MIB = 1024.0 * 1024.0


def _render(a, out):
    k = a["k"]
    return {"rays": k.width * k.height, "hits": int(np.count_nonzero(out.depth > 0.0))}


def _visibility(a, out):
    nx, ny, nz = a["rng"].dims
    return {"voxels": nx * ny * nz, "visible": int(np.count_nonzero(out[0]))}


def _refiner(a, out):
    hit = a["result"].hit_mask
    return {"pixels": hit.size, "holes_before": int(hit.size - np.count_nonzero(hit)),
            "holes_after": int(np.count_nonzero(out[1] == 0.0))}


def _read(a, out):
    return {"bytes": os.path.getsize(a["path"])}


COUNTERS = {
    "synth.render_frame": _render,
    "fusion.visibility": _visibility,
    "warp.reprojection_flow": lambda a, out: {"valid": int(np.count_nonzero(out[1]))},
    "warp.forward_splat": lambda a, out: {"winners": int(np.count_nonzero(out.hit_mask))},
    "warp.fill_refiner": _refiner,
    "warp.identity_refiner": _refiner,
    "dataio.atomic_write_bytes": lambda a, out: {"bytes": len(a["data"])},
}
COUNTERS.update(
    (f"dataio.{name}", _read)
    for name in ("read_grid", "read_depth", "read_image", "read_poses", "read_fused", "read_blockvis")
)
# spans whose tracemalloc peak is recorded when tracemalloc is tracing
ALLOC_SPANS = ("fusion.fuse_pipeline",)


class Span:
    __slots__ = ("name", "parent", "dur", "child", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.dur = 0
        self.child = 0
        self.counts = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_ns(self) -> int:
        return self.dur - self.child


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.iterations = []  # root spans, one per traced iteration
        self._patches = []
        modules = [scenecast] + [
            importlib.import_module(f"scenecast.{m.name}")
            for m in pkgutil.iter_modules(scenecast.__path__)
        ]
        self._modules = modules
        self._wrappers = {}
        for layer in TRACED_MODULES:
            mod = sys.modules[f"scenecast.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self._wrappers[obj] = self._wrap(obj, f"{layer}.{name}")

    def _wrap(self, fn, name):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        alloc = name in ALLOC_SPANS

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            if alloc and tracemalloc.is_tracing():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            stack.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.dur = clock() - t0
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.dur
                spans.append(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, out)
            if alloc and tracemalloc.is_tracing():
                span.counts = {"peak_alloc": tracemalloc.get_traced_memory()[1] - base}
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------- bindings

    def install(self) -> None:
        w = self._wrappers
        for mod in self._modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if inspect.isfunction(obj):
                    if obj in w:
                        self._set(mod.__dict__, name, w[obj])
                    self._patch_defaults(obj)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in w:
                            self._set(obj, key, w[val])

    def _patch_defaults(self, fn) -> None:
        w = self._wrappers
        if fn.__defaults__ and any(inspect.isfunction(d) and d in w for d in fn.__defaults__):
            new = tuple(w.get(d, d) if inspect.isfunction(d) else d for d in fn.__defaults__)
            self._patches.append((fn, "__defaults__", fn.__defaults__))
            fn.__defaults__ = new
        if fn.__kwdefaults__ and any(inspect.isfunction(d) and d in w for d in fn.__kwdefaults__.values()):
            for key, val in list(fn.__kwdefaults__.items()):
                if inspect.isfunction(val) and val in w:
                    self._set(fn.__kwdefaults__, key, w[val])

    def _set(self, container: dict, key, value) -> None:
        self._patches.append((container, key, container[key]))
        container[key] = value

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            if key == "__defaults__":
                target.__defaults__ = original
            else:
                target[key] = original

    # ------------------------------------------------------------ iterations

    def begin(self) -> None:
        self.stack.append(Span("bench.iteration", None))

    def end(self) -> None:
        root = self.stack.pop()
        self.iterations.append(root)

    # --------------------------------------------------------------- metrics

    def _totals(self):
        calls, self_s, counts = {}, {}, {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + s.self_ns / 1e9
            for key, val in (s.counts or {}).items():
                counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + val
        return calls, self_s, counts

    def function_table(self) -> dict:
        calls, self_s, _ = self._totals()
        return {name: {"calls": calls[name], "self_s": self_s[name]} for name in sorted(calls)}

    def peak_alloc_mb(self) -> float:
        """Largest tracemalloc peak of an ALLOC_SPANS span, above its entry level."""
        return max((s.counts["peak_alloc"] for s in self.spans if s.name in ALLOC_SPANS and s.counts), default=0) / MIB

    def per_layer(self, wall_s: float, untraced_p50: float, traced_p50: float, peak_alloc_mb: float) -> dict:
        """Per-iteration means over the traced iterations; rates are totals over totals."""
        n = max(len(self.iterations), 1)
        calls, self_s, counts = self._totals()

        def busy(*names):
            return sum(self_s.get(name, 0.0) for name in names)

        def count(key, *names):
            return sum(counts.get(f"{name}.{key}", 0) for name in names)

        def rate(num, den):
            return num / den if den else 0.0

        def dataio(*prefixes):
            return [k for k in self_s if k.startswith("dataio.") and k.split(".")[1].startswith(prefixes)]

        render, vis = "synth.render_frame", "fusion.visibility"
        refiners = ("warp.fill_refiner", "warp.identity_refiner")
        reads, writes = dataio("read_", "load_", "parse_"), dataio("write_", "atomic_", "format_")
        candidates = sum(
            s.counts["valid"] for s in self.spans
            if s.name == "warp.reprojection_flow" and s.parent is not None and s.parent.name == "warp.forward_splat"
        )
        forecast_s = sum(
            s.self_ns / 1e9 for s in self.spans if s.layer == "forecast" and _under(s, "forecast.forecast_next")
        )
        layer_s = busy(*(k for k in self_s if k.split(".")[0] in LAYERS))
        return {
            f"{render}.calls": calls.get(render, 0) / n,
            f"{render}.self_s": busy(render) / n,
            f"{render}.share": rate(busy(render), wall_s),
            f"{render}.rays_per_s": rate(count("rays", render), busy(render)),
            f"{render}.hit_frac": rate(count("hits", render), count("rays", render)),
            "synth.extract_features.self_s": busy("synth.extract_features") / n,
            f"{vis}.calls": calls.get(vis, 0) / n,
            f"{vis}.self_s": busy(vis) / n,
            f"{vis}.voxels_per_s": rate(count("voxels", vis), busy(vis)),
            f"{vis}.visible_frac": rate(count("visible", vis), count("voxels", vis)),
            "fusion.voxel_centers.self_s": busy("fusion.voxel_centers") / n,
            "fusion.downsample_blocks.self_s": busy("fusion.downsample_blocks") / n,
            "fusion.sample_fuse.self_s": busy("fusion.sample_fuse") / n,
            "fusion.fuse_pipeline.self_s": busy("fusion.fuse_pipeline") / n,
            "fusion.fuse_pipeline.peak_alloc_mb": peak_alloc_mb,
            "fusion.resample_to_range.self_s": busy("fusion.resample_to_range") / n,
            "warp.reprojection_flow.self_s": busy("warp.reprojection_flow") / n,
            "warp.forward_splat.self_s": busy("warp.forward_splat") / n,
            "warp.forward_splat.candidates": candidates / n,
            "warp.forward_splat.win_frac": rate(count("winners", "warp.forward_splat"), candidates),
            "warp.refiner.self_s": busy(*refiners) / n,
            "warp.refiner.hole_frac_before": rate(count("holes_before", *refiners), count("pixels", *refiners)),
            "warp.refiner.hole_frac_after": rate(count("holes_after", *refiners), count("pixels", *refiners)),
            "dataio.read.self_s": busy(*reads) / n,
            "dataio.read.mb_per_s": rate(count("bytes", *reads) / MIB, busy(*reads)),
            "dataio.write.self_s": busy(*writes) / n,
            "dataio.write.mb_per_s": rate(count("bytes", "dataio.atomic_write_bytes") / MIB, busy(*writes)),
            "metrics.self_s": busy(*(k for k in self_s if k.startswith("metrics."))) / n,
            "forecast.forecast_next.self_s": forecast_s / n,
            "trace_cover_frac": rate(layer_s, wall_s),
            "trace_overhead_frac": rate(traced_p50, untraced_p50) - 1.0 if untraced_p50 else 0.0,
        }


def _under(span: Span, name: str) -> bool:
    """True if `span` is `name` or sits below it through spans of its own layer."""
    layer = span.layer
    while span is not None and span.layer == layer:
        if span.name == name:
            return True
        span = span.parent
    return False
