"""Spans around calls into maup's modules, and the stage-by-stage episode.

The traced run composes the same steps as ``maup.execute_episode`` from
each module's public functions, so that every layer's time is measured from
the benchmark's own code. A stage function that a later version of maup no
longer has is reported as missing; only the traced run depends on them.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# stage key -> (module of maup, public name)
STAGES = {
    "seed_streams": ("prompting", "episode_seed_streams"),
    "seeds": ("regions", "farthest_point_seeds"),
    "partition": ("regions", "voronoi_partition"),
    "disk": ("regions", "StructuringElement"),
    "periphery_mask": ("regions", "periphery_mask"),
    "regional": ("prototypes", "regional_prototypes"),
    "periphery": ("prototypes", "periphery_prototype"),
    "stack": ("simmaps", "similarity_stack"),
    "mean": ("simmaps", "mean_map"),
    "uncertainty": ("simmaps", "uncertainty_map"),
    "cosine": ("simmaps", "cosine_map"),
    "generate": ("prompting", "generate_prompts"),
    "export": ("pipeline", "build_export"),
}

SUPPORT_SIDE = (
    "regions.seeds",
    "regions.partition",
    "regions.periphery",
    "prototypes.regional",
    "prototypes.periphery",
)

# per-layer metric -> span it times (median over operations of the per-operation total)
TIMED = {
    "simmaps.stack_ms": "simmaps.stack",
    "simmaps.reduce_ms": "simmaps.reduce",
    "simmaps.negative_ms": "simmaps.negative",
    "regions.seeds_ms": "regions.seeds",
    "regions.partition_ms": "regions.partition",
    "regions.periphery_ms": "regions.periphery",
    "prototypes.regional_ms": "prototypes.regional",
    "prototypes.periphery_ms": "prototypes.periphery",
    "prompting.generate_ms": "prompting.generate",
    "phantom.generate_ms": "phantom.generate",
    "pipeline.surrogate_ms": "pipeline.surrogate",
    "pipeline.export_ms": "pipeline.export",
    "tensors.load_ms": "tensors.load",
    "cli.interpreter_ms": "cli.interpreter",
    "cli.import_ms": "cli.import",
    "trace.op_ms": "episode",
    "trace.reference_ms": "reference",
}

# spans timed per call rather than per operation: one operation may generate several phantoms
PER_CALL = {"phantom.generate"}

# per-layer counts, averaged over traced episodes
COUNTS = (
    "regions.fg_pixels",
    "simmaps.prototypes",
    "prompting.k_used",
    "prompting.negatives",
    "prompting.flags",
)


def resolve_stages():
    """Look up every stage function; return (found, missing names)."""
    found, missing = {}, []
    for key, (module, name) in STAGES.items():
        try:
            found[key] = getattr(importlib.import_module(f"maup.{module}"), name)
        except (ImportError, AttributeError):
            missing.append(f"maup.{module}.{name}")
    return found, missing


class Tracer:
    """In-memory spans and counts, grouped by the operation that caused them."""

    def __init__(self):
        self.spans = []  # (op, name, start, end)
        self.counts = []  # (op, name, value)
        self.op = None

    def begin(self, op) -> None:
        self.op = op

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.op, name, start, time.perf_counter()))

    def count(self, name, value) -> None:
        self.counts.append((self.op, name, value))

    def metrics(self) -> dict[str, float]:
        """Aggregate spans and counts into the per-layer metrics that have data."""
        by_op = defaultdict(lambda: defaultdict(float))  # op -> span name -> total seconds
        for op, name, start, end in self.spans:
            by_op[repr(op)][name] += end - start
        out = {}
        for metric, name in TIMED.items():
            if name in PER_CALL:
                vals = [end - start for _, n, start, end in self.spans if n == name]
            else:
                vals = [t[name] for t in by_op.values() if name in t]
            if vals:
                out[metric] = statistics.median(vals) * 1e3
        if "trace.op_ms" in out and "trace.reference_ms" in out:
            out["trace.overhead_ms"] = out["trace.op_ms"] - out["trace.reference_ms"]

        episodes = [t for t in by_op.values() if "episode" in t]
        if episodes:
            side = [sum(t.get(n, 0.0) for n in SUPPORT_SIDE) for t in episodes]
            out["support_side_ms"] = statistics.median(side) * 1e3
            out["support_side_share"] = statistics.median(
                s / t["episode"] for s, t in zip(side, episodes)
            )
        madds = {repr(op): v for op, n, v in self.counts if n == "simmaps.madds"}
        rates = [madds[op] / t["simmaps.stack"] / 1e9 for op, t in by_op.items() if op in madds]
        if rates:
            out["simmaps.stack_gmadd_per_s"] = statistics.median(rates)
        for name in COUNTS:
            vals = [v for _, n, v in self.counts if n == name]
            if vals:
                out[name] = statistics.fmean(vals)
        return out


def span(tracer: Tracer | None, name: str):
    """A span when tracing, nothing otherwise."""
    return tracer.span(name) if tracer is not None else nullcontext()


def compose(tracer: Tracer, st: dict, ep):
    """The steps of ``execute_episode`` plus export, one span per stage.

    Returns the PromptExport and its canonical JSON text.
    """
    cfg, mask = ep.cfg, ep.support_mask
    height, width = ep.query_features.height, ep.query_features.width
    with tracer.span("episode"):
        fps_seed, _, _ = st["seed_streams"](cfg.seed)
        fg = mask.foreground_count
        with tracer.span("regions.seeds"):
            seeds = st["seeds"](mask, min(cfg.n_regions, fg), fps_seed)
        with tracer.span("regions.partition"):
            partition = st["partition"](mask, seeds)
        with tracer.span("prototypes.regional"):
            protos = st["regional"](ep.support_features, partition)
        with tracer.span("simmaps.stack"):
            stack = st["stack"](ep.query_features, protos)
        with tracer.span("simmaps.reduce"):
            mean = st["mean"](stack)
            uncert = st["uncertainty"](stack, mean)
        neg_map = None
        if cfg.np:
            with tracer.span("regions.periphery"):
                band = st["periphery_mask"](mask, st["disk"].disk(cfg.radius))
            if band.foreground_count > 0:
                with tracer.span("prototypes.periphery"):
                    proto = st["periphery"](ep.support_features, band)
                with tracer.span("simmaps.negative"):
                    neg_map = st["cosine"](ep.query_features, proto)
        with tracer.span("prompting.generate"):
            prompts = st["generate"](mean, uncert, neg_map, cfg)
        with tracer.span("pipeline.export"):
            export = st["export"](prompts, len(seeds), height, width)
            text = export.canonical_json()
    channels = ep.query_features.channels
    tracer.count("regions.fg_pixels", fg)
    tracer.count("simmaps.prototypes", len(seeds))
    tracer.count("simmaps.madds", len(seeds) * channels * height * width)
    tracer.count("prompting.k_used", export.k_used)
    tracer.count("prompting.negatives", len(export.negatives))
    tracer.count("prompting.flags", len(export.flags))
    return export, text
