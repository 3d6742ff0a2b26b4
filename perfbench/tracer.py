"""Outside-in span tracer: times calls into each layer's public functions.

The tracer adds nothing to the program.  While active it replaces each
target attribute - a function at the module binding its caller looks up,
or a method on its class - with a wrapper that records one span per call
(name, start, end, parent, run id) and, for some layers, counts taken from
the call's result.  Leaving :meth:`Tracer.active` puts every original
attribute back.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.codes.base import DecodeStatus

_MISSING = object()


def _count_decode(tracer: "Tracer", result) -> None:
    results = result if isinstance(result, list) else [result]
    counts = tracer.counts[tracer.run_id]
    counts["decode.words"] += len(results)
    for item in results:
        if item.status is not DecodeStatus.OK:
            counts["decode.dirty"] += 1
        if item.status is DecodeStatus.CORRECTED:
            counts["decode.corrected"] += 1
        elif item.status in (DecodeStatus.DETECTED, DecodeStatus.FAILED):
            counts["decode.detected"] += 1
    if tracer.open_spans["model_build"]:
        counts["model_build.decode_words"] += len(results)


def _count_mask(tracer: "Tracer", result) -> None:
    counts = tracer.counts[tracer.run_id]
    counts["fault.mask.built"] += 1
    if result is not None:
        counts["fault.mask.dirty"] += 1


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module`` + dotted ``attr``.

    ``span`` names the span each call records; ``None`` only counts.
    ``count(tracer, result)`` adds counts taken from the call's result.
    """

    module: str
    attr: str
    span: str | None
    count: Callable | None = None


_DECODERS = [
    Target(module, f"{cls}.{method}", "decode", _count_decode)
    for module, classes in (
        ("repro.codes.rs", ("ReedSolomonCode", "SinglyExtendedRS")),
        ("repro.codes.hamming", ("HammingSEC", "HsiaoSECDED")),
    )
    for cls in classes
    for method in ("decode", "decode_batch")
]

TARGETS: tuple[Target, ...] = (
    Target("repro.analysis.sweep", "build_model", "model_build"),
    Target("repro.reliability.system", "build_model", "model_build"),
    Target("repro.reliability.rareevent", "build_model", "model_build"),
    Target("repro.faults.sampler", "FaultSampler.sample_faults", "fault.population"),
    Target("repro.faults.sampler", "FaultOverlay.mask_for_row", "fault.mask"),
    # a cache miss of mask_for_row: counts masks built and masks with a flip
    Target("repro.faults.sampler", "FaultOverlay._build_mask", None, _count_mask),
    Target("repro.dram.mapping", "SegmentedLayout.gather", "map.gather"),
    Target("repro.dram.mapping", "SegmentedLayout.gather_many", "map.gather"),
    Target("repro.dram.mapping", "SegmentedLayout.scatter", "map.scatter"),
    Target("repro.dram.mapping", "SecWordLayout.gather", "map.gather"),
    Target("repro.dram.mapping", "SecWordLayout.scatter", "map.scatter"),
    Target("repro.schemes.base", "EccScheme.read_lines", "scheme.read_lines"),
    Target("repro.schemes.pair", "PairScheme.read_lines", "scheme.read_lines"),
    Target("repro.schemes.duo", "Duo.read_lines", "scheme.read_lines"),
    *_DECODERS,
    Target("repro.codes.rs", "batch_syndromes", "gf.syndromes"),
    Target("repro.reliability.batch", "classify", "tally.classify"),
    Target("repro.reliability.rareevent", "rareevent_chunk_tally", "rare"),
    Target("repro.campaign.manifest", "Manifest.save", "dispatch.manifest"),
)


def resolve(target: Target) -> tuple[object, str]:
    """The object that owns ``target``'s attribute, and the attribute name."""
    owner: object = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, name):
        raise AttributeError(f"{target.module}.{target.attr} does not exist")
    return owner, name


class Tracer:
    """In-memory span recorder over a fixed set of wrapped attributes.

    ``spans`` holds ``[name, start, end, parent, run_id]`` lists, parent
    being an index into ``spans`` (-1 for a root).  A call made while a
    span of the same name is open (``decode`` calling ``decode_batch``)
    records no second span, so a layer is never counted twice.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.open_spans: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        self.open_spans[name] += 1
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.open_spans[name] -= 1

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, count = target.span, target.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            elif self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if count is not None:
                count(self, result)
            return result

        return traced

    @contextmanager
    def active(self, run_id: int):
        """Wrap every target for the duration of one traced run."""
        self.run_id = run_id
        saved: list[tuple[object, str, object]] = []
        try:
            for target in TARGETS:
                owner, name = resolve(target)
                saved.append((owner, name, vars(owner).get(name, _MISSING)))
                setattr(owner, name, self._wrap(getattr(owner, name), target))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, name)
                else:
                    setattr(owner, name, original)

    def dump(self, path: Path) -> None:
        """Write every span and count recorded so far as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counts": {str(run): dict(c) for run, c in self.counts.items()},
        }))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, run_id: int) -> dict[str, float]:
    """Per-layer calls, self time and ratios of one traced run."""
    spans = tracer.spans
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in {target.span for target in TARGETS if target.span}:
        out[f"{name}.calls"] = out[f"{name}.self_s"] = 0.0
    out["model_build.total_s"] = 0.0
    for index, (name, start, end, parent, run) in enumerate(spans):
        if run != run_id or name.startswith("phase."):
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[index]
        if name == "model_build":
            out["model_build.total_s"] += end - start
    counts = tracer.counts[run_id]
    out["rare.chunks"] = out.pop("rare.calls", 0.0)
    out["dispatch.manifest_saves"] = out.pop("dispatch.manifest.calls", 0.0)
    for key in ("decode.words", "decode.corrected", "decode.detected",
                "model_build.decode_words"):
        out[key] = counts[key]
    out["decode.dirty_frac"] = counts["decode.dirty"] / max(1, counts["decode.words"])
    out["fault.mask.dirty_frac"] = (
        counts["fault.mask.dirty"] / max(1, counts["fault.mask.built"])
    )
    return out


def traced_wall(tracer: Tracer, run_id: int) -> float:
    """Time covered by the root spans of one traced run."""
    return sum(end - start for _, start, end, parent, run in tracer.spans
               if run == run_id and parent < 0)
