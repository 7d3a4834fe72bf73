"""Layer timing recorded from outside the program.

A :class:`SpanRecorder` wraps the public methods of the ``repro.api``
classes named in :data:`LAYER_METHODS` (and the module functions in
:data:`LAYER_FUNCTIONS`) for the duration of one ``with
recorder.installed():`` block.  Every wrapped call becomes a span with a
name (its layer), start, end, span id, parent span id and trace id.
Spans stay in memory; :meth:`SpanRecorder.write` dumps them as JSONL
when the run ends.

Self time is a span's duration minus the time its direct children
cover.  Spans nest per thread, so a daemon running batches on an
executor thread while the client thread submits gets correct parents.

The wrappers only time calls and pass arguments and return values
through unchanged, so outputs are bit-identical with and without them
(the benchmark checks this on every layer-timing run).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

#: Layer of each wrapped ``repro.api`` class method.
LAYER_METHODS = (
    ("Encoder", "encode_frame", "codec.encoder"),
    ("DiamondSearchMotionEstimator", "estimate", "codec.motion"),
    ("ThreeStepMotionEstimator", "estimate", "codec.motion"),
    ("PBPAIRStrategy", "pre_me_intra", "core.pbpair"),
    ("PBPAIRStrategy", "me_cost_function", "core.pbpair"),
    ("PBPAIRStrategy", "frame_done", "core.pbpair"),
    ("Packetizer", "packetize", "network.packetize"),
    ("Channel", "transmit", "network.channel"),
    ("ScenarioChannel", "transmit", "network.channel"),
    ("ResilienceWrapper", "transmit", "network.channel"),
    ("Depacketizer", "group_by_frame", "network.depacketize"),
    ("Decoder", "decode_frame", "codec.decoder"),
    ("CopyConcealment", "conceal", "concealment"),
)

#: Layer of each wrapped module-level function, by defining module.
#: Every ``repro`` module that imported the function by name gets the
#: wrapper too.  ``run_job`` is the runner's per-cell entry point and
#: opens a new trace per grid cell.  ``run_grid`` is timed by
#: :class:`GridObserver`, not here.
LAYER_FUNCTIONS = (
    ("repro.video.synthetic", "generate_sequence", "video.generate"),
    ("repro.sim.runner", "run_job", "sim.runner.job"),
)

#: Layers a per-layer metric names.  The self time of every other span
#: in the pipeline wall (simulate and ``run_job`` glue such as PSNR, bad
#: pixels, energy pricing and result building, and the fleet's and
#: runner's own work) is unattributed.
NAMED_LAYERS = frozenset(layer for _owner, _name, layer in LAYER_METHODS) | {
    "video.generate"
}


@contextmanager
def patched_function(
    module_name: str, function: str, make_wrapper: Callable[[Callable], Callable]
) -> Iterator[None]:
    """Replace a ``repro`` function everywhere it is bound by name.

    Modules that did ``from module import function`` hold their own
    reference, so every ``repro`` module whose attribute is the original
    gets the wrapper; all are restored on exit.
    """
    original = getattr(sys.modules[module_name], function)
    wrapper = make_wrapper(original)
    patched = [
        module
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").split(".")[0] == "repro"
        and module.__dict__.get(function) is original
    ]
    for module in patched:
        setattr(module, function, wrapper)
    try:
        yield
    finally:
        for module in patched:
            setattr(module, function, original)


@dataclass(frozen=True)
class Span:
    """One recorded call: its layer, perf-counter times and ids."""

    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    trace_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cell_trace_id(spec) -> str:
    channel = spec.scenario.name if spec.scenario is not None else spec.plr
    return f"cell:{spec.scheme}:{channel}:{spec.channel_seed}"


class SpanRecorder:
    """Records spans around calls into each layer while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None) -> Iterator[None]:
        """Open a span; ``trace_id`` starts a new trace (a root span)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        if trace_id is None:
            trace_id = parent[1] if parent is not None else f"{name}:{span_id}"
        stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(
                    name,
                    start,
                    end,
                    span_id,
                    parent[0] if parent is not None else None,
                    trace_id,
                )
            )

    def _wrap(self, original: Callable, layer: str) -> Callable:
        recorder = self

        if layer == "sim.runner.job":

            def wrapper(spec, *args, **kwargs):
                with recorder.span(layer, trace_id=_cell_trace_id(spec)):
                    return original(spec, *args, **kwargs)

        elif original.__name__ == "me_cost_function":

            def wrapper(*args, **kwargs):
                with recorder.span(layer):
                    cost = original(*args, **kwargs)
                # The search calls the returned cost inside its own
                # span; time those calls as PBPAIR work too.
                return None if cost is None else recorder._wrap(cost, layer)

        else:

            def wrapper(*args, **kwargs):
                with recorder.span(layer):
                    return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every layer entry point; restore the originals on exit."""
        from repro import api

        with ExitStack() as stack:
            for class_name, method, layer in LAYER_METHODS:
                owner = getattr(api, class_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(original, layer))
                stack.callback(setattr, owner, method, original)
            for module_name, function, layer in LAYER_FUNCTIONS:
                stack.enter_context(
                    patched_function(
                        module_name,
                        function,
                        lambda original, layer=layer: self._wrap(original, layer),
                    )
                )
            yield self

    # -- analysis ----------------------------------------------------------

    def _self_time_spans(self) -> Iterator[tuple[Span, float]]:
        """Every span with its self time in seconds."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration
                )
        for span in self.spans:
            yield span, span.duration - child_time.get(span.span_id, 0.0)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        totals: dict[str, float] = {}
        for span, own in self._self_time_spans():
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def calls(self, layer: str) -> int:
        """Calls into ``layer`` that did not come from ``layer`` itself."""
        names = {span.span_id: span.name for span in self.spans}
        return sum(
            1
            for span in self.spans
            if span.name == layer and names.get(span.parent_id) != layer
        )

    def durations(self, layer: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == layer]

    def _setup_traces(self) -> set[str]:
        """Trace ids of top-level clip generations, which are set-up."""
        return {
            span.trace_id
            for span in self.spans
            if span.parent_id is None and span.name == "video.generate"
        }

    def pipeline_wall(self) -> float:
        """Seconds covered by top-level spans other than clip generation."""
        setup = self._setup_traces()
        return sum(
            span.duration
            for span in self.spans
            if span.parent_id is None and span.trace_id not in setup
        )

    def unattributed_share(self) -> float:
        """Share of the pipeline wall no named layer's self time covers."""
        wall = self.pipeline_wall()
        if not wall:
            return 0.0
        setup = self._setup_traces()
        named = sum(
            own
            for span, own in self._self_time_spans()
            if span.name in NAMED_LAYERS and span.trace_id not in setup
        )
        return 1.0 - named / wall

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")


@dataclass(frozen=True)
class GridCall:
    """One observed ``run_grid`` call: wall time, workers and outcomes."""

    wall_s: float
    workers: int
    outcomes: list


def _grid_workers(args: tuple, kwargs: dict, n_specs: int) -> int:
    from repro.sim.runner import resolve_workers

    if args:
        max_workers = args[0]
    elif "max_workers" in kwargs:
        max_workers = kwargs["max_workers"]
    elif kwargs.get("options") is not None:
        max_workers = kwargs["options"].max_workers
    else:
        max_workers = None
    return min(resolve_workers(max_workers), max(n_specs, 1))


class GridObserver:
    """Keeps the outcomes and wall time of every ``run_grid`` call.

    A pass-through wrapper: no spans, no tracer, so it can ride along on
    an otherwise untimed pass and report the runner's busy share.
    """

    def __init__(self) -> None:
        self.calls: list[GridCall] = []

    @contextmanager
    def installed(self) -> Iterator["GridObserver"]:
        def make(original: Callable) -> Callable:
            def run_grid(jobs, *args, **kwargs):
                specs = list(jobs)
                start = time.perf_counter()
                outcomes = original(specs, *args, **kwargs)
                self.calls.append(
                    GridCall(
                        time.perf_counter() - start,
                        _grid_workers(args, kwargs, len(specs)),
                        outcomes,
                    )
                )
                return outcomes

            return run_grid

        with patched_function("repro.sim.runner", "run_grid", make):
            yield self
