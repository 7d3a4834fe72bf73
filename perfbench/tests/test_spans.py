"""Self-time arithmetic of the span recorder."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, SpanRecorder  # noqa: E402


def _recorder(*spans: Span) -> SpanRecorder:
    recorder = SpanRecorder()
    recorder.spans.extend(spans)
    return recorder


def test_self_time_subtracts_direct_children_only():
    recorder = _recorder(
        Span("sim.simulate", 0.0, 10.0, 1, None, "t"),
        Span("codec.encoder", 1.0, 5.0, 2, 1, "t"),
        Span("codec.motion", 2.0, 3.0, 3, 2, "t"),
        Span("codec.decoder", 6.0, 9.0, 4, 1, "t"),
    )
    assert recorder.self_times() == {
        "sim.simulate": 3.0,
        "codec.encoder": 3.0,
        "codec.motion": 1.0,
        "codec.decoder": 3.0,
    }
    assert recorder.pipeline_wall() == 10.0


def test_nested_calls_of_one_layer_count_once():
    recorder = _recorder(
        Span("network.channel", 0.0, 4.0, 1, None, "t"),
        Span("network.channel", 1.0, 3.0, 2, 1, "t"),
        Span("network.channel", 5.0, 6.0, 3, None, "t"),
    )
    assert recorder.calls("network.channel") == 2
    assert recorder.self_times() == {"network.channel": 5.0}


def test_spans_nest_and_inherit_the_trace_id():
    recorder = SpanRecorder()
    with recorder.span("sim.simulate", trace_id="simulate:NO:0"):
        with recorder.span("codec.encoder"):
            pass
    with recorder.span("video.generate"):
        pass
    inner, outer, lone = recorder.spans
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id == "simulate:NO:0"
    assert lone.parent_id is None and lone.trace_id != outer.trace_id
    assert recorder.pipeline_wall() == outer.duration


def test_unattributed_share_is_the_wall_minus_named_layers():
    # A fleet whose own work and whose cell glue no named layer covers;
    # the top-level clip generation is set-up, outside the wall.
    recorder = _recorder(
        Span("video.generate", 0.0, 2.0, 1, None, "video.generate:1"),
        Span("sim.fleet", 2.0, 12.0, 2, None, "fleet:0"),
        Span("sim.runner.job", 3.0, 7.0, 3, 2, "cell:a"),
        Span("codec.encoder", 3.5, 5.5, 4, 3, "cell:a"),
        Span("sim.runner.job", 7.0, 11.0, 5, 2, "cell:b"),
        Span("codec.decoder", 7.5, 10.5, 6, 5, "cell:b"),
        Span("video.generate", 7.6, 7.7, 7, 6, "cell:b"),
    )
    assert recorder.pipeline_wall() == 10.0
    # Named: encoder 2.0 + decoder 2.9 + nested generation 0.1.
    assert abs(recorder.unattributed_share() - 0.5) < 1e-12
