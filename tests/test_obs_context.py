"""Unit tests for cross-layer trace-context propagation (repro.obs.context)."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.obs.context import (
    SPAN_FIELDS,
    SPAN_KIND,
    SPAN_SCHEMA_VERSION,
    TRACE_HEADER,
    SpanWriter,
    TraceContext,
    activate,
    current,
    current_sink,
    format_trace_header,
    mint_context,
    parse_trace_header,
    read_spans,
    trace_fragment_dir,
)


class TestTraceContext:
    def test_mint_produces_distinct_hex_ids(self):
        a, b = mint_context(), mint_context()
        assert a.trace_id != b.trace_id
        assert a.span_id != a.trace_id
        assert a.parent_id is None
        int(a.trace_id, 16)  # lowercase hex
        assert a.trace_id == a.trace_id.lower()

    def test_child_links_parent(self):
        ctx = mint_context()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.parent_id == ctx.span_id
        assert child.span_id != ctx.span_id

    def test_context_is_immutable(self):
        ctx = mint_context()
        with pytest.raises(AttributeError):
            ctx.trace_id = "beef"

    def test_header_round_trip(self):
        ctx = TraceContext("feedc0de11223344", "aabbccdd00112233")
        wire = format_trace_header(ctx)
        assert wire == "feedc0de11223344-aabbccdd00112233"
        parsed = parse_trace_header(wire)
        # the receiver adopts the trace, mints its own span, and makes
        # the caller's span the parent
        assert parsed.trace_id == ctx.trace_id
        assert parsed.parent_id == ctx.span_id
        assert parsed.span_id != ctx.span_id

    def test_header_trace_id_only(self):
        parsed = parse_trace_header("feedc0de11223344")
        assert parsed.trace_id == "feedc0de11223344"
        assert parsed.parent_id is None

    @pytest.mark.parametrize("bad", [
        "", "UPPERCASE", "zz", "a" * 40, "abc-def-ghi", "abcd-XYZ",
        "ab cd", "abcd-",
    ])
    def test_malformed_header_raises(self, bad):
        with pytest.raises(ValueError):
            parse_trace_header(bad)

    def test_header_name_constant(self):
        assert TRACE_HEADER == "X-Pckpt-Trace"


class TestActivation:
    def test_no_context_by_default(self):
        assert current() is None

    def test_activate_scopes_and_restores(self):
        ctx = mint_context()
        with activate(ctx):
            assert current() is ctx
            inner = mint_context()
            with activate(inner):
                assert current() is inner
            assert current() is ctx
        assert current() is None

    def test_activate_none_is_passthrough(self):
        ctx = mint_context()
        with activate(ctx):
            with activate(None):
                assert current() is ctx
        assert current() is None

    def test_activation_is_thread_local(self):
        ctx = mint_context()
        seen = []

        def worker():
            seen.append(current())

        with activate(ctx):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == [None]

    def test_activation_is_task_local(self):
        """Tasks interleaving on one event loop each see their own."""
        contexts = {"a": mint_context(), "b": mint_context()}
        seen = {}

        async def job(name):
            with activate(contexts[name], sink=name):
                await asyncio.sleep(0)
                seen[name] = (current(), current_sink())

        async def main():
            await asyncio.gather(job("a"), job("b"))
            return current()

        assert asyncio.run(main()) is None
        assert seen == {name: (ctx, name) for name, ctx in contexts.items()}


class TestSpanWriter:
    def test_span_lines_match_schema(self, tmp_path):
        path = tmp_path / "frag.jsonl"
        with SpanWriter(path, "feedc0de", "worker/1") as w:
            w.span("kernel.run", 1.0, 3.5, parent_id="aabb",
                   args={"cell": "XGC|P2"})
            w.instant("note", 2.0)
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert len(lines) == 2
        for line in lines:
            assert set(line) == set(SPAN_FIELDS)
            assert line["kind"] == SPAN_KIND
            assert line["schema_version"] == SPAN_SCHEMA_VERSION
            assert line["trace_id"] == "feedc0de"
            assert line["source"] == "worker/1"
        span, instant = lines
        assert (span["ph"], span["t0"], span["t1"]) == ("X", 1.0, 3.5)
        assert span["parent_id"] == "aabb"
        assert span["args"] == {"cell": "XGC|P2"}
        assert (instant["ph"], instant["t1"]) == ("i", None)

    def test_lazy_open_writes_nothing_without_spans(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with SpanWriter(path, "feedc0de", "worker/1"):
            pass
        assert not path.exists()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "frag.jsonl"
        with SpanWriter(path, "feedc0de", "svc") as w:
            w.span("request", 0.0, 1.0)
        assert path.exists()

    def test_read_spans_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "frag.jsonl"
        with SpanWriter(path, "feedc0de", "svc") as w:
            w.span("request", 0.0, 1.0)
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"torn": ')  # interrupted mid-append
        spans = read_spans(path)
        assert len(spans) == 1
        assert spans[0]["name"] == "request"

    def test_fragment_dir_layout(self, tmp_path):
        d = trace_fragment_dir(tmp_path, "feedc0de")
        assert d == tmp_path / "obs" / "trace" / "feedc0de"


class TestDisabledModeOverhead:
    def test_inactive_lookup_not_slower_than_active(self):
        """A/B on one host: the untraced hot path must stay free.

        Every layer guards its span emission with ``current() is
        None``; the disabled case is the same thread-local attribute
        read as the enabled one, so best-of-N disabled wall staying at
        or below active wall — with generous noise headroom — pins the
        zero-overhead contract (same pattern as the PR-5 profiler
        regression test).
        """
        import time

        n = 20_000

        def best_of(runs=3):
            best = float("inf")
            for _ in range(runs):
                t0 = time.perf_counter()
                for _ in range(n):
                    current()
                best = min(best, time.perf_counter() - t0)
            return best

        disabled = best_of()
        with activate(mint_context()):
            active = best_of()
        assert disabled <= active * 1.5 + 0.01


class TestSchemaTable:
    def test_span_fields_shape(self):
        for name, (type_, nullable) in SPAN_FIELDS.items():
            assert isinstance(name, str)
            assert type_ in (str, int, float, dict)
            assert isinstance(nullable, bool)
        assert SPAN_FIELDS["kind"] == (str, False)
        assert SPAN_FIELDS["t1"][1] is True  # instants have no end
