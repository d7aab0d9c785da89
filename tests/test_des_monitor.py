"""Unit tests for the Trace instrumentation."""

from __future__ import annotations

import io
import json

from repro.des import BEGIN, END, INSTANT, Trace, load_jsonl


class TestTrace:
    def test_emit_records_time(self, env):
        tr = Trace(env)

        def proc(env):
            yield env.timeout(5)
            tr.emit("app", "tick", 1)

        env.process(proc(env))
        env.run()
        assert len(tr) == 1
        rec = tr.records[0]
        assert (rec.time, rec.source, rec.kind, rec.detail) == (5.0, "app", "tick", 1)

    def test_filter_by_kind_and_source(self, env):
        tr = Trace(env)
        tr.emit("a", "k1")
        tr.emit("b", "k1")
        tr.emit("a", "k2")
        assert len(list(tr.filter(kind="k1"))) == 2
        assert len(list(tr.filter(source="a"))) == 2
        assert len(list(tr.filter(kind="k2", source="a"))) == 1
        assert tr.sources() == ("a", "b")

    def test_kinds_first_seen_order(self, env):
        tr = Trace(env)
        tr.emit("s", "b")
        tr.emit("s", "a")
        tr.emit("s", "b")
        assert tr.kinds() == ("b", "a")
        assert (tr.count("b"), tr.count("a"), tr.count("c")) == (2, 1, 0)

    def test_format_limits(self, env):
        tr = Trace(env)
        for i in range(4):
            tr.emit("s", "k", i)
        text = tr.format(limit=2)
        assert "2 more records" in text
        assert text.count("\n") == 2


class TestSpans:
    def test_span_records_begin_end_and_duration(self, env):
        tr = Trace(env)

        def proc(env):
            sid = tr.span_begin("app", "work", "payload")
            yield env.timeout(7)
            assert tr.span_end(sid) == 7.0

        env.process(proc(env))
        env.run()
        begin, end = tr.records
        assert (begin.ph, begin.sid, begin.time) == (BEGIN, 1, 0.0)
        assert (end.ph, end.sid, end.time) == (END, 1, 7.0)
        assert tr.span_seconds("work") == 7.0
        assert tr.span_totals["work"] == [1, 7.0]
        assert tr.open_spans() == ()
        # a second span of the same kind sums into its totals
        tr.span_end(tr.span_begin("app", "work"), time=9.0)
        assert tr.span_totals["work"] == [2, 9.0]
        assert tr.span_seconds("work") == 9.0

    def test_open_spans_reported(self, env):
        tr = Trace(env)
        tr.span_begin("app", "stuck")
        assert tr.open_spans() == (("app", "stuck"),)
        # closing an unknown id records and accounts nothing
        assert tr.span_end(0) == 0.0
        assert len(tr) == 1 and tr.span_totals == {}

    def test_filter_by_phase(self, env):
        tr = Trace(env)
        tr.emit("s", "k")
        tr.span_end(tr.span_begin("s", "k"))
        assert len(list(tr.filter(ph=INSTANT))) == 1
        assert len(list(tr.filter(ph=BEGIN))) == 1
        assert len(list(tr.filter(ph=END))) == 1

    def test_explicit_times_and_held_release(self, env):
        """Records take explicit stamps.

        A held release runs once, cleared before it runs, just before the
        first record stamped at or after its time; a withdrawn one never.
        """
        tr = Trace(env)
        sid = tr.span_begin("drain", "flush", time=1.0)
        released = []

        def land():
            released.append(tr.due)
            tr.span_end(sid, "landed", time=4.0)

        tr.hold(4.0, land)
        tr.emit("app", "before", time=3.5)
        tr.emit("app", "tie", time=4.0)
        tr.emit("app", "after", time=6.0)
        assert [(r.time, r.kind, r.ph) for r in tr] == [
            (1.0, "flush", BEGIN), (3.5, "before", INSTANT),
            (4.0, "flush", END), (4.0, "tie", INSTANT),
            (6.0, "after", INSTANT),
        ]
        assert released == [float("inf")]
        assert tr.span_seconds("flush") == 3.0

        tr.hold(7.0, land)
        tr.hold(float("inf"), None)  # withdrawn
        tr.flush(10.0)
        tr.emit("app", "late", time=10.0)
        assert [r.kind for r in tr][-1] == "late" and len(released) == 1

    def test_format_marks_span_boundaries(self, env):
        tr = Trace(env)
        tr.span_end(tr.span_begin("s", "k"))
        lines = tr.format().splitlines()
        assert "> s" in lines[0]
        assert "< s" in lines[1]


class TestExporters:
    def _sample_trace(self, env):
        tr = Trace(env)

        def proc(env):
            tr.emit("app", "tick", {"n": 1})
            sid = tr.span_begin("app", "work", [1, 2])
            yield env.timeout(3)
            tr.span_end(sid, "done")

        env.process(proc(env))
        env.run()
        return tr

    def test_jsonl_round_trip(self, env):
        tr = self._sample_trace(env)
        buf = io.StringIO()
        assert tr.to_jsonl(buf) == 3
        loaded = load_jsonl(io.StringIO(buf.getvalue()))
        assert len(loaded) == len(tr.records)
        for orig, back in zip(tr.records, loaded):
            assert (back.time, back.source, back.kind, back.ph, back.sid) == (
                orig.time, orig.source, orig.kind, orig.ph, orig.sid
            )
        # JSON-native details round-trip exactly (tuples become lists)
        assert loaded[0].detail == {"n": 1}
        assert loaded[1].detail == [1, 2]
        assert loaded[2].detail == "done"

    def test_jsonl_stringifies_non_native_details(self, env):
        tr = Trace(env)
        tr.emit("s", "k", object())
        buf = io.StringIO()
        tr.to_jsonl(buf)
        obj = json.loads(buf.getvalue())
        assert isinstance(obj["detail"], str)

    def test_chrome_trace_schema(self, env):
        tr = self._sample_trace(env)
        buf = io.StringIO()
        n = tr.to_chrome_trace(buf)
        payload = json.loads(buf.getvalue())
        events = payload["traceEvents"]
        assert n == len(events)
        assert payload["displayTimeUnit"] == "ms"

        meta = [e for e in events if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert "process_name" in names and "thread_name" in names
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert thread_names == {"app"}

        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["s"] == "t"
        assert instants[0]["args"]["detail"] == {"n": 1}

        b = next(e for e in events if e["ph"] == "B")
        e_ = next(e for e in events if e["ph"] == "E")
        assert b["name"] == e_["name"] == "work"
        assert b["tid"] == e_["tid"]
        # default scale: seconds -> microseconds
        assert e_["ts"] - b["ts"] == 3e6

    def test_chrome_trace_one_tid_per_source(self, env):
        tr = Trace(env)
        tr.emit("alpha", "k")
        tr.emit("beta", "k")
        tr.emit("alpha", "k")
        buf = io.StringIO()
        tr.to_chrome_trace(buf)
        events = json.loads(buf.getvalue())["traceEvents"]
        tids = {
            e["args"]["name"]: e["tid"]
            for e in events if e.get("name") == "thread_name"
        }
        assert len(tids) == 2
        rows = [e["tid"] for e in events if e["ph"] == "i"]
        assert rows == [tids["alpha"], tids["beta"], tids["alpha"]]

    def test_file_paths(self, env, tmp_path):
        tr = self._sample_trace(env)
        jpath = tmp_path / "t.jsonl"
        cpath = tmp_path / "t.json"
        tr.to_jsonl(str(jpath))
        tr.to_chrome_trace(str(cpath))
        assert len(load_jsonl(str(jpath))) == 3
        assert "traceEvents" in json.loads(cpath.read_text())

    def test_trace_id_stamped_on_exports(self, env):
        tr = Trace(env, trace_id="feedc0de11223344")
        tr.emit("s", "k")
        buf = io.StringIO()
        tr.to_jsonl(buf)
        assert json.loads(buf.getvalue())["trace_id"] == "feedc0de11223344"
        buf = io.StringIO()
        tr.to_chrome_trace(buf)
        payload = json.loads(buf.getvalue())
        assert payload["otherData"]["trace_id"] == "feedc0de11223344"

    def test_no_trace_id_keeps_record_shape(self, env):
        tr = Trace(env)
        tr.emit("s", "k")
        buf = io.StringIO()
        tr.to_jsonl(buf)
        line = json.loads(buf.getvalue())
        assert "trace_id" not in line
        buf = io.StringIO()
        tr.to_chrome_trace(buf)
        assert "otherData" not in json.loads(buf.getvalue())
