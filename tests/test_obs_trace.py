"""Span tracing: identity, tree reconstruction, exporters."""

import json
import os
import time

import pytest

from repro.obs.journal import configure_journal, read_journal
from repro.obs.trace import (
    build_span_tree,
    critical_path,
    critical_path_text,
    current_span_id,
    export_chrome_trace,
    flame_summary,
    flame_text,
    phase_table,
    reset_trace_state,
    span,
    span_coverage,
    timeline_text,
)


@pytest.fixture(autouse=True)
def _clean_trace_state():
    reset_trace_state()
    yield
    configure_journal(None)
    reset_trace_state()


@pytest.fixture
def journal(tmp_path):
    run_dir = str(tmp_path / "run")
    configure_journal(run_dir)
    yield run_dir
    configure_journal(None)


def _span_events(run_dir):
    return read_journal(run_dir).events


class TestSpanWriting:
    def test_zero_cost_without_journal(self):
        with span("anything"):
            assert current_span_id() is None
        assert phase_table()["anything"]["count"] == 1

    def test_open_close_pair_journaled(self, journal):
        with span("work", k=1):
            pass
        events = _span_events(journal)
        assert [event["kind"] for event in events] \
            == ["span_open", "span_close"]
        assert events[0]["name"] == "work"
        assert events[0]["attrs"] == {"k": 1}
        assert events[1]["span"] == events[0]["span"]
        assert events[1]["wall_s"] >= 0.0
        assert events[1]["cpu_s"] >= 0.0

    def test_nested_spans_record_parent(self, journal):
        with span("outer"):
            outer = current_span_id()
            with span("inner"):
                assert current_span_id() not in (None, outer)
            assert current_span_id() == outer
        opens = [event for event in _span_events(journal)
                 if event["kind"] == "span_open"]
        assert opens[0]["parent"] is None
        assert opens[1]["parent"] == opens[0]["span"]

    def test_unbalanced_close_recovers(self, journal):
        outer = span("outer")
        outer.__enter__()
        inner = span("inner")
        inner.__enter__()
        inner_id = current_span_id()
        outer.__exit__(None, None, None)  # closed out of order
        assert current_span_id() == inner_id
        inner.__exit__(None, None, None)
        assert current_span_id() is None
        assert set(phase_table()) == {"outer", "outer/inner"}

    def test_tracer_span_is_traced(self, journal):
        with span("phase"), span("step"):
            pass
        names = [event["name"] for event in _span_events(journal)
                 if event["kind"] == "span_open"]
        assert names == ["phase", "step"]


def _mk(ts, pid, seq, kind, **fields):
    return {"ts": ts, "pid": pid, "seq": seq, "kind": kind, **fields}


def _forest():
    """Root (1s) -> [child-a (0.4s), child-b on another pid (0.5s)]."""
    return [
        _mk(10.0, 1, 1, "span_open", span="1-1", parent=None, name="root"),
        _mk(10.1, 1, 2, "span_open", span="1-2", parent="1-1", name="a"),
        _mk(10.5, 1, 3, "span_close", span="1-2", parent="1-1", name="a",
            wall_s=0.4),
        _mk(10.4, 2, 1, "span_open", span="2-1", parent="1-1", name="b"),
        _mk(10.9, 2, 2, "span_close", span="2-1", parent="1-1", name="b",
            wall_s=0.5, cpu_s=0.45),
        _mk(11.0, 1, 4, "span_close", span="1-1", parent=None, name="root",
            wall_s=1.0),
    ]


class TestTreeReconstruction:
    def test_well_formed_forest(self):
        roots = build_span_tree(_forest())
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert sorted(child.name for child in root.children) == ["a", "b"]
        assert root.complete
        assert root.wall_s == 1.0
        assert {node.pid for node in root.walk()} == {1, 2}

    def test_every_span_within_parent_extent(self):
        for root in build_span_tree(_forest()):
            for node in root.walk():
                for child in node.children:
                    assert child.start >= node.start - 1e-6
                    assert child.end <= node.end + 1e-6

    def test_unclosed_span_kept_as_incomplete(self):
        events = _forest()[:2]  # root + child opened, nothing closed
        roots = build_span_tree(events, now=12.0)
        root = roots[0]
        assert not root.complete
        assert root.end == 12.0
        assert root.wall_s == 2.0
        assert not root.children[0].complete

    def test_close_without_open_becomes_node(self):
        events = [_mk(10.0, 1, 1, "span_close", span="1-9", parent=None,
                      name="orphan", wall_s=0.5)]
        roots = build_span_tree(events)
        assert roots[0].name == "orphan"
        assert roots[0].start == 9.5

    def test_coverage_of_root_against_wall(self):
        roots = build_span_tree(_forest())
        assert span_coverage(roots, 1.0) == 1.0
        assert span_coverage(roots, 2.0) == 0.5
        assert span_coverage([], 1.0) == 0.0


class TestViews:
    def test_flame_summary_self_vs_total(self):
        rows = {row["path"]: row
                for row in flame_summary(build_span_tree(_forest()))}
        assert rows["root"]["total_s"] == 1.0
        assert abs(rows["root"]["self_s"] - 0.1) < 1e-9  # 1.0 - 0.4 - 0.5
        assert rows["root/b"]["cpu_s"] == 0.45

    def test_text_views_render(self):
        roots = build_span_tree(_forest())
        flame = flame_text(roots)
        assert "root/a" in flame and "share" in flame
        critical = critical_path_text(roots)
        assert critical.splitlines()[1].strip().startswith("root")
        timeline = timeline_text(roots)
        assert "pid 1:" in timeline and "pid 2:" in timeline

    def test_critical_path_descends_longest_child(self):
        chain = critical_path(build_span_tree(_forest()))
        assert [node.name for _, node in chain] == ["root", "b"]
        assert [depth for depth, _ in chain] == [0, 1]

    def test_critical_path_skips_late_zero_length_sibling(self):
        # A long early child beats a sibling that finishes last but
        # takes no time (``repro compare``'s sweeps, then the power
        # model build).
        events = [
            _mk(10.0, 1, 1, "span_open", span="1-1", parent=None,
                name="root"),
            _mk(10.0, 1, 2, "span_open", span="1-2", parent="1-1",
                name="sweep"),
            _mk(10.8, 1, 3, "span_close", span="1-2", parent="1-1",
                name="sweep", wall_s=0.8),
            _mk(10.9, 1, 4, "span_open", span="1-3", parent="1-1",
                name="build"),
            _mk(10.9, 1, 5, "span_close", span="1-3", parent="1-1",
                name="build", wall_s=0.0),
            _mk(11.0, 1, 6, "span_close", span="1-1", parent=None,
                name="root", wall_s=1.0),
        ]
        chain = critical_path(build_span_tree(events))
        assert [node.name for _, node in chain] == ["root", "sweep"]

    def test_critical_path_tie_takes_the_later_child(self):
        events = [
            _mk(10.0, 1, 1, "span_open", span="1-1", parent=None,
                name="root"),
            _mk(10.0, 1, 2, "span_open", span="1-2", parent="1-1",
                name="early"),
            _mk(10.3, 1, 3, "span_close", span="1-2", parent="1-1",
                name="early", wall_s=0.3),
            _mk(10.5, 1, 4, "span_open", span="1-3", parent="1-1",
                name="late"),
            _mk(10.8, 1, 5, "span_close", span="1-3", parent="1-1",
                name="late", wall_s=0.3),
            _mk(11.0, 1, 6, "span_close", span="1-1", parent=None,
                name="root", wall_s=1.0),
        ]
        chain = critical_path(build_span_tree(events))
        assert [node.name for _, node in chain] == ["root", "late"]

    def test_empty_views_do_not_crash(self):
        assert "no spans" in flame_text([])
        assert "no spans" in critical_path_text([])
        assert "no spans" in timeline_text([])


class TestChromeExport:
    def test_export_loads_as_trace_event_json(self, tmp_path):
        events = _forest() + [
            _mk(10.2, 1, 9, "store", event="hit", key="abc"),
            _mk(10.3, 1, 10, "progress", done=1, total=9, unit="configs"),
        ]
        out = tmp_path / "trace.json"
        count = export_chrome_trace(events, str(out))
        payload = json.loads(out.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert len(payload["traceEvents"]) == count == 5
        complete = [entry for entry in payload["traceEvents"]
                    if entry["ph"] == "X"]
        instants = [entry for entry in payload["traceEvents"]
                    if entry["ph"] == "i"]
        assert len(complete) == 3 and len(instants) == 2
        for entry in complete:
            assert entry["ts"] >= 0.0  # relative microseconds
            assert entry["dur"] > 0.0
            assert {"name", "pid", "tid", "args"} <= set(entry)
        root = next(e for e in complete if e["name"] == "root")
        assert root["dur"] == 1e6

    def test_live_spans_round_trip_through_export(self, journal, tmp_path):
        with span("outer"):
            time.sleep(0.01)
            with span("inner"):
                time.sleep(0.01)
        out = tmp_path / "trace.json"
        count = export_chrome_trace(read_journal(journal).events, str(out))
        assert count == 2
        names = {entry["name"]
                 for entry in json.loads(out.read_text())["traceEvents"]}
        assert names == {"outer", "inner"}


class TestForkSafety:
    def test_span_ids_unique_across_fork(self, journal):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        with span("parent"):
            parent_id = current_span_id()
            pid = os.fork()
            if pid == 0:  # child
                try:
                    with span("child"):
                        pass
                    os._exit(0)
                except BaseException:
                    os._exit(1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        configure_journal(None)
        opens = [event for event in read_journal(journal).events
                 if event["kind"] == "span_open"]
        sids = [event["span"] for event in opens]
        assert len(sids) == len(set(sids)) == 2
        child_open = next(event for event in opens
                          if event["name"] == "child")
        assert child_open["parent"] == parent_id
