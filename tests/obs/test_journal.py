"""The session journal: hooks, determinism, ring, sink, Tcl surface."""

import json

import pytest

from repro.obs.journal import FORMAT_VERSION, Flags, Journal
from repro.obs.replay import record_session, start_recording
from repro.tk import TkApp
from repro.x11 import XServer
from repro.x11.faults import FaultPlan

from conftest import click

SCRIPT = """
button .b -text Hello -command {set ::clicked 1}
entry .e
pack append . .b {top} .e {top}
focus .e
"""

STEPS = [
    ("warp_pointer", 12, 12, 0),
    ("press_button", 1, 0),
    ("release_button", 1, 0),
    ("update",),
    ("press_key", "a", 0, None),
    ("release_key", "a", 0, None),
    ("update",),
]


class TestHooks:
    def test_requests_and_batches_recorded(self, server, app):
        journal = start_recording(server, name="t")
        app.interp.eval("button .b -text hi\npack append . .b {top}")
        app.update()
        server.detach_journal()
        kinds = journal.counts()
        assert kinds["req"] > 0
        assert kinds["batch"] > 0
        wire = [op[0] for op in journal.wire()]
        assert "create_window" in wire
        assert "batch" in wire

    def test_round_trips_recorded(self, server, app):
        journal = start_recording(server, name="t")
        app.display.sync()
        server.detach_journal()
        assert journal.counts().get("rt", 0) >= 1

    def test_inputs_recorded_with_arguments(self, server, app):
        app.interp.eval("button .b -text hi\npack append . .b {top}")
        app.update()
        journal = start_recording(server, name="t")
        click(server, app, ".b")
        server.detach_journal()
        inputs = journal.inputs()
        assert ("warp_pointer" in [name for name, _ in inputs])
        press = [args for name, args in inputs if name == "press_button"]
        assert press == [[1, 0]]

    def test_request_attributed_to_client(self, server, app):
        journal = start_recording(server, name="t")
        app.display.intern_atom("JOURNAL_TEST")
        server.detach_journal()
        requests = [entry for entry in journal.entries()
                    if entry["k"] == "req"
                    and entry["name"] == "intern_atom"]
        assert requests
        assert requests[-1]["client"] == app.display.client.number

    def test_faults_recorded(self, server, app):
        plan = FaultPlan()
        plan.fail_request(name="intern_atom", error="BadAtom")
        server.install_fault_plan(plan)
        journal = start_recording(server, name="t")
        with pytest.raises(Exception):
            app.display.intern_atom("DOOMED")
        server.detach_journal()
        faults = [entry for entry in journal.entries()
                  if entry["k"] == "fault"]
        assert faults and faults[0]["type"] == "error"

    def test_send_rpc_recorded(self, server, app):
        peer = TkApp(server, name="peer")
        try:
            journal = start_recording(server, name="t")
            app.sender.send("peer", "set x 1")
            server.detach_journal()
            sends = [entry for entry in journal.entries()
                     if entry["k"] == "send"]
            assert sends == [sends[0]]
            assert sends[0]["sender"] == app.name
            assert sends[0]["target"] == "peer"
            assert sends[0]["script"] == "set x 1"
            assert sends[0]["wait"] is True
        finally:
            if not peer.destroyed:
                peer.destroy()

    def test_detach_stops_recording(self, server, app):
        journal = start_recording(server, name="t")
        server.detach_journal()
        before = len(journal)
        app.display.intern_atom("AFTER_DETACH")
        assert len(journal) == before
        assert journal.recording is False

    def test_virtual_timestamps_never_wall_time(self, server, app):
        journal = start_recording(server, name="t")
        app.interp.eval("frame .f")
        app.update()
        server.detach_journal()
        times = [entry["t"] for entry in journal.entries()]
        assert times == sorted(times)
        assert all(stamp <= server.time_ms for stamp in times)


class TestDeterminism:
    def test_same_session_twice_is_byte_identical(self):
        first = record_session(SCRIPT, STEPS, name="det")
        second = record_session(SCRIPT, STEPS, name="det")
        assert first.to_jsonl() == second.to_jsonl()
        assert len(first) > 20

    def test_header_embeds_script_and_flags(self):
        journal = record_session(SCRIPT, STEPS, name="det",
                                 flags=Flags(cache_enabled=False))
        assert journal.meta["v"] == FORMAT_VERSION
        assert journal.meta["name"] == "det"
        assert "button .b" in journal.meta["script"]
        assert journal.meta["flags"]["cache_enabled"] is False
        assert journal.meta["flags"]["compile_enabled"] is True

    def test_save_load_round_trip(self, tmp_path):
        journal = record_session(SCRIPT, STEPS, name="det")
        path = tmp_path / "session.journal"
        journal.save(str(path))
        loaded = Journal.load(str(path))
        assert loaded.to_jsonl() == journal.to_jsonl()
        assert loaded.wire() == journal.wire()
        assert loaded.inputs() == journal.inputs()

    def test_jsonl_lines_are_canonical(self):
        journal = record_session(SCRIPT, STEPS, name="det")
        for line in journal.to_jsonl().splitlines():
            record = json.loads(line)
            assert json.dumps(record, sort_keys=True,
                              separators=(",", ":")) == line


class TestFlags:
    def test_defaults_are_all_on(self):
        assert Flags().as_dict() == {"cache_enabled": True,
                                     "compile_enabled": True,
                                     "buffering_enabled": True}
        assert Flags.from_dict(None) == Flags()

    def test_round_trips_through_the_header(self):
        flags = Flags(cache_enabled=False, buffering_enabled=False)
        journal = Journal()
        journal.set_header(name="f", flags=flags)
        assert Journal.loads(journal.to_jsonl()).flags == flags

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="bytecode_enabled"):
            Flags.from_dict({"cache_enabled": True,
                             "bytecode_enabled": True})


class TestRecordSessionErrors:
    """record_session raises on a failing step, except new_app."""

    def test_failing_eval_raises(self):
        from repro.tcl.errors import TclError
        with pytest.raises(TclError, match="boom"):
            record_session(SCRIPT, [("eval", "error boom")], name="err")

    def test_failing_new_app_is_recorded(self):
        journal = record_session(
            SCRIPT, [("new_app", "peer", "error boom"), ("update",)],
            name="err")
        assert ("new_app", ["peer", "error boom"]) in journal.inputs()


class TestRing:
    def test_ring_bounds_entries_and_counts_drops(self, server, app):
        journal = start_recording(server, name="t", maxlen=10)
        for index in range(30):
            app.display.intern_atom("ATOM_%d" % index)
        server.detach_journal()
        assert len(journal) == 10
        assert journal.dropped > 0

    def test_sink_survives_ring_wrap(self, server, app, tmp_path):
        sink = tmp_path / "session.jsonl"
        journal = start_recording(server, name="t", maxlen=5,
                                  sink=str(sink))
        for index in range(20):
            app.display.intern_atom("ATOM_%d" % index)
        server.detach_journal()
        journal.close_sink()
        lines = sink.read_text().splitlines()
        # header + every entry ever recorded, not just the ring's tail
        assert len(lines) == 1 + len(journal) + journal.dropped
        assert json.loads(lines[0])["k"] == "header"


class TestTclCommand:
    def test_start_dump_save_stop(self, server, app, tmp_path):
        app.interp.eval("obs journal start")
        app.interp.eval("frame .f\npack append . .f {top}")
        app.update()
        dump = app.interp.eval("obs journal dump -limit 2")
        assert dump.startswith("JOURNAL:")
        assert "req" in dump
        path = tmp_path / "tcl.journal"
        app.interp.eval("obs journal save %s" % path)
        app.interp.eval("obs journal stop")
        assert json.loads(path.read_text().splitlines()[0])["k"] == \
            "header"
        assert server.journal.recording is False

    def test_start_begins_a_fresh_recording(self, server, app):
        app.interp.eval("obs journal start")
        app.interp.eval("frame .f")
        app.update()
        first = server.journal
        assert len(first) > 0
        app.interp.eval("obs journal start")
        assert server.journal is not first
        assert len(server.journal) == 0
        assert first.recording is False
        app.interp.eval("obs journal stop")

    def test_dump_without_journal_is_an_error(self, server, app):
        from repro.tcl.errors import TclError
        # CI's crash-forensics conftest auto-attaches a journal to
        # every server; detach it so this server truly has none.
        server.detach_journal()
        server.journal = None
        with pytest.raises(TclError, match="no journal recorded"):
            app.interp.eval("obs journal dump")

    def test_start_with_file_sink(self, server, app, tmp_path):
        sink = tmp_path / "live.jsonl"
        app.interp.eval("obs journal start -file %s" % sink)
        app.interp.eval("frame .f")
        app.update()
        app.interp.eval("obs journal stop")
        assert sink.read_text().count("\n") > 1

    def test_obs_dump_gains_journal_key_only_when_attached(self, server,
                                                           app):
        server.detach_journal()
        server.journal = None
        data = json.loads(app.interp.eval("obs dump"))
        assert "journal" not in data
        app.interp.eval("obs journal start")
        app.interp.eval("frame .f")
        app.update()
        data = json.loads(app.interp.eval("obs dump"))
        assert data["journal"]["recording"] is True
        assert data["journal"]["entries"] > 0
        app.interp.eval("obs journal stop")


class TestDroppedMetric:
    def test_ring_evictions_counted_on_server_registry(self, server, app):
        start_recording(server, name="t", maxlen=10)
        for index in range(30):
            app.display.intern_atom("ATOM_%d" % index)
        dropped = server.obs.metrics.value("obs.journal.dropped")
        assert dropped > 0
        assert dropped == server.journal.dropped
        server.detach_journal()

    def test_bind_seeds_from_prior_drops(self):
        journal = Journal(maxlen=2)
        journal.set_header(name="t")
        journal.recording = True
        for index in range(5):
            journal.input("eval", ("x",))
        assert journal.dropped == 3
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        journal.bind_metrics(registry)
        assert registry.value("obs.journal.dropped") == 3
        journal.input("eval", ("y",))
        assert registry.value("obs.journal.dropped") == 4

    def test_unbounded_journal_never_drops(self, server, app):
        start_recording(server, name="t")
        for index in range(30):
            app.display.intern_atom("ATOM_%d" % index)
        assert server.obs.metrics.value("obs.journal.dropped") == 0
        server.detach_journal()
