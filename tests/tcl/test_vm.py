"""Tests for the bytecode VM (repro.tcl.vm).

The VM is a pure CPU optimisation: every observable — results, errors,
errorInfo, ``info cmdcount``, variable traces — must match the
parse-per-eval reference interpreter exactly.  The equivalence battery
runs the same scripts under ``Interp()`` and
``Interp(compile_enabled=False)`` and insists on identical outcomes,
then again with the span tracer collecting (which sends every op down
the VM's generic path).  The rest of the file covers the VM-only
surface (disassembly, counters, inline caches, deopt).
"""

import io

import pytest

from repro.tcl import Interp, TclError
from repro.tk import TkApp
from repro.x11 import XServer


@pytest.fixture
def interp():
    return Interp()


def metric(interp, name):
    return interp.obs.metrics.counter(name).value


def evaluators():
    """The VM and the parse-per-eval reference, in that order."""
    return (Interp(), Interp(compile_enabled=False))


@pytest.fixture
def traced():
    """Factory of VM interpreters whose span tracer is collecting.

    The tracers are stopped after the test: a tracer left running
    stays registered process-wide and would stamp trace context into
    the wire frames of later tests.
    """
    tracers = []

    def make():
        interp = Interp()
        interp.obs.tracer.start()
        tracers.append(interp.obs.tracer)
        return interp

    yield make
    for tracer in tracers:
        tracer.stop()


# ---------------------------------------------------------------------------
# equivalence battery: VM vs. parse-per-eval, traced vs. untraced
# ---------------------------------------------------------------------------

EQUIVALENCE_SCRIPTS = [
    "set a 1",
    "set a 5\nincr a\nincr a 10",
    "set a hello\nstring length $a",
    "proc add {x y} {expr {$x + $y}}\nadd 19 23",
    "proc fact {n} {\n  if {$n <= 1} {return 1}\n"
    "  expr {$n * [fact [expr {$n - 1}]]}\n}\nfact 10",
    "set i 0\nwhile {$i < 100} {incr i}\nset i",
    "set total 0\nfor {set i 0} {$i < 10} {incr i} "
    "{set total [expr {$total + $i}]}\nset total",
    "set out {}\nforeach x {a b c} {lappend out $x $x}\nset out",
    "foreach {k v} {a 1 b 2} {set arr($k) $v}\narray get arr",
    "proc dflt {a {b 7}} {expr {$a + $b}}\nlist [dflt 1] [dflt 1 2]",
    "proc varargs {first args} {list $first $args}\nvarargs 1 2 3 4",
    "proc up {} {upvar 1 x local\nincr local}\nset x 5\nup\nset x",
    "proc glo {} {global g\nset g changed}\nset g start\nglo\nset g",
    "if {1 < 2} {set r yes} else {set r no}\nset r",
    "if {0} {set r a} elseif {1} {set r b} else {set r c}\nset r",
    "set i 0\nwhile 1 {incr i\nif {$i > 3} break}\nset i",
    "set out {}\nforeach x {1 2 3 4} {if {$x == 2} continue\n"
    "lappend out $x}\nset out",
    'catch {unknowncmd} msg\nset msg',
    'set x 08\nexpr {$x == "8"}',
]


# "tree_walker" in the test names below means the reference evaluator,
# which is the parse-per-eval path.
@pytest.mark.parametrize("script", EQUIVALENCE_SCRIPTS)
def test_vm_matches_tree_walker(script):
    vm, reference = evaluators()
    assert vm.eval(script) == reference.eval(script)


@pytest.mark.parametrize("script", [
    "undefined_command",
    "set",                               # wrong # args
    "incr novar",
    "expr {1 +}",
    "proc p {a} {}\np",                  # missing parameter
    "proc p {} {break}\np",              # break outside a loop
])
def test_vm_matches_tree_walker_errors(script, traced):
    outcomes = []
    for interp in evaluators() + (traced(),):
        with pytest.raises(TclError) as info:
            interp.eval(script)
        outcomes.append(info.value.message)
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_error_info_matches_tree_walker(traced):
    script = "proc inner {} {error boom}\nproc outer {} {inner}"
    reports = []
    for interp in evaluators() + (traced(),):
        interp.eval(script)
        with pytest.raises(TclError):
            interp.eval_top("outer")
        reports.append(interp.eval("set errorInfo"))
    assert reports[0] == reports[1] == reports[2]


def test_cmd_count_matches_tree_walker(traced):
    script = ("proc add {x y} {expr {$x + $y}}\n"
              "set t 0\nfor {set i 0} {$i < 5} {incr i} "
              "{set t [add $t $i]}")
    counts = []
    for interp in evaluators() + (traced(),):
        interp.eval(script)
        counts.append(interp.eval("info cmdcount"))
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("script", EQUIVALENCE_SCRIPTS)
def test_traced_matches_untraced(script, traced):
    interp = traced()
    assert interp.eval(script) == Interp().eval(script)
    assert any(span.kind == "cmd" for span in interp.obs.tracer.spans)


def test_traced_span_names_substituted_widget_command():
    app = TkApp(XServer(), name="spans")
    app.interp.stdout = io.StringIO()
    tracer = app.obs.tracer
    try:
        tracer.start()
        app.interp.eval("set w .b; button $w; $w configure -text hi")
    finally:
        tracer.stop()
        app.destroy()
    cmds = [(span.name, span.widget) for span in tracer.spans
            if span.kind == "cmd"]
    assert cmds == [("set", None), ("button", ".b"), (".b", ".b")]


# ---------------------------------------------------------------------------
# counters and disassembly
# ---------------------------------------------------------------------------

class TestCounters:
    def test_compiles_and_dispatches_count(self, interp):
        interp.eval("proc add {x y} {expr {$x + $y}}")
        base = metric(interp, "tcl.vm.compiles")
        interp.eval("add 1 2")
        assert metric(interp, "tcl.vm.compiles") > base
        dispatched = metric(interp, "tcl.vm.dispatches")
        assert dispatched > 0
        interp.eval("add 3 4")
        assert metric(interp, "tcl.vm.dispatches") > dispatched

    def test_inline_cache_hits_grow_on_repeat_calls(self, interp):
        interp.eval("proc add {x y} {expr {$x + $y}}")
        interp.eval("add 1 2")
        first = metric(interp, "tcl.vm.inline_cache_hits")
        for _ in range(5):
            interp.eval("add 1 2")
        assert metric(interp, "tcl.vm.inline_cache_hits") > first

    def test_counters_visible_through_info_metrics(self, interp):
        interp.eval("set a 1")
        listing = interp.eval("info metrics tcl.vm.*")
        assert "tcl.vm.compiles" in listing
        assert "tcl.vm.dispatches" in listing
        assert "tcl.vm.inline_cache_hits" in listing


class TestDisassemble:
    def test_proc_disassembly_lists_slots_and_expr(self, interp):
        interp.eval("proc add {x y} {expr {$x + $y}}")
        listing = interp.eval("info disassemble add")
        assert "slots: 0=x 1=y" in listing
        assert "EXPR" in listing

    def test_script_disassembly(self, interp):
        listing = interp.eval(
            'info disassemble {set a 1\nwhile {$a < 3} {incr a}}')
        assert "SET_NAME" in listing
        assert "WHILE" in listing
        assert "INCR_NAME" in listing

    def test_call_opcode_shows_target_and_arity(self, interp):
        interp.eval("proc noop {} {}")
        # A newline keeps the argument from being read as a proc name.
        listing = interp.eval("info disassemble {noop\nnoop}")
        assert "CALL" in listing
        assert "noop/0" in listing

    def test_unknown_proc_falls_back_to_script(self, interp):
        # Not a proc name: the argument is disassembled as a script.
        listing = interp.eval("info disassemble {set q 5}")
        assert "SET_NAME" in listing

    def test_listed_in_bad_option_message(self, interp):
        with pytest.raises(TclError, match="disassemble"):
            interp.eval("info nosuchoption")


# ---------------------------------------------------------------------------
# deoptimisation
# ---------------------------------------------------------------------------

class TestDeopt:
    def test_redefining_a_builtin_is_honored(self, interp):
        # A cached script whose ``set`` ops were specialized must
        # notice when the builtin is replaced, and re-route the same
        # bytecode through the replacement.
        interp.eval("proc shout {args} {return [join $args -]}")
        script = "set greeting hello\nset greeting"
        assert interp.eval(script) == "hello"
        interp.eval("rename set _real_set")
        interp.eval("rename shout set")
        assert interp.eval(script) == "greeting"
        # The variable itself was untouched by the impostor.
        assert interp.eval("_real_set greeting") == "hello"

    def test_proc_redefinition_takes_effect(self, interp):
        interp.eval("proc f {} {return old}")
        script = "f"
        assert interp.eval(script) == "old"
        interp.eval("proc f {} {return new}")
        assert interp.eval(script) == "new"

    def test_variable_traces_fire_on_vm_path(self, interp):
        interp.eval("set log {}")
        interp.eval("proc remember {n1 n2 op} {\n"
                    "  global log\n  lappend log $op\n}")
        interp.eval("trace variable watched w remember")
        interp.eval("proc writer {} {\n"
                    "  global watched\n  set watched 1\n  set watched 2\n}")
        interp.eval("writer")
        assert interp.eval("set log") == "w w"

    def test_upvar_on_a_bound_formal_errors_like_the_tree(self):
        # A formal with a value cannot be rebound by upvar; the slot
        # frame must report it exactly like the dict frame does.
        script = ("proc reuse {x} {upvar 1 target x}\n"
                  "set target original\nreuse ignored")
        messages = []
        for interp in evaluators():
            with pytest.raises(TclError) as info:
                interp.eval(script)
            messages.append(info.value.message)
        assert messages[0] == messages[1]

    def test_info_locals_sees_slot_variables(self, interp):
        interp.eval("proc probe {a b} {\n"
                    "  set c 3\n  lsort [info locals]\n}")
        assert interp.eval("probe 1 2") == "a b c"

    def test_uplevel_into_a_slot_frame(self, interp):
        interp.eval("proc outer {x} {inner\nset x}")
        interp.eval("proc inner {} {uplevel 1 {set x rewritten}}")
        assert interp.eval("outer start") == "rewritten"
