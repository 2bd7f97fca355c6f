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
    # Array elements always hold strings, also after ``incr``.
    "set i 5\nincr i\nset arr(x) $i\nstring length $arr(x)",
    "proc p {} {\n  set i 5\n  incr i\n  set a(x) $i\n"
    "  list [string toupper $a(x)] [lindex $a(x) 0] [append a(x) z]"
    " [array get a]\n}\np",
    "set i 2\nincr i\nset a($i) $i\nincr a($i) [expr {1/2.0 > 0}]\n"
    "array get a",
    # The spreadsheet shapes of paper section 6.
    "set cell(-1) 0\nset in(0) 4\n"
    "for {set i 0} {$i < 5} {incr i} {\n"
    "  set formula($i) \"expr {\\$cell([expr {$i - 1}]) * 3"
    " + \\$in(0) + $i}\"\n}\n"
    "proc recalc {first} {\n"
    "  global cell in formula total\n  set total 0\n"
    "  foreach i {0 1 2 3 4} {\n"
    "    if {$i < $first} continue\n"
    "    set old $cell($i)\n"
    "    set cell($i) [eval $formula($i)]\n"
    "    set total [expr {$total + $cell($i) - $old}]\n  }\n"
    "  list $total [expr {$cell(4) % 7}] $cell(2)\n}\n"
    "for {set i 0} {$i < 5} {incr i} {set cell($i) 0}\n"
    "list [recalc 0] [recalc 2] $total",
    "set a(1) 5\nset i 1\nexpr {$a($i) * 2 + $a(1) - $a([expr {$i}])}",
    "set x 3\nlist [expr {$x * 2}] [string length [expr {$x * 1.5}]]",
    "eval set q 7\nlist [eval {incr q}] $q [eval list a b {c d}]",
    "proc u {} {upvar 1 arr a\nset a(k) [expr {2 * 3}]\nincr a(k)\n"
    "set a(k)}\nlist [u] [array get arr]",
    "proc g {} {global s\nset s [expr {$s * 2}]}\nset s 21\ng\nset s",
    "proc chain {} {upvar 1 x y\nupvar 0 y z\nset z [expr {$z + 1}]}\n"
    "set x 1\nchain\nset x",
    "set i 1\nset a($i,x) 2\nset a(z$i) 3\nlsort [array names a]",
    "set i 0\nset a($i) [set i 5]\narray get a",
    "set out {}\nforeach i {1 2 3 4} {if {$i == 3} {eval break}\n"
    "lappend out [expr {-$i}]}\nset out",
    "proc e {} {eval {return early}\nreturn late}\ne",
    # NaN compares "equal" under Tcl's three-way compare.
    "set n [expr {1e308 * 10 - 1e308 * 10}]\nlist"
    " [expr {(1e308 * 10 - 1e308 * 10) == 0}]"
    " [expr {(1e308 * 10 - 1e308 * 10) <= 0}]"
    " [expr {(1e308 * 10 - 1e308 * 10) != 0}]",
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


def outcome(interp, script):
    """Result or (message, errorInfo), plus ``info cmdcount``."""
    try:
        result = ("ok", interp.eval_top(script))
    except TclError as error:
        result = ("error", error.message, interp.eval("set errorInfo"))
    return result + (interp.eval("info cmdcount"),)


@pytest.mark.parametrize("script", [
    "set i 0\nset a($i) [expr {1/0}]",
    "set a($i) [expr {1/0}]",
    "eval {error x}",
    "proc f {} {eval {error x}}\nf",
    "set cell(1) 1\nset cell(999)",
    "set cell(1) 1\nproc f {} {global cell\nexpr {$cell(999) + 1}}\nf",
    "set s 1\nset s(x) 2",
    "set s(x) 1\nset s 2",
    "set s(x) 1\nexpr {$s + 1}",
    "set s 1\nexpr {$s(x) + 1}",
    "set s(x) 1\nincr s",
    "set x $nope",
    "return [error boom]",
    "foreach x [error boom] {}",
    "proc deep {n} {set x [deep [expr {$n + 1}]]}\ndeep 0",
    "proc loop {} {upvar 0 a b\nupvar 0 b a\nset a 1}\nloop",
])
def test_errors_error_info_and_cmd_count_match(script, traced):
    outcomes = [outcome(interp, script)
                for interp in evaluators() + (traced(),)]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] == "error"


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

    def test_eval_op_and_inline_command_plans(self, interp):
        interp.eval("proc recalc {i} {\n  global cell formula\n"
                    "  set cell($i) [eval $formula($i)]\n"
                    "  set t [expr {$cell($i) + 1}]\n"
                    "  puts [lindex $t 0]\n}")
        listing = interp.eval("info disassemble recalc")
        assert "SET_NAME   cell($i) <- [eval $formula($i)]" in listing
        assert "inline [eval $formula($i)]" in listing
        assert "EVAL       $formula($i)" in listing
        assert "inline [expr {$cell($i) + 1}]" in listing
        assert "inline [lindex $t 0]" in listing
        assert "CALL       lindex/2" in listing

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

    def test_renaming_eval_or_expr_after_a_first_run(self, interp):
        interp.eval("set formula(0) {expr {6 * 7}}")
        interp.eval("proc cell {i} {global formula\n"
                    "  list [eval $formula($i)] [expr {$i + 1}]}")
        assert interp.eval("cell 0") == "42 1"
        interp.eval("rename eval real_eval")
        interp.eval("proc eval {script} {return evaluated}")
        assert interp.eval("cell 0") == "evaluated 1"
        interp.eval("rename expr real_expr")
        interp.eval("proc expr {args} {return computed}")
        assert interp.eval("cell 0") == "evaluated computed"

    def test_read_trace_on_a_global_array_fires(self, interp):
        interp.eval("set cell(0) 5\nset cell(1) 6\nset log {}")
        interp.eval("proc total {} {global cell\n"
                    "  expr {$cell(0) + $cell(1)}}")
        assert interp.eval("total") == "11"
        interp.eval("proc remember {n1 n2 op} {\n"
                    "  global log\n  lappend log $n2 $op\n}")
        interp.eval("trace variable cell r remember")
        assert interp.eval("total") == "11"
        assert interp.eval("set log") == "0 r 1 r"

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
