"""Property-based tests (hypothesis) for the Tcl core invariants."""

import fnmatch

from hypothesis import assume, given, settings, strategies as st

from repro.tcl import (Interp, TclError, format_list, glob_match,
                       parse_list, parse_script, quote_element)
from repro.tcl.parser import Literal

_plain_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=10)

_word_chars = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-",
    min_size=1, max_size=8)


class TestListInvariants:
    @given(st.lists(_plain_text, max_size=10))
    def test_round_trip(self, elements):
        assert parse_list(format_list(elements)) == elements

    @given(st.lists(_plain_text, max_size=6))
    def test_llength_matches(self, elements):
        interp = Interp()
        interp.set_var("x", format_list(elements))
        assert interp.eval("llength $x") == str(len(elements))

    @given(st.lists(_plain_text, min_size=1, max_size=6),
           st.integers(0, 5))
    def test_lindex_matches(self, elements, index):
        assume(index < len(elements))
        interp = Interp()
        interp.set_var("x", format_list(elements))
        assert interp.eval("lindex $x %d" % index) == elements[index]

    @given(st.lists(_plain_text, max_size=6), _plain_text)
    def test_lappend_appends_exactly_one_element(self, elements, extra):
        interp = Interp()
        interp.set_var("x", format_list(elements))
        interp.eval("lappend x %s" % quote_element(extra))
        assert parse_list(interp.get_var("x")) == elements + [extra]

    @given(st.lists(_plain_text, max_size=8))
    def test_lsort_is_sorted_permutation(self, elements):
        interp = Interp()
        interp.set_var("x", format_list(elements))
        result = parse_list(interp.eval("lsort $x"))
        assert result == sorted(elements)

    @given(st.lists(_plain_text, max_size=6), st.integers(0, 6),
           _plain_text)
    def test_linsert_preserves_others(self, elements, position, new):
        interp = Interp()
        interp.set_var("x", format_list(elements))
        result = parse_list(interp.eval(
            "linsert $x %d %s" % (position, quote_element(new))))
        clamped = min(position, len(elements))
        assert result == elements[:clamped] + [new] + elements[clamped:]


class TestGlobMatchAgainstReference:
    """Tcl's * and ? agree with fnmatch on bracket-free patterns."""

    _simple = st.text(alphabet="abc*?", max_size=8)
    _subject = st.text(alphabet="abc", max_size=8)

    @given(_simple, _subject)
    def test_star_question_match_fnmatch(self, pattern, subject):
        expected = fnmatch.fnmatchcase(subject, pattern)
        assert glob_match(pattern, subject) == expected

    @given(_subject)
    def test_star_matches_everything(self, subject):
        assert glob_match("*", subject)

    @given(_subject)
    def test_exact_matches_itself(self, subject):
        assert glob_match(subject, subject)

    @given(st.characters(min_codepoint=97, max_codepoint=122))
    def test_ranges(self, ch):
        assert glob_match("[a-z]", ch)
        assert not glob_match("[0-9]", ch)


class TestExprAgainstPython:
    _small = st.integers(-1000, 1000)

    @given(_small, _small, _small)
    def test_precedence_matches_python(self, a, b, c):
        interp = Interp()
        assert interp.eval("expr %d + %d * %d" % (a, b, c)) == \
            str(a + b * c)

    @given(_small, _small)
    def test_relational_total_order(self, a, b):
        interp = Interp()
        lt = interp.eval("expr %d < %d" % (a, b))
        ge = interp.eval("expr %d >= %d" % (a, b))
        assert lt != ge

    @given(_small, _small, _small)
    def test_parentheses_regroup(self, a, b, c):
        interp = Interp()
        assert interp.eval("expr (%d + %d) * %d" % (a, b, c)) == \
            str((a + b) * c)

    @given(st.integers(0, 2**16), st.integers(0, 2**16))
    def test_bitwise_matches_python(self, a, b):
        interp = Interp()
        assert interp.eval("expr %d & %d" % (a, b)) == str(a & b)
        assert interp.eval("expr %d | %d" % (a, b)) == str(a | b)
        assert interp.eval("expr %d ^ %d" % (a, b)) == str(a ^ b)

    @given(_small)
    def test_double_negation(self, a):
        interp = Interp()
        assert interp.eval("expr --%d" % a) == str(a)
        assert interp.eval("expr !!%d" % a) == ("1" if a else "0")


class TestParserInvariants:
    @given(st.lists(_word_chars, min_size=1, max_size=6))
    def test_plain_words_parse_to_one_command(self, words):
        script = " ".join(words)
        commands = parse_script(script)
        assert len(commands) == 1
        assert [word.parts[0].text for word in commands[0].words] == words

    @given(st.lists(_word_chars, min_size=1, max_size=4))
    def test_braced_words_survive_verbatim(self, words):
        inner = " ".join(words)
        commands = parse_script("set x {%s}" % inner)
        assert commands[0].words[2].parts == (Literal(inner),)

    @given(_plain_text)
    def test_list_quoting_makes_one_word(self, text):
        """quote_element output always parses as exactly one word."""
        commands = parse_script("set x %s" % quote_element(text))
        assert len(commands) == 1
        assert len(commands[0].words) == 3

    @given(st.lists(_word_chars, min_size=1, max_size=4),
           st.lists(_word_chars, min_size=1, max_size=4))
    def test_semicolon_splits_commands(self, first, second):
        script = " ".join(first) + " ; " + " ".join(second)
        commands = parse_script(script)
        assert len(commands) == 2


class TestInterpreterInvariants:
    @given(_plain_text)
    def test_set_get_round_trip(self, value):
        interp = Interp()
        interp.set_var("v", value)
        assert interp.get_var("v") == value

    @given(_plain_text)
    def test_set_via_command_with_quoting(self, value):
        interp = Interp()
        interp.eval("set v %s" % quote_element(value))
        assert interp.get_var("v") == value

    @given(st.lists(_plain_text, max_size=5))
    def test_proc_args_arrive_intact(self, arguments):
        interp = Interp()
        interp.eval("proc probe args {return $args}")
        command = "probe " + " ".join(quote_element(a)
                                      for a in arguments)
        assert parse_list(interp.eval(command)) == arguments

    @given(st.integers(0, 30))
    def test_loop_count(self, n):
        interp = Interp()
        interp.eval("set c 0")
        interp.eval("for {set i 0} {$i < %d} {incr i} {incr c}" % n)
        assert interp.eval("set c") == str(n)

    @given(_plain_text)
    def test_catch_never_leaks_exception(self, chunk):
        """catch of arbitrary garbage returns a code, never raises."""
        interp = Interp()
        code = interp.eval("catch {%s} msg" % quote_element(chunk))
        assert code in ("0", "1", "2", "3", "4")


# ----------------------------------------------------------------------
# Embedded-Tcl spreadsheets (paper section 6): the bytecode VM, the
# parse-per-eval reference and the traced VM must agree on every
# outcome of a recalc.
# ----------------------------------------------------------------------

_SHEET_OPS = ("+", "-", "*", "%", "<", "==")


@st.composite
def _sheet_formula(draw, cell, inputs):
    """An expression over earlier cells, inputs and small constants;
    ``$cell(999)`` (missing) and ``% 0`` make some formulas fail."""
    def operand():
        kind = draw(st.sampled_from(("cell", "in", "const")))
        if kind == "cell":
            if draw(st.integers(0, 15)) == 0:
                return "$cell(999)"
            return "$cell(%d)" % draw(st.integers(-1, cell - 1))
        if kind == "in":
            return "$in(%d)" % draw(st.integers(0, inputs - 1))
        return str(draw(st.integers(0, 9)))
    text = operand()
    for _ in range(draw(st.integers(0, 3))):
        text = "(%s %s %s)" % (text, draw(st.sampled_from(_SHEET_OPS)),
                               operand())
    return text


@st.composite
def _spreadsheet(draw):
    inputs = draw(st.integers(1, 3))
    cells = draw(st.integers(1, 5))
    lines = ["set cell(-1) 0"]
    for k in range(inputs):
        value = draw(st.integers(0, 20))
        if draw(st.booleans()):
            lines.append("set in(%d) %d" % (k, value))
        else:
            # ``incr`` leaves a raw integer for the element store.
            lines.append("set v %d; incr v %d; set in(%d) $v"
                         % (value, draw(st.integers(-5, 5)), k))
    for i in range(cells):
        formula = draw(_sheet_formula(i, inputs))
        if draw(st.booleans()):
            lines.append("set formula(%d) {expr {%s}}" % (i, formula))
        else:
            lines.append("set formula(%d) {expr [expr {%s}]}"
                         % (i, formula))
    update = draw(st.sampled_from((
        "set cell($i) [eval $formula($i)]",
        "set cell($i) [eval $formula($i) {;} set _ \\$cell(-1)]",
        "eval set cell($i) \\[eval \\$formula($i)\\]",
    )))
    lines.append(
        "proc recalc {cells} {\n"
        "    global cell in formula total\n"
        "    set total 0\n"
        "    foreach i $cells {\n"
        "        %s\n"
        "        set total [expr {$total + $cell($i)}]\n"
        "        lappend log [expr {$cell($i) %% 7}] [string length $in(0)]\n"
        "    }\n"
        "    list $total $log\n"
        "}" % update)
    lines.append("list [recalc {%s}] [array get cell] [array get in]"
                 % " ".join(str(i) for i in range(cells)))
    return "\n".join(lines)


def _sheet_outcome(interp, script):
    try:
        result = ("ok", interp.eval_top(script))
    except TclError as error:
        result = ("error", error.message, interp.eval("set errorInfo"))
    return result + (interp.eval("info cmdcount"),)


class TestSpreadsheetEquivalence:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_spreadsheet())
    def test_vm_reference_and_traced_agree(self, script):
        traced = Interp()
        traced.obs.tracer.start()
        try:
            outcomes = [_sheet_outcome(interp, script) for interp in
                        (Interp(), Interp(compile_enabled=False), traced)]
        finally:
            traced.obs.tracer.stop()
        assert outcomes[0] == outcomes[1] == outcomes[2]
