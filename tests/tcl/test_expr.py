"""Tests for the expression evaluator used by expr/if/while/for."""

import pytest
from hypothesis import given, strategies as st

from repro.tcl import Interp, TclError


@pytest.fixture
def interp():
    return Interp()


def expr(interp, text):
    return interp.eval("expr {%s}" % text if "{" not in text and
                       "}" not in text else "expr %s" % text)


class TestArithmetic:
    def test_precedence(self, interp):
        assert interp.eval("expr 3+4*2") == "11"

    def test_parentheses(self, interp):
        assert interp.eval("expr (3+4)*2") == "14"

    def test_unary_minus(self, interp):
        assert interp.eval("expr -3+5") == "2"
        assert interp.eval("expr 4*-2") == "-8"

    def test_integer_division_truncates(self, interp):
        assert interp.eval("expr 7/2") == "3"

    def test_float_division(self, interp):
        assert interp.eval("expr 7.0/2") == "3.5"

    def test_modulo(self, interp):
        assert interp.eval("expr 7%3") == "1"

    def test_divide_by_zero_is_error(self, interp):
        with pytest.raises(TclError, match="divide by zero"):
            interp.eval("expr 1/0")

    def test_float_formatting_keeps_point(self, interp):
        assert interp.eval("expr 1.0+1.0") == "2.0"

    def test_hex_literals(self, interp):
        assert interp.eval("expr 0x10+1") == "17"

    def test_octal_literals(self, interp):
        assert interp.eval("expr 010+1") == "9"

    def test_scientific_notation(self, interp):
        assert interp.eval("expr 1e2+1") == "101.0"

    def test_non_numeric_operand_is_error(self, interp):
        with pytest.raises(TclError, match="non-numeric"):
            interp.eval("expr {abc + 1}")


class TestRelationalAndLogical:
    def test_less_than(self, interp):
        interp.eval("set i 1")
        assert interp.eval("expr $i<2") == "1"

    def test_equality(self, interp):
        assert interp.eval("expr 2==2") == "1"
        assert interp.eval("expr 2!=2") == "0"

    def test_string_comparison_fallback(self, interp):
        assert interp.eval('expr {"abc" == "abc"}') == "1"
        assert interp.eval('expr {"abc" < "abd"}') == "1"

    def test_numeric_comparison_preferred(self, interp):
        # "10" > "9" numerically even though "10" < "9" as strings.
        assert interp.eval("expr 10>9") == "1"

    def test_logical_and_or(self, interp):
        assert interp.eval("expr 1&&0") == "0"
        assert interp.eval("expr 1||0") == "1"

    def test_not(self, interp):
        assert interp.eval("expr !0") == "1"
        assert interp.eval("expr !5") == "0"

    def test_short_circuit_and_skips_errors(self, interp):
        # The right side would divide by zero, but && is lazy.
        assert interp.eval("expr {0 && 1/0}") == "0"

    def test_short_circuit_or_skips_errors(self, interp):
        assert interp.eval("expr {1 || 1/0}") == "1"

    def test_ternary(self, interp):
        assert interp.eval("expr 1?10:20") == "10"
        assert interp.eval("expr 0?10:20") == "20"

    def test_ternary_lazy(self, interp):
        assert interp.eval("expr {1 ? 5 : 1/0}") == "5"


class TestBitwise:
    def test_and_or_xor(self, interp):
        assert interp.eval("expr 6&3") == "2"
        assert interp.eval("expr 6|3") == "7"
        assert interp.eval("expr 6^3") == "5"

    def test_shifts(self, interp):
        assert interp.eval("expr 1<<4") == "16"
        assert interp.eval("expr 16>>2") == "4"

    def test_complement(self, interp):
        assert interp.eval("expr ~0") == "-1"

    def test_float_operand_of_int_op_is_error(self, interp):
        with pytest.raises(TclError, match="floating-point"):
            interp.eval("expr 1.5&1")


class TestSubstitutionInsideExpr:
    def test_variable(self, interp):
        interp.eval("set n 21")
        assert interp.eval("expr $n*2") == "42"

    def test_command(self, interp):
        interp.eval("proc five {} {return 5}")
        assert interp.eval("expr [five]+1") == "6"

    def test_quoted_string_with_variable(self, interp):
        interp.eval("set who world")
        assert interp.eval('expr {"$who" == "world"}') == "1"

    def test_braced_string_literal(self, interp):
        assert interp.eval('expr {{abc} == {abc}}') == "1"


class TestMathFunctions:
    def test_abs(self, interp):
        assert interp.eval("expr abs(-4)") == "4"

    def test_int_truncates(self, interp):
        assert interp.eval("expr int(3.9)") == "3"

    def test_double(self, interp):
        assert interp.eval("expr double(3)") == "3.0"

    def test_round(self, interp):
        assert interp.eval("expr round(2.5)") == "3"
        assert interp.eval("expr round(-2.5)") == "-3"

    def test_unknown_function_is_error(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr nosuch(1)")


class TestSyntaxErrors:
    def test_trailing_garbage(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr {1 2}")

    def test_missing_operand(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr {1+}")

    def test_unbalanced_paren(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr {(1+2}")

    def test_single_equals_rejected(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr {1 = 2}")


class TestProperties:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_addition_matches_python(self, a, b):
        interp = Interp()
        assert interp.eval("expr %d+%d" % (a, b)) == str(a + b)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_div_mod_identity(self, a, b):
        interp = Interp()
        quotient = int(interp.eval("expr %d/%d" % (a, b)))
        remainder = int(interp.eval("expr %d%%%d" % (a, b)))
        assert quotient * b + remainder == a

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_comparison_consistency(self, a, b):
        interp = Interp()
        less = interp.eval("expr %d<%d" % (a, b)) == "1"
        greater = interp.eval("expr %d>%d" % (a, b)) == "1"
        equal = interp.eval("expr %d==%d" % (a, b)) == "1"
        assert [less, greater, equal].count(True) == 1


class TestMathLibraryFunctions:
    def test_sqrt(self, interp):
        assert interp.eval("expr sqrt(16)") == "4.0"

    def test_trig(self, interp):
        assert interp.eval("expr sin(0)") == "0.0"
        assert interp.eval("expr cos(0)") == "1.0"

    def test_exp_log(self, interp):
        assert interp.eval("expr exp(0)") == "1.0"
        assert interp.eval("expr log(1)") == "0.0"

    def test_pow_two_arguments(self, interp):
        assert interp.eval("expr pow(2, 10)") == "1024.0"

    def test_hypot(self, interp):
        assert interp.eval("expr hypot(3, 4)") == "5.0"

    def test_fmod(self, interp):
        assert interp.eval("expr fmod(7, 3)") == "1.0"

    def test_floor_ceil(self, interp):
        assert interp.eval("expr floor(3.7)") == "3.0"
        assert interp.eval("expr ceil(3.2)") == "4.0"

    def test_nested_functions(self, interp):
        assert interp.eval("expr sqrt(pow(3,2) + pow(4,2))") == "5.0"

    def test_functions_with_variables(self, interp):
        interp.eval("set n 25")
        assert interp.eval("expr sqrt($n)") == "5.0"

    def test_domain_error(self, interp):
        with pytest.raises(TclError, match="domain error"):
            interp.eval("expr sqrt(-1)")

    def test_wrong_argument_count(self, interp):
        with pytest.raises(TclError, match="wrong # arguments"):
            interp.eval("expr sin(1, 2)")


class TestComparisonBoundaries:
    """Int/string round-tripping at comparison boundaries.

    Whether an operand compares numerically or lexically is decided by
    the same parser that feeds the dual-rep numeric cache
    (repro.tcl.value.number_of); these rows pin the tricky edges so the
    bytecode VM's inlined comparisons and the appliers of the
    parse-per-eval path can never drift apart.
    """

    @pytest.mark.parametrize("expression, expected", [
        # leading-zero strings are invalid octal, hence strings
        ('"08" == "8"', "0"),
        ('"08" == "08"', "1"),
        ('"010" == "8"', "1"),           # valid octal IS the number 8
        # surrounding whitespace parses, interior whitespace does not
        ('" 1 " == 1', "1"),
        ('"- 5" == -5', "0"),
        # spelled-out inf/nan are strings; overflow literals are inf
        ('"inf" == "inf"', "1"),
        ('1e999 > 1e308', "1"),
        ('1e999 == 1e999', "1"),
        # Python's digit-separator extension must not leak in
        ('"1_000" == 1000', "0"),
        # numeric strings with different spellings compare as numbers
        ('"0x10" == 16', "1"),
        ('"1.0" == 1', "1"),
        ('"+5" == 5', "1"),
        # ordering mixes: numeric when both parse, lexical otherwise
        ('"9" < "10"', "1"),
        ('"a9" < "a10"', "0"),
        ('"abc" < "abd"', "1"),
    ])
    def test_boundary(self, interp, expression, expected):
        assert interp.eval("expr {%s}" % expression) == expected

    @pytest.mark.parametrize("expression, expected", [
        ('"08" == "8"', "0"),
        ('" 1 " == 1', "1"),
        ('1e999 > 1e308', "1"),
        ('"9" < "10"', "1"),
    ])
    def test_boundary_without_bytecode(self, expression, expected):
        interp = Interp(compile_enabled=False)
        assert interp.eval("expr {%s}" % expression) == expected

    def test_variable_operands_hit_the_same_rules(self, interp):
        interp.eval('set a 08')
        interp.eval('set b 8')
        assert interp.eval("expr {$a == $b}") == "0"
        interp.eval('set a 010')
        assert interp.eval("expr {$a == $b}") == "1"
