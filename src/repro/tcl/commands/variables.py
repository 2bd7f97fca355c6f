"""Variable commands: set, unset, incr, append, array.

Variables are string-valued (paper section 2).  Array elements
(``name(index)``) are supported as in classic Tcl.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import TclError
from ..lists import format_list, parse_list
from ..strings import glob_match, _to_int


def split_var_name(name: str) -> Tuple[str, Optional[str]]:
    """Split ``a(x)`` into ``("a", "x")``; plain names give (name, None)."""
    if name.endswith(")"):
        open_paren = name.find("(")
        if open_paren > 0:
            return name[:open_paren], name[open_paren + 1:-1]
    return name, None


def cmd_set(interp, argv: List[str]) -> str:
    if len(argv) not in (2, 3):
        raise TclError('wrong # args: should be "set varName ?newValue?"')
    name, index = split_var_name(argv[1])
    if len(argv) == 3:
        return interp.set_var(name, argv[2], index)
    return interp.get_var(name, index)


def cmd_unset(interp, argv: List[str]) -> str:
    if len(argv) < 2:
        raise TclError(
            'wrong # args: should be "unset varName ?varName ...?"')
    for full_name in argv[1:]:
        name, index = split_var_name(full_name)
        interp.unset_var(name, index)
    return ""


def cmd_incr(interp, argv: List[str]) -> str:
    if len(argv) not in (2, 3):
        raise TclError(
            'wrong # args: should be "incr varName ?increment?"')
    name, index = split_var_name(argv[1])
    current = _to_int(interp.get_var(name, index))
    amount = _to_int(argv[2]) if len(argv) == 3 else 1
    return interp.set_var(name, str(current + amount), index)


def cmd_append(interp, argv: List[str]) -> str:
    if len(argv) < 3:
        raise TclError(
            'wrong # args: should be "append varName value ?value ...?"')
    name, index = split_var_name(argv[1])
    try:
        current = interp.get_var(name, index)
    except TclError:
        current = ""
    value = current + "".join(argv[2:])
    return interp.set_var(name, value, index)


def cmd_array(interp, argv: List[str]) -> str:
    """array option arrayName ?arg ...? — size/names/exists/get/set."""
    if len(argv) < 3:
        raise TclError(
            'wrong # args: should be "array option arrayName ?arg ...?"')
    option, name = argv[1], argv[2]
    frame, resolved = interp._resolve(interp.current_frame, name)
    value = interp._read_cell(frame, resolved)
    is_array = isinstance(value, dict)
    if option == "exists":
        return "1" if is_array else "0"
    if option == "set":
        if len(argv) != 4:
            raise TclError(
                'wrong # args: should be "array set arrayName list"')
        pairs = parse_list(argv[3])
        if len(pairs) % 2 != 0:
            raise TclError("list must have an even number of elements")
        for position in range(0, len(pairs), 2):
            interp.set_var(name, pairs[position + 1], pairs[position])
        return ""
    if not is_array:
        raise TclError('"%s" isn\'t an array' % name)
    if option == "size":
        return str(len(value))
    if option == "names":
        pattern = argv[3] if len(argv) > 3 else None
        names = [key for key in value
                 if pattern is None or glob_match(pattern, key)]
        return format_list(sorted(names))
    if option == "get":
        pattern = argv[3] if len(argv) > 3 else None
        items: List[str] = []
        for key in sorted(value):
            if pattern is None or glob_match(pattern, key):
                items.extend([key, value[key]])
        return format_list(items)
    raise TclError(
        'bad option "%s": should be exists, get, names, set, or size'
        % option)


def register(interp) -> None:
    interp.register("set", cmd_set)
    interp.register("unset", cmd_unset)
    interp.register("incr", cmd_incr)
    interp.register("append", cmd_append)
    interp.register("array", cmd_array)
