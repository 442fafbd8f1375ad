"""Independent brute-force constant finder used as a test oracle.

A plain character-class scan, deliberately ignorant of the lexer: a
constant is a maximal digit run (with an optional .digits fraction)
whose preceding character is not a letter, '$', or '!'.  Only valid on
formulas restricted to references, operators, and plain int/decimal
numbers; string literals, sheet qualifiers, named ranges, scientific
notation, and percent suffixes are outside its vocabulary.
"""

from __future__ import annotations


def digit_run_constants(formula: str) -> list[tuple[float, int, int]]:
    """``(value, start, end)`` of each constant, in source order."""
    out: list[tuple[float, int, int]] = []
    i = 0
    n = len(formula)
    while i < n:
        if not formula[i].isdigit():
            i += 1
            continue
        prev = formula[i - 1] if i > 0 else ""
        start = i
        while i < n and formula[i].isdigit():
            i += 1
        if i + 1 < n and formula[i : i + 1] == "." and formula[i + 1].isdigit():
            i += 1
            while i < n and formula[i].isdigit():
                i += 1
        if prev.isalpha() or prev in "$!":
            continue
        out.append((float(formula[start:i]), start, i))
    return out
