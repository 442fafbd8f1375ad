"""Walkthrough of the formula lexer and both constant detectors.

Run: python3 demos/demo_lexer.py
"""

from sheetaudit import extract_constants, heuristic_scan, render, tokenize

# A formula with a hard-coded retention factor.  Digits inside the
# sheet qualifier and the cell reference are not constants; the lone
# "1" is.
formula = "=I7*(1-Data!$C$24)"
tokens = tokenize(formula)

print(f"formula: {formula}")
for tok in tokens:
    value = "" if tok.numeric_value is None else f"  value={tok.numeric_value}"
    print(f"  {tok.kind.name:<16} {tok.text!r}{value}")

print("round-trip identical:", render(tokens) == formula)
print("constants:", extract_constants(tokens))

# The legacy character scan flags digits right after an operator and
# reads the number from there.  It agrees here, but misses decimals after
# a dot and anything the lexer knows is a reference.
print("legacy scan:", heuristic_scan(formula))

# Trickier inputs the token-based detector gets right:
for tricky in ['="Q4 2007"&A1', "=1E+5", "=LOG10(B2)", "='Prod 2007'!$C$6"]:
    values = [c.value for c in extract_constants(tokenize(tricky))]
    print(f"{tricky:<22} -> constants {values}")
