#!/usr/bin/env python3
"""Export ratchet: every exported value of lib/ has a caller, or is listed.

For each `val v` declared in lib/**/m.mli, the export `M.v` counts as
used when another unit (a .ml and its .mli are one unit) under lib, bin,
bench, perfbench or examples names it:

- as the whole word `M.v`, which also matches `Lib.M.v`;
- as `X.v`, in a unit that aliases the module (`module X = Lib.M`);
- as the bare word `v`, only in a unit that opens or includes the module
  (`open M`, `open! M`, `let open M in`, `M.( ... )`, `include M`), or an
  alias of it.

Comments and string literals are blanked before matching, so a mention
in either is not a use; nested comments, and a `(*` or `"` inside a
string or character literal, are handled as the OCaml lexer does.

An export with no use must be on the allow-list (tools/export_allowlist.txt,
one `Module.name` a line, `#` starts a comment). The check fails on a
callerless export missing from the list, and on a list entry that is no
longer exported or has found a caller, so the list only shrinks.

Run from the repository root: python3 tools/check_exports.py
"""
import os
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
ALLOWLIST = os.path.join("tools", "export_allowlist.txt")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.MULTILINE)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_']*(?:\.[A-Za-z_][A-Za-z0-9_']*)+")
IDENT_CHAR = re.compile(r"[A-Za-z0-9_']")
# A character literal: 'c', '\n', '\\', '\'', '\123', '\xff', '\o777'.
CHAR = re.compile(r"'(?:[^\\']|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED = re.compile(r"\{([a-z_]*)\|")
PATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"
OPEN = re.compile(r"\b(?:open!?|include)\s+(" + PATH + r")")
LOCAL_OPEN = re.compile(r"(?<![A-Za-z0-9_'.])(" + PATH + r")\.\(")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*(" + PATH + r")(?![A-Za-z0-9_'.])(?!\s*\()")


def skip_string(text, i):
    """Index just past the string literal whose opening quote is at i."""
    i += 1
    while i < len(text):
        if text[i] == "\\":
            i += 2
        elif text[i] == '"':
            return i + 1
        else:
            i += 1
    return i


def skip_quoted(text, i, delim):
    """Index just past the quoted string `{delim|...|delim}` opening at i."""
    end = text.find("|" + delim + "}", i + len(delim) + 2)
    return len(text) if end < 0 else end + len(delim) + 2


def literal_end(text, i):
    """If a string, quoted string or character literal starts at i, the
    index just past it; otherwise None."""
    c = text[i]
    if c == '"':
        return skip_string(text, i)
    if c == "{":
        m = QUOTED.match(text, i)
        if m:
            return skip_quoted(text, i, m.group(1))
    if c == "'" and (i == 0 or not IDENT_CHAR.match(text[i - 1])):
        m = CHAR.match(text, i)
        if m:
            return m.end()
    return None


def code_only(text):
    """The text with every comment replaced by one space and every string
    literal by `""`, so neither counts as a use. Literals are skipped
    inside comments too, as the lexer does, so a `*)` in a commented-out
    string does not end the comment."""
    out = []
    depth = 0
    i = 0
    start = 0
    n = len(text)
    while i < n:
        if text.startswith("(*", i):
            if depth == 0:
                out.append(text[start:i])
            depth += 1
            i += 2
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
            if depth == 0:
                out.append(" ")
                start = i
        else:
            end = literal_end(text, i)
            if end is None:
                i += 1
            elif depth == 0 and text[i] in "\"{":
                out.append(text[start:i] + '""')
                i = start = end
            else:
                i = end
    if depth == 0:
        out.append(text[start:])
    return "".join(out)


def sources():
    for top in SEARCH_DIRS:
        for root, dirs, files in os.walk(top):
            dirs[:] = [d for d in dirs if not d.startswith("_build")]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(root, f)


def last(path):
    return path.rsplit(".", 1)[-1]


class Unit:
    """What one unit names: its qualified words `X.v` (each adjacent
    pair of a dotted path, so `Lib.M.v` gives `Lib.M` and `M.v`), its
    bare words, the modules it opens and its module aliases."""

    def __init__(self):
        self.qualified = set()
        self.words = set()
        self.opened = set()
        self.aliases = {}

    def add(self, text):
        for m in DOTTED.finditer(text):
            parts = m.group(0).split(".")
            for a, b in zip(parts, parts[1:]):
                self.qualified.add(f"{a}.{b}")
        self.words.update(WORD.findall(text))
        for m in OPEN.finditer(text):
            self.opened.add(last(m.group(1)))
        for m in LOCAL_OPEN.finditer(text):
            self.opened.add(last(m.group(1)))
        for m in ALIAS.finditer(text):
            self.aliases[m.group(1)] = last(m.group(2))

    def uses(self, module, name):
        names = {module} | {x for x, m in self.aliases.items() if m == module}
        if any(f"{x}.{name}" in self.qualified for x in names):
            return True
        return bool(names & self.opened) and name in self.words


def main():
    units = {}
    exports = []
    for path in sorted(sources()):
        unit = os.path.splitext(path)[0]
        with open(path) as f:
            text = f.read()
        units.setdefault(unit, Unit()).add(code_only(text))
        if path.startswith("lib" + os.sep) and path.endswith(".mli"):
            module = os.path.basename(unit).capitalize()
            for name in VAL.findall(text):
                exports.append((module, name, unit))

    callerless = {
        f"{module}.{name}"
        for module, name, unit in exports
        if not any(u.uses(module, name) for p, u in units.items() if p != unit)
    }
    exported = {f"{module}.{name}" for module, name, _ in exports}

    allowed = set()
    with open(ALLOWLIST) as f:
        for line in f:
            entry = line.split("#", 1)[0].strip()
            if entry:
                allowed.add(entry)

    new = sorted(callerless - allowed)
    stale = sorted(allowed - callerless)
    for q in new:
        print(f"{q}: exported, but no caller outside its own module; "
              f"use it, drop it from the .mli, or add it to {ALLOWLIST}")
    for q in stale:
        why = "has a caller now" if q in exported else "is no longer exported"
        print(f"{q}: {why}; remove it from {ALLOWLIST}")
    print(f"{len(exported)} exports, {len(callerless)} without a caller, "
          f"{len(allowed)} allowed")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
