#!/usr/bin/env python3
"""Export ratchet: every exported value of lib/ has a caller, or is listed.

For each `val name` declared in a lib/**/*.mli, look for the word `name`
in the .ml and .mli files under lib, bin, bench, perfbench and examples,
other than the module's own .ml and .mli. An export found nowhere else
must be on the allow-list (tools/export_allowlist.txt, one `Module.name`
a line, `#` starts a comment). The check fails on a callerless export
missing from the list, and on a list entry that is no longer exported or
has found a caller, so the list only shrinks.

A word match is coarse: a name also counts as used when it appears in a
comment or as another module's value of the same name.

Run from the repository root: python3 tools/check_exports.py
"""
import os
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
ALLOWLIST = os.path.join("tools", "export_allowlist.txt")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.MULTILINE)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def sources():
    for top in SEARCH_DIRS:
        for root, dirs, files in os.walk(top):
            dirs[:] = [d for d in dirs if not d.startswith("_build")]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(root, f)


def main():
    # word -> the files it appears in, each file named by its path less
    # the extension, so a module's .ml and .mli are one unit.
    seen = {}
    exports = []
    for path in sorted(sources()):
        unit = os.path.splitext(path)[0]
        with open(path) as f:
            text = f.read()
        for w in set(WORD.findall(text)):
            seen.setdefault(w, set()).add(unit)
        if path.startswith("lib" + os.sep) and path.endswith(".mli"):
            module = os.path.basename(unit).capitalize()
            for name in VAL.findall(text):
                exports.append((f"{module}.{name}", name, unit))
    callerless = {q for q, name, unit in exports if not (seen.get(name, set()) - {unit})}
    exported = {q for q, _, _ in exports}

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
