#!/bin/sh
# List the values an interface exports that nothing outside their own
# module calls.
#
#   scripts/unused_exports.sh
#
# Every `val` in lib/**/*.mli is looked up in the .ml/.mli files under
# lib/, test/, bench/, perfbench/, bin/ and examples/, skipping the
# module's own .ml and .mli.  A use is `Mod.name` (or `Sub.name` for a
# value of a nested signature), `A.name` where the file binds
# `module A = ...Mod`, or a bare `name` in a file that opens Mod.  The
# search is textual, so it can miss a use only through an alias it does
# not see (a functor argument, an `include`); it never reports a value
# some caller names.
#
# A value that stays exported without an outside caller is listed in
# KEEP below with its reason.  Exit status: 0 = nothing unexplained,
# 1 = unexplained unused exports (printed one per line as Mod.name).

set -eu

cd "$(dirname "$0")/.."

python3 - <<'PY'
import glob, os, re, sys

# Exported on purpose although nothing outside the module calls them:
# "Mod.name": "one-line reason".  Empty: every export has a caller.
KEEP = {}

dirs = ["lib", "test", "bench", "perfbench", "bin", "examples"]
sources = []
for d in dirs:
    sources += glob.glob(f"{d}/**/*.ml", recursive=True)
    sources += glob.glob(f"{d}/**/*.mli", recursive=True)
sources = [s for s in sources if "/_build/" not in s]
text = {}
for s in sources:
    with open(s, encoding="utf-8") as f:
        # comments name values without calling them
        text[s] = re.sub(r"\(\*.*?\*\)", " ", f.read(), flags=re.S)

def mod_name(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()

ident = r"[A-Za-z_][A-Za-z0-9_']*"

def exports(mli):
    """(qualifier, name) for every val, nested signatures by their own name."""
    out, stack = [], [mod_name(mli)]
    for line in text[mli].splitlines():
        m = re.match(rf"\s*module\s+({ident})\s*:\s*sig\b", line)
        if m:
            stack.append(m.group(1))
            continue
        if re.match(r"\s*end\b", line) and len(stack) > 1:
            stack.pop()
            continue
        m = re.match(rf"\s*val\s+({ident})\s*:", line)
        if m:
            out.append((stack[-1], m.group(1)))
    return out

def qualifiers(src, mod):
    q = {mod}
    for a in re.findall(rf"\bmodule\s+({ident})\s*=\s*(?:{ident}\.)*{mod}\b", text[src]):
        q.add(a)
    return q

def opens(src, mod):
    return re.search(rf"\bopen\s+(?:{ident}\.)*{mod}\b|\b{mod}\.\(", text[src]) is not None

unused = []
for mli in sorted(glob.glob("lib/**/*.mli", recursive=True)):
    own = {mli, mli[:-1]}
    mod = mod_name(mli)
    for qual, name in exports(mli):
        used = False
        for src in sources:
            if src in own:
                continue
            body = text[src]
            if name not in body:
                continue
            qs = "|".join(sorted(qualifiers(src, qual)))
            if re.search(rf"\b(?:{qs})\.{re.escape(name)}\b", body) or (
                opens(src, qual) and re.search(rf"(?<![.\w']){re.escape(name)}\b", body)
            ):
                used = True
                break
        key = f"{mod}.{name}" if qual == mod else f"{mod}.{qual}.{name}"
        if not used and key not in KEEP:
            unused.append(key)

for k in unused:
    print(k)
if unused:
    print(f"{len(unused)} exported values have no caller outside their module", file=sys.stderr)
    sys.exit(1)
PY
