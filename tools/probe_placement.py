#!/usr/bin/env python3
"""Where e2e_bench's speed probe sits, and whether it straddles a line.

e2e_bench scales every host time by probeMs(), a short SSE loop in
its own .text. Its speed depends on where the linker places it: when
the innermost loop crosses a 64-byte cache line, every scaled host
time reads about 1.4x lower than with the loop inside one line
(docs/PERFORMANCE.md). The probe moves when code ahead of it changes
size, including .plt, which precedes .text and grows 16 bytes per
new libc/libm call through the PLT.

For each binary this prints probeMs's address, the byte range of its
innermost loop (from the loop head to the end of the backward branch
that closes it), whether that range crosses a 64-byte line, and the
size of .plt. Given a second (base) binary it prints both and emits a
GitHub Actions ::warning:: line when the crossing or the .plt size
differs. It is a report: the exit status is 0 unless a binary cannot
be read.

Usage:
    tools/probe_placement.py BINARY [BASE_BINARY]

Needs nm and objdump (binutils) on PATH; stdlib only otherwise.
"""

import re
import subprocess
import sys

SYMBOL = "probeMs()"
LINE = 64

# "    9fcc:\tjne    9fb0 <...>": address, mnemonic, direct target.
INSN = re.compile(r"^\s*([0-9a-f]+):\s+(\S+)(?:\s+([0-9a-f]+)\s+<)?")


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


def probe_symbol(binary):
    """Return (address, size) of the probe's main body (not .cold)."""
    for line in run("nm", "-C", "-S", binary).splitlines():
        fields = line.split(None, 3)
        if (len(fields) == 4 and fields[2] in "tT" and
                fields[3].endswith("::" + SYMBOL)):
            return int(fields[0], 16), int(fields[1], 16)
    raise SystemExit(f"{binary}: no {SYMBOL} symbol")


def instructions(binary, start, size):
    """Return [(address, end, mnemonic, target)] of the function."""
    text = run("objdump", "-d", "--no-show-raw-insn", binary,
               f"--start-address={start:#x}",
               f"--stop-address={start + size:#x}")
    insns = []
    for line in text.splitlines():
        m = INSN.match(line)
        if m and not line.rstrip().endswith(">:"):
            target = int(m.group(3), 16) if m.group(3) else None
            insns.append([int(m.group(1), 16), None, m.group(2), target])
    for this, nxt in zip(insns, insns[1:]):
        this[1] = nxt[0]
    if insns:
        insns[-1][1] = start + size
    return [tuple(i) for i in insns]


def innermost_loop(insns):
    """Return (head, end) of the most deeply nested loop.

    A loop is a backward jump; it spans [target, end of the jump).
    Nesting depth counts the loops whose span contains it; ties go to
    the lowest address.
    """
    loops = [(target, end) for _, end, mnem, target in insns
             if mnem.startswith("j") and target is not None and
             target < end]
    if not loops:
        return None

    def depth(loop):
        return sum(1 for o in loops
                   if o[0] <= loop[0] and loop[1] <= o[1])

    return min(loops, key=lambda loop: (-depth(loop), loop[0]))


def plt_size(binary):
    for line in run("objdump", "-h", binary).splitlines():
        fields = line.split()
        if len(fields) > 2 and fields[1] == ".plt":
            return int(fields[2], 16)
    return 0


def placement(binary):
    start, size = probe_symbol(binary)
    loop = innermost_loop(instructions(binary, start, size))
    crossing = None  # first line boundary inside the loop, if any
    if loop is not None:
        head, end = loop
        boundary = (head // LINE + 1) * LINE
        if boundary < end:
            crossing = boundary
    return {"probe": start, "loop": loop, "crossing": crossing,
            "plt": plt_size(binary)}


def describe(name, p):
    print(f"{name}:")
    print(f"  probeMs      {p['probe']:#x}")
    if p["loop"] is None:
        print("  inner loop   none found")
    else:
        head, end = p["loop"]
        print(f"  inner loop   {head:#x}-{end:#x} ({end - head} B)")
        if p["crossing"] is None:
            print("  crosses 64 B no")
        else:
            print(f"  crosses 64 B yes, at {p['crossing']:#x}")
    print(f"  .plt         {p['plt']} B")


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: probe_placement.py BINARY [BASE_BINARY]",
              file=sys.stderr)
        return 2
    this = placement(argv[1])
    describe(argv[1], this)
    if len(argv) == 3:
        base = placement(argv[2])
        describe(argv[2], base)
        if (this["crossing"] is None) != (base["crossing"] is None):
            which = "the base" if this["crossing"] is None else "this build"
            print("::warning::e2e_bench speed probe: its inner loop "
                  f"crosses a 64-B line in {which} only, so scaled "
                  "host times change speed class")
        if this["plt"] != base["plt"]:
            print(f"::warning::e2e_bench .plt is {this['plt']} B, base "
                  f"{base['plt']} B: the speed probe moved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
