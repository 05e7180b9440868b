"""Partitions, Young diagrams, rimhooks, dominance, e-regularity."""

from __future__ import annotations

import re
from dataclasses import dataclass


class Partition:
    """A partition as a weakly decreasing tuple of positive integers.

    Immutable and hashable; the empty tuple is the empty partition.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if int(p) != 0)
        if any(p < 0 for p in parts):
            raise ValueError("parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __hash__(self):
        return hash(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        # lexicographic on part tuples; refines dominance (used only as a
        # deterministic tie-break order, never for mathematical content)
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return format_partition(self)

    @property
    def size(self):
        return sum(self.parts)

    def part(self, i):
        """The i-th part (1-based); zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def cells(self):
        """Iterate over the nodes (i, j) of the Young diagram, 1-based."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def contains(self, other):
        """Containment of Young diagrams."""
        return all(self.part(i + 1) >= p for i, p in enumerate(other.parts))

    def residue(self, cell, e):
        """e-residue j - i mod e of a node."""
        i, j = cell
        return (j - i) % e


EMPTY = Partition(())


def conjugate(lam):
    """Transpose of the Young diagram."""
    parts = lam.parts
    if not parts:
        return EMPTY
    out = [0] * parts[0]
    for p in parts:
        for j in range(p):
            out[j] += 1
    return Partition(out)


def dominance_leq(lam, mu):
    """True iff lam is dominated by mu (partial sums of lam never exceed mu's).

    Both partitions must have the same size.
    """
    if lam.size != mu.size:
        raise ValueError("dominance compares partitions of equal size")
    a = b = 0
    for k in range(max(len(lam), len(mu))):
        a += lam.part(k + 1)
        b += mu.part(k + 1)
        if a > b:
            return False
    return True


def is_e_regular(lam, e):
    """True iff no part value occurs e or more times."""
    if e < 2:
        raise ValueError("e must be at least 2")
    run = 0
    prev = None
    for p in lam.parts:
        run = run + 1 if p == prev else 1
        prev = p
        if run >= e:
            return False
    return True


@dataclass(frozen=True)
class RimHook:
    """A rimhook of a partition: its cell set, size and generating node."""

    cells: frozenset
    size: int
    hand: tuple

    def __post_init__(self):
        if len(self.cells) != self.size:
            raise ValueError("rimhook size does not match its cell count")


def _hook_from_removal(lam, inner):
    """RimHook with cells [lam] minus [inner]; inner must sit inside lam."""
    cells = frozenset(set(lam.cells()) - set(inner.cells()))
    hand = (min(i for i, _ in cells), min(j for _, j in cells))
    return RimHook(cells=cells, size=len(cells), hand=hand)


def hooks_e(lam, e):
    """All rimhooks of lam of size divisible by e, in bead-movement order.

    The movement (b; b-ie) corresponds to the rimhook removed by sliding the
    bead at b up to the (i+1)-th gap above it on its runner; this pairs the
    movements of each bead bijectively with its rimhooks and fixes the
    canonical indexing shared with the movement order.
    """
    from .abacus import abacus_of, partition_of
    from .labels import movements

    if e < 2:
        raise ValueError("e must be at least 2")
    aba = abacus_of(lam, e)
    gaps = {}
    out = []
    for mv in movements(lam, e):
        if mv.b not in gaps:
            found = []
            t = mv.b - e
            while len(found) < aba.weight_of(mv.b):
                if not aba.occupied(t):
                    found.append(t)
                t -= e
            gaps[mv.b] = found
        y = gaps[mv.b][(mv.b - mv.q) // e]
        removed = partition_of(aba.move_bead(mv.b, y))
        out.append(_hook_from_removal(lam, removed))
    return out


_EXP_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text):
    """Parse the shared text format, e.g. '5,5,4,2,2,2,1,1' or '16,8,1^13'.

    An empty string or '0' denotes the empty partition.
    """
    text = text.strip()
    if text in ("", "0", "[]", "()"):
        return EMPTY
    text = text.strip("[]() ")
    if not text:
        return EMPTY
    parts = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        m = _EXP_RE.match(token)
        if not m:
            raise ValueError("bad partition token %r" % token)
        val, mult = int(m.group(1)), int(m.group(2) or 1)
        if val == 0:
            continue
        parts.extend([val] * mult)
    return Partition(parts)


def format_partition(lam, exponents=True):
    """Render a partition in the shared text format."""
    if not lam.parts:
        return "0"
    if not exponents:
        return ",".join(str(p) for p in lam.parts)
    out = []
    i = 0
    parts = lam.parts
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        out.append(str(parts[i]) if j - i == 1 else "%d^%d" % (parts[i], j - i))
        i = j
    return ",".join(out)


def all_partitions(n):
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        return []
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(Partition(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(n, n if n else 1, [])
    return out
