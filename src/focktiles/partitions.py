"""Partitions, Young diagrams, dominance, e-regularity."""

from __future__ import annotations

import re
from operator import itemgetter, lt


class Partition(tuple):
    """A partition as a weakly decreasing tuple of positive integers.

    It is a `tuple`, so hashing, equality, lexicographic order, length,
    iteration and immutability are the tuple's own; the empty tuple is the
    empty partition.  Two trade-offs follow: a partition equals the plain
    tuple of its parts (so no dict may mix partitions with integer tuples
    as keys), and it has the tuple operations, such as `+`, slicing and
    `count`, which return plain tuples.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(map(int, parts))
        if 0 in parts:
            parts = tuple(filter(None, parts))
        if parts and min(parts) < 0:
            raise ValueError("parts must be positive: %r" % (parts,))
        if any(map(lt, parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        return tuple.__new__(cls, parts)

    # the parts as a plain tuple, read in C: a full slice of a tuple
    # subclass is a new plain tuple
    parts = property(itemgetter(slice(None)))

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return format_partition(self)

    @property
    def size(self):
        return sum(self)

    def part(self, i):
        """The i-th part (1-based); zero beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def cells(self):
        """Iterate over the nodes (i, j) of the Young diagram, 1-based."""
        for i, p in enumerate(self, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def contains(self, other):
        """Containment of Young diagrams."""
        return all(self.part(i + 1) >= p for i, p in enumerate(other))


EMPTY = Partition(())


def conjugate(lam):
    """Transpose of the Young diagram."""
    if not lam:
        return EMPTY
    out = [0] * lam[0]
    for p in lam:
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
    for p in lam:
        run = run + 1 if p == prev else 1
        prev = p
        if run >= e:
            return False
    return True


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


def format_partition(lam):
    """Render a partition in the shared text format."""
    if not lam:
        return "0"
    out = []
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        out.append(str(lam[i]) if j - i == 1 else "%d^%d" % (lam[i], j - i))
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
