"""Ladder monomials by a pruned fold of packed F-steps.

The ladder monomial A(mu) is a product of divided powers F^(m) applied to
the empty partition, and each of its terms lies in the block of mu.  The
fold keeps the terms as packed beta-sets (see `abacus`) and, after each step,
drops the terms that can no longer reach a member of the block: an F-step
moves one bead one position up, so the number of beads above a threshold
never falls and rises by at most one per cell still to be added.
"""

from __future__ import annotations

from .abacus import mask_of
from .fock import step_F, unpack
from .partitions import EMPTY


class _Window:
    """Packing offset and global bead-count bounds of one block.

    bounds holds (s, least, most): the fewest and the most beads at bits
    >= s over the members of the block.  A term with more rows than every
    member can still appear in a fold; it is dead, and so are the terms the
    offset lo cannot represent, which only it can produce.
    """

    def __init__(self, e, members):
        self.lo = -(max(len(m.parts) for m in members) + 2)
        masks = [mask_of(m, self.lo) for m in members]
        top = max(m.bit_length() for m in masks)
        self.bounds = []
        for back in range(0, 14 * e, max(e // 2, 1)):
            s = top - back
            if s <= 1:
                break
            cnts = [(m >> s).bit_count() for m in masks]
            self.bounds.append((s, min(cnts), max(cnts)))

    def alive(self, m, remaining):
        """Whether m can still reach a member with `remaining` more cells."""
        for s, least, most in self.bounds:
            c = (m >> s).bit_count()
            if c > most or c + remaining < least:
                return False
        return True


def ladder_fold(sequence, e, win):
    """A(mu) from its ladder sequence, pruned to the block of win.

    sequence: the (residue, multiplicity) steps of mu, bottom ladder first.
    """
    lo = win.lo
    vec = {mask_of(EMPTY, lo): {0: 1}}
    remaining = sum(mult for _, mult in sequence)
    for res, mult in sequence:
        remaining -= mult
        vec = step_F(vec, res, mult, e, lo)
        vec = {m: c for m, c in vec.items() if win.alive(m, remaining)}
    return unpack(vec)


def block_ladder_monomials(sequences, e, members):
    """The ladder monomials of many labels of one block.

    sequences: dict label -> tuple of (residue, multiplicity) steps.
    members: the partitions of the block (used for the pruning bounds).
    Returns dict label -> FockVector.
    """
    win = _Window(e, members)
    return {label: ladder_fold(seq, e, win) for label, seq in sequences.items()}
