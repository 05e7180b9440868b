"""Bead operations: single-step parallelotope moves and the Mullineux map."""

from __future__ import annotations

from .abacus import abacus_of, block_of, crystal_string, facts, partition_of
from .labels import (
    hooks_e,
    is_hook_quotient,
    is_m_increasing,
    modified_basis,
    movements,
    succ_maximal,
    vec_add,
    z_label,
)
from .partitions import EMPTY, conjugate, is_e_regular


class MoveError(ValueError):
    """A parallelotope move failed; carries the offending label and trace."""

    def __init__(self, message, label=None, trace=None):
        super().__init__(message)
        self.label = label
        self.trace = trace or []


def bead_target(a, x):
    """b_S(x): least position above x that is empty with an occupied e-predecessor."""
    if x - a.e >= a.max_occupied():
        raise MoveError("bead target undefined: x - e is not above the last bead")
    t = x + 1
    limit = a.max_occupied() + a.e + 1
    while t <= limit:
        if not a.occupied(t) and a.occupied(t - a.e):
            return t
        t += 1
    raise MoveError("bead target undefined beyond the abacus window")


def bead_op(a, x):
    """B_x: slide one bead one step down, into the gap nearest above x."""
    t = bead_target(a, x)
    return a.move_bead(t - a.e, t)


def bead_op_kl(a, x, k, l, landings=None):
    """B_x^{k,l}: B_{x+le} ... B_{x+e} after B_{x-(k-1)e} ... B_x.

    When a list is passed as `landings`, the landing position of each
    constituent operation is appended to it in application order.
    """
    if k < 1 or l < 0:
        raise ValueError("bead_op_kl requires k >= 1 and l >= 0")
    e = a.e
    out = a
    for i in range(k):
        d = bead_target(out, x - i * e)
        if landings is not None:
            landings.append(d)
        out = out.move_bead(d - e, d)
    for i in range(1, l + 1):
        d = bead_target(out, x + i * e)
        if landings is not None:
            landings.append(d)
        out = out.move_bead(d - e, d)
    return out


def _move_one_raw(lam, r, e, detail=None):
    """Slide machinery behind move_one / lambda_of_hook; no label checks.

    A dict passed as `detail` receives the internals of the construction:
    the movement (b; q), the gap g, the intermediate partition sigma, the
    composition parameters k and l, and the landing positions d_i.
    """
    mvs = movements(lam, e)
    if not (1 <= r <= len(mvs)):
        raise IndexError("movement index out of range")
    mv = mvs[r - 1]
    a = abacus_of(lam, e)
    g = a.prev_gap(mv.q)
    sigma = a.move_bead(mv.b, g)
    k = (mv.q - g) // e
    l = (mv.b - mv.q) // e
    landings = [] if detail is not None else None
    out = partition_of(bead_op_kl(sigma, mv.q, k, l, landings=landings))
    if detail is not None:
        detail.update(
            {
                "b": mv.b,
                "q": mv.q,
                "g": g,
                "sigma": partition_of(sigma),
                "k": k,
                "l": l,
                "d": landings,
            }
        )
    return out


def move_one(lam, r, e, detail=None):
    """The unique partition mu with z(mu) = z(lam) + eps_r, via bead operations.

    Requires lam hook-quotient and the target label to be a realizable
    0-increasing label of the block.  A dict passed as `detail` receives the
    internals (sigma, g, k, l and the landing positions).
    """
    if not 1 <= r <= len(movements(lam, e)):
        raise IndexError("movement index out of range")
    if not is_hook_quotient(lam, e):
        raise MoveError("move_one requires a hook-quotient partition")
    target = vec_add(z_label(lam, e), modified_basis(lam, e)[r - 1])
    if not is_m_increasing(target, 0) or any(t < 0 or t > e - 1 for t in target):
        raise MoveError("target label is not realizable 0-increasing", label=target)
    mu = _move_one_raw(lam, r, e, detail=detail)
    if z_label(mu, e) != target:
        raise AssertionError(
            "move_one postcondition failed: z(%s) = %s, wanted %s"
            % (mu, z_label(mu, e), target)
        )
    return mu


def move_along(lam, gamma, e, want_trace=False):
    """Iterate move_one over gamma, taking a maximal index at each step.

    Returns mu with z(mu) = z(lam) + eps_gamma (or (mu, trace)).  Success is
    guaranteed when the target is 4-increasing; for merely 0-increasing
    targets all maximal-element orderings are attempted before failing.
    """
    gamma = sorted(set(gamma))
    w = len(movements(lam, e))
    if any(not 1 <= r <= w for r in gamma):
        raise IndexError("movement index out of range")
    if not is_hook_quotient(lam, e):
        raise MoveError("move_along requires a hook-quotient partition")
    basis = modified_basis(lam, e)
    target = z_label(lam, e)
    for r in gamma:
        target = vec_add(target, basis[r - 1])

    best_trace = []

    def rec(nu, remaining, trace):
        nonlocal best_trace
        if not remaining:
            if z_label(nu, e) != target:
                raise AssertionError("move_along arrived at a wrong label")
            return nu, trace
        if not is_hook_quotient(nu, e):
            if len(trace) > len(best_trace):
                best_trace = trace
            return None
        maxima = succ_maximal(nu, e, remaining)
        for r in sorted(maxima, reverse=True):
            try:
                step = move_one(nu, r, e)
            except MoveError:
                if len(trace) > len(best_trace):
                    best_trace = trace
                continue
            nxt = trace + [
                {"step": len(trace) + 1, "r": r, "partition": list(step.parts), "z": list(z_label(step, e))}
            ]
            got = rec(step, [s for s in remaining if s != r], nxt)
            if got is not None:
                return got
        return None

    got = rec(lam, gamma, [])
    if got is None:
        raise MoveError(
            "move_along failed: an intermediate partition is not hook-quotient "
            "or a step target is unrealizable",
            label=target,
            trace=best_trace,
        )
    out, trace = got
    return (out, trace) if want_trace else out


def lambda_of_hook(lam, hook, e):
    """lambda_H: hook surgery at the movement index of the rimhook H."""
    hooks = hooks_e(lam, e)
    try:
        r = next(i for i, h in enumerate(hooks, start=1) if h == hook)
    except StopIteration:
        raise ValueError("hook does not belong to Hook_e(lambda)")
    if not is_hook_quotient(lam, e):
        raise MoveError("lambda_H requires a hook-quotient partition")
    mu = _move_one_raw(lam, r, e)
    if block_of(mu, e) != block_of(lam, e):
        raise AssertionError("lambda_H left the block")
    return mu


# -- Mullineux-Kleshchev involution ----------------------------------------


def _mull_residue(i, e):
    # the Dynkin twist fixing the highest weight of the Fock crystal
    return (-i) % e


def _mullineux(lam, e):
    """Peel the first nonempty crystal string off lam until a partition with
    a known image is left (the empty one at worst), then rebuild the image
    string by string with the twisted residues, recording the image of every
    partition peeled in its `facts` record."""
    peeled = []  # (record, residue, string length), outermost first
    f = facts(lam, e)
    while lam.parts and f.mullineux is None:
        a = f.abacus
        for i in range(e):
            m = 0
            while (down := crystal_string(a, i, 1)) is not None:  # to the end of the string
                a, m = down, m + 1
            if m:
                break
        else:
            raise AssertionError("nonempty partition with no normal beads")
        peeled.append((f, i, m))
        lam = partition_of(a)
        f = facts(lam, e)
    image = f.mullineux or EMPTY
    up = abacus_of(image, e)
    for f, i, m in reversed(peeled):
        up = crystal_string(up, _mull_residue(i, e), -m)
        if up is None:
            raise AssertionError("Mullineux recursion lost a crystal string")
        f.mullineux = image = partition_of(up)
    return image


def mullineux_crystal(lam, e):
    """The Mullineux-Kleshchev involution via the crystal recursion."""
    if not is_e_regular(lam, e):
        raise ValueError("the Mullineux map is defined on e-regular partitions")
    return _mullineux(lam, e)


def mullineux_fast(lam, e):
    """Mullineux image via conjugation plus one sweep of bead operations.

    Requires lam e-regular, 0-increasing and hook-quotient; the sweep is
    guaranteed to succeed when lam is 4-increasing, otherwise failures are
    reported with the attempted trace.
    """
    if not is_e_regular(lam, e):
        raise ValueError("mullineux_fast requires an e-regular partition")
    z = z_label(lam, e)
    if not is_m_increasing(z, 0):
        raise ValueError("mullineux_fast requires a 0-increasing partition")
    if not is_hook_quotient(lam, e):
        raise ValueError("mullineux_fast requires a hook-quotient partition")
    conj = conjugate(lam)
    w = len(z)
    return move_along(conj, range(1, w + 1), e)
