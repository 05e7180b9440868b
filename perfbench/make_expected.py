"""Build perfbench/expected.json: the input universes and reference answers.

Every reference answer comes from a route other than the one the benchmark
times, so a wrong answer from the timed route shows as a failure:

  llt_rouquier   LLT columns          vs  rouquier_d (LR-product formula)
  scopes_e10     inductive columns    vs  d_closed (parallelotope formula)
  dnum closed    d_closed lines       vs  LLT columns
  dnum rouquier  rouquier_d lines     vs  LLT columns
  dnum llt       LLT (Fock object path) lines  vs  LLT with its ladder
                 monomials taken from the _ladders bitmask kernel
  offtheorem     d_closed lines, mu not 4-increasing  vs  LLT (as above)

The seed only selects and orders inputs from these universes, so the file
does not depend on the seed.  Regenerate it (it takes a few minutes) with

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys
import time

from focktiles._ladders import block_ladder_monomials
from focktiles.abacus import BlockId, block_of, core_from_levels, enumerate_block
from focktiles.canonical import ladder_sequence, llt_G, rouquier_d
from focktiles.labels import BlockContext, is_m_increasing, z_label
from focktiles.partitions import EMPTY, all_partitions, format_partition, is_e_regular, parse_partition
from focktiles.polytope import d_closed

HERE = os.path.dirname(os.path.abspath(__file__))
fmt = format_partition


def rouquier_block(e, w):
    g = max(w - 1, 0)
    return BlockId(e, core_from_levels(tuple(g * a for a in range(e)), e), w)


def block_json(b):
    return {"e": b.e, "core": fmt(b.core), "weight": b.weight}


def column_json(col, lams):
    """Nonzero entries of a column over lams, as CLI-printed strings."""
    out = {}
    for lam in lams:
        c = col(lam) if callable(col) else col.coeff(lam)
        if c:
            out[fmt(lam)] = str(c)
    return out


def bitmask_llt(b):
    """LLT columns of every e-regular member, ladder monomials from _ladders."""
    ctx = BlockContext(b)
    e = b.e
    regs = [m for m in ctx.members() if is_e_regular(m, e)]
    seqs = {m: tuple(ladder_sequence(m, e)) for m in regs}
    ctx.cache("monomial").update(block_ladder_monomials(seqs, e, ctx.members()))
    return ctx, {mu: llt_G(mu, e, ctx) for mu in regs}


def small_cores(e, maxsize):
    return [p for n in range(maxsize + 1) for p in all_partitions(n) if block_of(p, e).weight == 0]


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def main():
    t0 = time.perf_counter()
    out = {}

    # llt_rouquier: every e-regular mu of the minimal (5,3) and (7,2) Rouquier blocks
    blocks = []
    for e, w in [(5, 3), (7, 2)]:
        b = rouquier_block(e, w)
        mem = enumerate_block(b)
        mus = [m for m in mem if is_e_regular(m, e)]
        ref = {fmt(mu): column_json(lambda lam, mu=mu: rouquier_d(lam, mu, b), mem) for mu in mus}
        blocks.append({"block": block_json(b), "mus": [fmt(m) for m in mus], "ref": ref})
    out["llt_rouquier"] = blocks
    log("llt_rouquier refs", round(time.perf_counter() - t0, 1))

    # scopes_e10: the four 4-increasing mu of the e=10, core (7), weight-3 block
    b = BlockId(10, parse_partition("7"), 3)
    mem = enumerate_block(b)
    mus = [m for m in mem if is_m_increasing(z_label(m, 10), 4)]
    ref = {fmt(mu): column_json(lambda lam, mu=mu: d_closed(lam, mu, 10), mem) for mu in mus}
    out["scopes_e10"] = {"block": block_json(b), "mus": [fmt(m) for m in mus], "ref": ref}
    log("scopes_e10 refs", round(time.perf_counter() - t0, 1))

    # dnum closed: 4-increasing e-regular mu of the e=12 principal block, all lambda
    b = BlockId(12, EMPTY, 3)
    ctx = BlockContext(b)
    mus = [m for m in ctx.members() if is_m_increasing(ctx.z_map()[m], 4) and is_e_regular(m, 12)]
    ref = {fmt(mu): column_json(llt_G(mu, 12, ctx), ctx.members()) for mu in mus}
    out["dnum_closed"] = {"block": block_json(b), "mus": [fmt(m) for m in mus],
                          "lams": [fmt(m) for m in ctx.members()], "ref": ref}
    log("dnum closed refs", round(time.perf_counter() - t0, 1))

    # dnum llt: every e-regular mu of the e=4 AC-2 blocks (cores <= 6, w in {2,3})
    llt_blocks = []
    for w in (2, 3):
        for core in small_cores(4, 6):
            b = BlockId(4, core, w)
            ctx, cols = bitmask_llt(b)
            llt_blocks.append({"block": block_json(b), "mus": [fmt(m) for m in cols],
                               "lams": [fmt(m) for m in ctx.members()],
                               "ref": {fmt(mu): column_json(g, ctx.members()) for mu, g in cols.items()}})
    out["dnum_llt"] = llt_blocks
    log("dnum llt refs", round(time.perf_counter() - t0, 1))

    # offtheorem: closed pairs with e-regular mu that is not 4-increasing,
    # empty core, e in {4,5}, w in {2,3}
    off = []
    for e in (4, 5):
        for w in (2, 3):
            b = BlockId(e, EMPTY, w)
            ctx, cols = bitmask_llt(b)
            cols = {mu: g for mu, g in cols.items() if not is_m_increasing(ctx.z_map()[mu], 4)}
            off.append({"block": block_json(b), "mus": [fmt(m) for m in cols],
                        "lams": [fmt(m) for m in ctx.members()],
                        "ref": {fmt(mu): column_json(g, ctx.members()) for mu, g in cols.items()}})
    out["offtheorem"] = off
    log("offtheorem refs", round(time.perf_counter() - t0, 1))

    # dnum rouquier: e-regular mu of the minimal (6,3) Rouquier block, all lambda
    b = rouquier_block(6, 3)
    ctx = BlockContext(b)
    mus = [m for m in ctx.members() if is_e_regular(m, 6)]
    ref = {fmt(mu): column_json(llt_G(mu, 6, ctx), ctx.members()) for mu in mus}
    out["dnum_rouquier"] = {"block": block_json(b), "mus": [fmt(m) for m in mus],
                            "lams": [fmt(m) for m in ctx.members()], "ref": ref}
    log("dnum rouquier refs", round(time.perf_counter() - t0, 1))

    path = os.path.join(HERE, "expected.json")
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    log("wrote", path)


if __name__ == "__main__":
    main()
