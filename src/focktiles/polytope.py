"""Parallelotopes, hypercubes, the closed q-decomposition formula, tilings."""

from __future__ import annotations

import json
from collections import namedtuple
from functools import reduce
from itertools import combinations
from operator import and_, or_, sub

from .abacus import block_of, facts, mask_of
from .labels import (
    BlockContext,
    _hat,
    _hooks,
    _moved,
    _z,
    hat_z,
    is_hook_quotient,
    is_m_increasing,
    lift,
    lifted_json,
    modified_basis,
    project,
    vec_add,
    vec_sub,
    z_label,
)
from .laurent import LaurentPoly

# The tiling laws are stated for 4-increasing labels.
TILING_M = 4


class Parallelotope(namedtuple("Parallelotope", "anchor generators")):
    """Pi(lambda), the 2^w labels z(lambda) + eps_Gamma, or its lift
    C(lambda), anchored at zhat(lambda) with the lifted eps as generators."""

    __slots__ = ()

    def vertices(self):
        """anchor + the sum of the generators in Gamma, for every Gamma; the
        vertex of Gamma is at index sum(2^(i-1) for i in Gamma)."""
        verts = [self.anchor]
        for g in self.generators:
            verts += [vec_add(v, g) for v in verts]
        if len(set(verts)) != len(verts):
            raise AssertionError("parallelotope vertices are not distinct")
        return verts


def parallelotope_of(lam, e):
    return Parallelotope(anchor=z_label(lam, e), generators=modified_basis(lam, e))


def hypercube_of(lam, e):
    """C(lambda): the lift of Pi(lambda)."""
    return Parallelotope(hat_z(lam, e), tuple(lift(v) for v in modified_basis(lam, e)))


def pi_membership(lam, target, e):
    """Gamma with target = z(lambda) + eps_Gamma, or None.

    When non-null, the box distance d_lambda(target) equals |Gamma|.
    """
    f = _moved(lam, e)
    if not _hooks(f):
        raise ValueError("pi_membership requires a hook-quotient partition")
    target = tuple(target)
    if len(target) != len(f.movements):
        raise ValueError("label length mismatch")
    return _gamma(f, target)


def _gamma(f, target):
    """The Pi route on records: Gamma with target = z + eps_Gamma for the
    hook-quotient partition whose record `labels._moved` filled as f, or
    None.

    The modified basis telescopes along each runner chain (idx, l), so the
    coefficient of eps at idx[g] in a vector is its sum over idx[:g + 1]
    before the pivot l, over idx[g:] after it, and over all of idx at it.
    The first coefficient outside {0, 1} answers None.
    """
    diff = tuple(map(sub, target, _z(f)))
    gamma = []
    for idx, l in f.chains.values():
        head = tail = 0
        for i in idx[:l]:
            head += diff[i - 1]
            if head == 1:
                gamma.append(i)
            elif head:
                return None
        for i in idx[:l:-1]:
            tail += diff[i - 1]
            if tail == 1:
                gamma.append(i)
            elif tail:
                return None
        c = head + diff[idx[l] - 1] + tail
        if c == 1:
            gamma.append(idx[l])
        elif c:
            return None
    return frozenset(gamma)


def _cube_signs(lam, e):
    """{coordinate: sign} of the generators of C(lam), each one signed unit
    vector on a coordinate of its own; kept in lam's `facts` record."""
    f = facts(lam, e)
    if f.cube_signs is None:
        sign = {}
        for g in hypercube_of(lam, e).generators:
            nonzero = [(k, s) for k, s in enumerate(g) if s]
            if len(nonzero) != 1 or nonzero[0][1] not in (1, -1) or nonzero[0][0] in sign:
                raise AssertionError("hypercube generators are not distinct signed unit vectors")
            sign.update(nonzero)
        f.cube_signs = sign
    return f.cube_signs


def d_closed(lam, mu, e):
    """q^{d_lambda(mu)} if lam is hook-quotient and z(mu) in Pi(lam), else 0.

    Valid as a q-decomposition number when mu is 4-increasing, in which case
    the parallelotope and hypercube routes provably agree; only there is the
    hypercube route run, and the agreement asserted (`d_closed_for`).
    """
    return d_closed_for(mu, e)(lam)


def d_closed_for(mu, e):
    """The function lam -> d_{lam,mu}(q) of `d_closed`.

    mu's `facts` record, z(mu), the 4-increasing test and zhat(mu) are read
    here, once; each call reads lam's record once.  The parallelotope route
    expands z(mu) - z(lam) in lam's modified basis along its runner chains
    (`_gamma`).  The hypercube route tests coordinates: every generator of
    C(lam) is one signed unit vector, and no two share a coordinate
    (`_cube_signs`, built once per lam), so zhat(mu) is a vertex of C(lam)
    exactly when every nonzero coordinate of zhat(mu) - zhat(lam) is that
    of a generator, with its sign, and the box distance is the number of
    such coordinates.  The 2^w vertices are never listed.  The answers are
    shared values: the zero, and one monomial per distance.
    """
    fm = _moved(mu, e)
    zm = _z(fm)
    hm = _hat(fm) if is_m_increasing(zm, 4) else None
    core, weight = fm.core, fm.weight
    zero, monomials = LaurentPoly.zero(), {}

    def d(lam):
        fl = _moved(lam, e)
        if fl.core != core or fl.weight != weight or not _hooks(fl):
            return zero
        gamma = _gamma(fl, zm)
        dist = None if gamma is None else len(gamma)
        if hm is not None:
            sign = fl.cube_signs or _cube_signs(lam, e)
            diff = [(k, c) for k, c in enumerate(vec_sub(hm, _hat(fl))) if c]
            if (len(diff) if all(sign.get(k) == c for k, c in diff) else None) != dist:
                raise AssertionError(
                    "parallelotope and hypercube routes disagree on a 4-increasing column"
                )
        if dist is None:
            return zero
        got = monomials.get(dist)
        if got is None:
            got = monomials[dist] = LaurentPoly.monomial(dist)
        return got

    return d


def closed_sweep(mu, e, lo, ctx=None):
    """mu's column by the closed formula packed over lo: `d_closed_for` on
    every member of mu's block (ctx, when given, the block's context)."""
    closed = d_closed_for(mu, e)
    out = {}
    for lam in BlockContext.of(block_of(mu, e), ctx).members():
        c = closed(lam)
        if c:
            out[mask_of(lam, lo)] = c.coeffs
    return out


class Tiling(namedtuple("Tiling", "block cells")):
    """All parallelotope/hypercube cells of the hook-quotient members of a
    block; cells lists (owner, Pi(owner), C(owner))."""

    __slots__ = ()

    def generic_cells(self):
        e = self.block.e
        out = []
        for owner, pi, cube in self.cells:
            z = pi.anchor
            if is_m_increasing(z, 10) and (not z or z[-1] <= e - 2):
                out.append((owner, pi, cube))
        return out

    def generator_classes(self):
        """Distinct generator multisets among the generic cells."""
        classes = {}
        for owner, pi, _ in self.generic_cells():
            key = tuple(sorted(pi.generators))
            classes.setdefault(key, []).append(owner)
        return classes


def build_tiling(b, ctx=None):
    """Cells for every hook-quotient partition in the block."""
    ctx = BlockContext.of(b, ctx)
    cells = []
    for lam in ctx.members():
        if is_hook_quotient(lam, b.e):
            cells.append((lam, parallelotope_of(lam, b.e), hypercube_of(lam, b.e)))
    return Tiling(block=b, cells=cells)


def m_increasing_box(w, m, upper):
    """All m-increasing integer vectors of length w with entries in [0, upper],
    in lexicographic order (m >= 0).

    v is m-increasing exactly when u_i = v_i - (m-1)(i-1) is strictly
    increasing, so v runs over the w-subsets u of [0, upper - (m-1)(w-1)].
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return [
        tuple(u + (m - 1) * i for i, u in enumerate(c))
        for c in combinations(range(upper - (m - 1) * (w - 1) + 1), w)
    ]


def tiling_union(t):
    """Union of the m-increasing vertices of all cells."""
    pts = set()
    for _, pi, _ in t.cells:
        for v in pi.vertices():
            if is_m_increasing(v, TILING_M):
                pts.add(v)
    return pts


def check_discrete_union(t):
    """Coverage: the union of m-increasing cell vertices is the whole
    m-increasing part of [0, e]^w."""
    e, w = t.block.e, t.block.weight
    want = set(m_increasing_box(w, TILING_M, e))
    got = tiling_union(t)
    return got == want


def check_cube_injectivity(t):
    """The projection p is injective on the union of m-increasing hypercube
    vertices over the block."""
    seen = {}
    for _, _, cube in t.cells:
        for v in cube.vertices():
            pv = project(v)
            if not is_m_increasing(pv, TILING_M):
                continue
            if pv in seen and seen[pv] != v:
                return False
            seen[pv] = v
    return True


def _minimal_face(pi, pts):
    """Smallest face of pi containing the given vertex subset, as a set."""
    verts = pi.vertices()
    hits = [g for g, v in enumerate(verts) if v in pts]
    if not hits:
        return set()
    lo, hi = reduce(and_, hits), reduce(or_, hits)
    return {v for g, v in enumerate(verts) if g & lo == lo and g | hi == hi}


def check_common_faces(t):
    """Pairwise intersections of m-increasing cell vertices are faces.

    For each pair, the minimal faces of both cells containing the
    intersection must restrict to exactly the intersection; when one owner
    is 7-increasing the two faces must coincide as vertex sets.
    """
    cells = t.cells
    data = []
    for owner, pi, _ in cells:
        vs = set(v for v in pi.vertices() if is_m_increasing(v, TILING_M))
        data.append((owner, pi, vs))
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            o1, p1, v1 = data[i]
            o2, p2, v2 = data[j]
            inter = v1 & v2
            if not inter:
                continue
            f1 = _minimal_face(p1, inter)
            f2 = _minimal_face(p2, inter)
            if {v for v in f1 if is_m_increasing(v, TILING_M)} != inter:
                return False
            if {v for v in f2 if is_m_increasing(v, TILING_M)} != inter:
                return False
            z1 = z_label(o1, t.block.e)
            z2 = z_label(o2, t.block.e)
            if (is_m_increasing(z1, 7) or is_m_increasing(z2, 7)) and f1 != f2:
                return False
    return True


def ext_adjacency(b, ctx=None):
    """Pairs of 4-increasing partitions in the block at box distance one.

    For each pair exactly one of z(mu) = z(lam) + eps_i or the symmetric
    relation holds; violations raise.
    """
    ctx = BlockContext.of(b, ctx)
    e = b.e
    four = [lam for lam in ctx.members() if is_m_increasing(z_label(lam, e), 4)]
    hats = {lam: hat_z(lam, e) for lam in four}
    out = []
    for i in range(len(four)):
        for j in range(i + 1, len(four)):
            lam, mu = four[i], four[j]
            if sum(map(abs, vec_sub(hats[lam], hats[mu]))) != 1:
                continue
            rel1 = rel2 = False
            if is_hook_quotient(lam, e):
                g = pi_membership(lam, z_label(mu, e), e)
                rel1 = g is not None and len(g) == 1
            if is_hook_quotient(mu, e):
                g = pi_membership(mu, z_label(lam, e), e)
                rel2 = g is not None and len(g) == 1
            if rel1 == rel2:
                raise AssertionError(
                    "adjacency relation not uniquely oriented for %s, %s" % (lam, mu)
                )
            out.append((lam, mu))
    return out


def tiling_to_json(t):
    cells = []
    for owner, pi, cube in t.cells:
        cells.append(
            {
                "owner": list(owner.parts),
                "anchor": list(pi.anchor),
                "generators": [list(g) for g in pi.generators],
                "hat_anchor": lifted_json(cube.anchor),
            }
        )
    return {
        "e": t.block.e,
        "core": list(t.block.core.parts),
        "weight": t.block.weight,
        "m": TILING_M,
        "cells": cells,
    }


def _svg_tiling(t):
    if t.block.weight != 2:
        raise ValueError("SVG export is only available for weight-2 tilings")
    e = t.block.e
    scale = 24
    pad = 2 * scale

    def pt(v):
        return (pad + v[0] * scale, pad + (e - v[1]) * scale)

    shapes = []
    for owner, pi, _ in t.generic_cells():
        z = pi.anchor
        g1, g2 = pi.generators
        quad = [z, vec_add(z, g1), vec_add(vec_add(z, g1), g2), vec_add(z, g2)]
        points = " ".join("%d,%d" % pt(v) for v in quad)
        shapes.append(
            '<polygon points="%s" fill="none" stroke="black" stroke-width="1"/>' % points
        )
    size = 2 * pad + e * scale
    body = "\n".join(shapes)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">\n%s\n</svg>\n'
        % (size, size, body)
    )


def export_tiling(t, fmt="json"):
    """Deterministic JSON (any w) or SVG (w = 2) rendering of a tiling."""
    if fmt == "json":
        return (json.dumps(tiling_to_json(t), sort_keys=True, indent=1) + "\n").encode()
    if fmt == "svg":
        return _svg_tiling(t).encode()
    raise ValueError("unsupported tiling format %r" % fmt)
