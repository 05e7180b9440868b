"""Parallelotopes, hypercubes, the closed q-decomposition formula, tilings."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .abacus import block_of
from .labels import (
    BlockContext,
    HatVec,
    hat_z,
    is_hook_quotient,
    is_m_increasing,
    modified_basis,
    movements,
    vec_add,
    z_label,
)
from .laurent import LaurentPoly


@dataclass(frozen=True)
class Parallelotope:
    """Pi(lambda): the 2^w labels z(lambda) + eps_Gamma."""

    anchor: tuple
    generators: tuple  # w vectors in Z^w
    owner: object

    def vertices(self):
        verts = [self.anchor]
        w = len(self.generators)
        for mask in range(1, 1 << w):
            v = self.anchor
            for i in range(w):
                if mask >> i & 1:
                    v = vec_add(v, self.generators[i])
            verts.append(v)
        if len(set(verts)) != len(verts):
            raise AssertionError("parallelotope vertices are not distinct")
        return verts

    def vertex(self, gamma):
        v = self.anchor
        for i in gamma:
            v = vec_add(v, self.generators[i - 1])
        return v


@dataclass(frozen=True)
class Hypercube:
    """C(lambda): the lift of Pi(lambda) anchored at zhat(lambda)."""

    anchor: HatVec
    generators: tuple  # w HatVec
    owner: object

    def vertices(self):
        w = len(self.generators)
        verts = []
        for mask in range(1 << w):
            v = self.anchor
            for i in range(w):
                if mask >> i & 1:
                    v = v + self.generators[i]
            verts.append(v)
        if len(set(verts)) != len(verts):
            raise AssertionError("hypercube vertices are not distinct")
        return verts

    def vertex(self, gamma):
        v = self.anchor
        for i in gamma:
            v = v + self.generators[i - 1]
        return v


def parallelotope_of(lam, e):
    return Parallelotope(anchor=z_label(lam, e), generators=modified_basis(lam, e).plain, owner=lam)


def hypercube_of(lam, e):
    return Hypercube(anchor=hat_z(lam, e), generators=modified_basis(lam, e).lifted, owner=lam)


def expand_in_basis(lam, e, vector):
    """Integer coefficients of `vector` in the modified basis of lam.

    The basis telescopes along each runner chain, so coefficients are
    prefix / suffix sums; exactness is automatic.
    """
    mvs = movements(lam, e)
    w = len(mvs)
    coeffs = [0] * w
    for runner in range(e):
        idx = [mv.index for mv in mvs if mv.q % e == runner]
        if not idx:
            continue
        bottom = mvs[idx[-1] - 1].b
        l = min(s for s in range(len(idx)) if mvs[idx[s] - 1].b == bottom)
        vals = [vector[i - 1] for i in idx]
        for g in range(l):
            coeffs[idx[g] - 1] = sum(vals[: g + 1])
        coeffs[idx[l] - 1] = sum(vals)
        for g in range(l + 1, len(idx)):
            coeffs[idx[g] - 1] = sum(vals[g:])
    return coeffs


def pi_membership(lam, target, e):
    """Gamma with target = z(lambda) + eps_Gamma, or None.

    When non-null, the box distance d_lambda(target) equals |Gamma|.
    """
    if not is_hook_quotient(lam, e):
        raise ValueError("pi_membership requires a hook-quotient partition")
    target = tuple(target)
    z = z_label(lam, e)
    if len(target) != len(z):
        raise ValueError("label length mismatch")
    diff = tuple(t - a for t, a in zip(target, z))
    coeffs = expand_in_basis(lam, e, diff)
    if any(c not in (0, 1) for c in coeffs):
        return None
    return frozenset(i + 1 for i, c in enumerate(coeffs) if c)


def d_closed_detail(lam, mu, e):
    """Both routes of the closed formula, plus the hypothesis status."""
    out = {
        "same_block": block_of(lam, e) == block_of(mu, e),
        "hook_quotient": is_hook_quotient(lam, e),
        "mu_4_increasing": is_m_increasing(z_label(mu, e), 4),
        "gamma": None,
        "pi_value": LaurentPoly.zero(),
        "cube_value": LaurentPoly.zero(),
    }
    if not out["same_block"] or not out["hook_quotient"]:
        return out
    gamma = pi_membership(lam, z_label(mu, e), e)
    out["gamma"] = gamma
    if gamma is not None:
        out["pi_value"] = LaurentPoly.monomial(len(gamma))
    zl, zm = hat_z(lam, e), hat_z(mu, e)
    cube = hypercube_of(lam, e)
    w = len(cube.generators)
    if gamma is not None and cube.vertex(sorted(gamma)) == zm:
        out["cube_value"] = LaurentPoly.monomial((zm - zl).norm())
    else:
        # search all vertices (only needed off the 4-increasing regime)
        for mask in range(1 << w):
            g = [i + 1 for i in range(w) if mask >> i & 1]
            if cube.vertex(g) == zm:
                out["cube_value"] = LaurentPoly.monomial((zm - zl).norm())
                break
    return out


def d_closed(lam, mu, e):
    """q^{d_lambda(mu)} if lam is hook-quotient and z(mu) in Pi(lam), else 0.

    Valid as a q-decomposition number when mu is 4-increasing, in which case
    the parallelotope and hypercube routes provably agree (and the agreement
    is asserted here).
    """
    if block_of(lam, e) != block_of(mu, e):
        return LaurentPoly.zero()
    if not is_hook_quotient(lam, e):
        return LaurentPoly.zero()
    detail = d_closed_detail(lam, mu, e)
    if detail["mu_4_increasing"] and detail["pi_value"] != detail["cube_value"]:
        raise AssertionError(
            "parallelotope and hypercube routes disagree on a 4-increasing column"
        )
    return detail["pi_value"]


@dataclass
class Tiling:
    """All parallelotope/hypercube cells of the hook-quotient members of a block."""

    block: object
    m: int
    cells: list  # (owner, Parallelotope, Hypercube)

    def generic_cells(self):
        e = self.block.e
        out = []
        for owner, pi, cube in self.cells:
            z = pi.anchor
            if is_m_increasing(z, 10) and (not z or z[-1] <= e - 2):
                out.append((owner, pi, cube))
        return out

    def generator_classes(self, cells=None):
        """Distinct generator multisets among the given cells (default: generic)."""
        cells = self.generic_cells() if cells is None else cells
        classes = {}
        for owner, pi, _ in cells:
            key = tuple(sorted(pi.generators))
            classes.setdefault(key, []).append(owner)
        return classes


def build_tiling(b, m=4, ctx=None):
    """Cells for every hook-quotient partition in the block."""
    ctx = ctx or BlockContext(b)
    cells = []
    for lam in ctx.members():
        if is_hook_quotient(lam, b.e):
            cells.append((lam, parallelotope_of(lam, b.e), hypercube_of(lam, b.e)))
    return Tiling(block=b, m=m, cells=cells)


def m_increasing_box(e, w, m, upper):
    """All m-increasing integer vectors of length w with entries in [0, upper]."""
    out = []

    def rec(prefix):
        if len(prefix) == w:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] + m if prefix else 0
        for v in range(max(lo, 0), upper + 1):
            prefix.append(v)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def tiling_union(t):
    """Union of the m-increasing vertices of all cells."""
    pts = set()
    for _, pi, _ in t.cells:
        for v in pi.vertices():
            if is_m_increasing(v, t.m):
                pts.add(v)
    return pts


def check_discrete_union(t):
    """Coverage: the union of m-increasing cell vertices is the whole
    m-increasing part of [0, e]^w."""
    e, w = t.block.e, t.block.weight
    want = set(m_increasing_box(e, w, t.m, e))
    got = tiling_union(t)
    return got == want


def check_cube_injectivity(t):
    """The projection p is injective on the union of m-increasing hypercube
    vertices over the block."""
    seen = {}
    for _, _, cube in t.cells:
        for v in cube.vertices():
            pv = v.project()
            if not is_m_increasing(pv, t.m):
                continue
            if pv in seen and seen[pv] != v:
                return False
            seen[pv] = v
    return True


def _minimal_face(pi, pts):
    """Smallest face of pi containing the given vertex subset, as a set."""
    gammas = []
    verts = {}
    w = len(pi.generators)
    for mask in range(1 << w):
        g = frozenset(i + 1 for i in range(w) if mask >> i & 1)
        verts[g] = pi.vertex(sorted(g))
    hits = [g for g, v in verts.items() if v in pts]
    if not hits:
        return set()
    lo = frozenset.intersection(*hits)
    hi = frozenset.union(*hits)
    face = {verts[g] for g, v in verts.items() if lo <= g <= hi}
    return face


def check_common_faces(t):
    """Pairwise intersections of m-increasing cell vertices are faces.

    For each pair, the minimal faces of both cells containing the
    intersection must restrict to exactly the intersection; when one owner
    is 7-increasing the two faces must coincide as vertex sets.
    """
    cells = t.cells
    data = []
    for owner, pi, _ in cells:
        vs = set(v for v in pi.vertices() if is_m_increasing(v, t.m))
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
            if {v for v in f1 if is_m_increasing(v, t.m)} != inter:
                return False
            if {v for v in f2 if is_m_increasing(v, t.m)} != inter:
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
    ctx = ctx or BlockContext(b)
    e = b.e
    four = [lam for lam in ctx.members() if is_m_increasing(z_label(lam, e), 4)]
    hats = {lam: hat_z(lam, e) for lam in four}
    out = []
    for i in range(len(four)):
        for j in range(i + 1, len(four)):
            lam, mu = four[i], four[j]
            if (hats[lam] - hats[mu]).norm() != 1:
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
                "hat_anchor": cube.anchor.to_json(),
            }
        )
    return {
        "e": t.block.e,
        "core": list(t.block.core.parts),
        "weight": t.block.weight,
        "m": t.m,
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
