"""Three canonical-basis engines: LLT, Rouquier closed formula, induction.

Every engine produces columns of the q-decomposition matrix d_{lambda,mu}(q)
= <G(mu), lambda>; they are independent of each other and of the closed
parallelotope formula, which is what makes the cross-checks meaningful.
"""

from __future__ import annotations

from collections import namedtuple

from .abacus import (
    FACTS_MAXSIZE,
    Abacus,
    BlockId,
    _addable,
    _from_tops,
    _matched_signature,
    _removable,
    _runner,
    _runner_tops,
    block_of,
    core_tops,
    facts,
    is_rouquier,
    mask_of,
    partition_of,
    partition_of_mask,
    rouquier_charge,
    scopes_chain_blocks,
    weyl_s,
)
from .fock import FockVector, _accumulate, addable_beads, apply_F, move, removable_beads, step_E, step_F, unpack
from .labels import (
    BlockContext,
    abacus_movements,
    abacus_z,
    is_hook_quotient,
    is_m_increasing,
    modified_basis,
    movements,
    vec_sub,
    z_label,
)
from .laurent import LaurentPoly, bar_symmetric_split, quantum_int
from .partitions import EMPTY, all_partitions, conjugate, is_e_regular


# -- LLT algorithm ----------------------------------------------------------

_ONE = {0: 1}  # the packed coefficient 1, which only the offender scan reads


def ladder_sequence(mu, e):
    """Residue and multiplicity of each nonempty ladder of [mu], bottom first.

    The ladder with index k holds the nodes (i, j) with i + (e-1)(j-1) = k;
    all its nodes share the residue (1 - k) mod e.
    """
    if not is_e_regular(mu, e):
        raise ValueError("ladder sequence requires an e-regular partition")
    counts = {}
    for i, j in mu.cells():
        k = i + (e - 1) * (j - 1)
        counts[k] = counts.get(k, 0) + 1
    return [((1 - k) % e, counts[k]) for k in sorted(counts)]


def ladder_monomial(mu, e):
    """A(mu): the ordered product of divided powers F^(m) applied to empty."""
    v = FockVector.basis(EMPTY)
    for res, mult in ladder_sequence(mu, e):
        v = apply_F(v, res, mult, e)
    return v


def llt_G(mu, e, ctx=None):
    """Canonical basis vector G(mu) for e-regular mu, by the crystal
    recursion of the LLT algorithm (`llt_column`); ctx, when given, must be
    the context of mu's block.  The context keeps one `ColumnStore`, made
    on first use, so later columns of the block stop their walks at the
    columns already stored."""
    caches = BlockContext.of(block_of(mu, e), ctx).caches
    if "llt" not in caches:
        caches["llt"] = ColumnStore()
    return unpack(llt_column(mu, e, caches["llt"])[1])


class ColumnStore(dict):
    """LLT columns kept across `llt_column` calls at one e: the `Abacus`
    of a label, which holds the offset-free (base, mask) of its beta-set,
    -> (lo, G of the label packed over lo).  terms counts the packed terms
    held; past FACTS_MAXSIZE of them only completed columns are added.
    Stored columns are read, never changed in place, and share coefficient
    dicts, which are values (`fock`).  `llt_G` and the suites keep one per
    block, a `dnum --method llt` batch one per e."""

    __slots__ = ("terms",)

    def __init__(self):
        super().__init__()
        self.terms = 0


def llt_column(mu, e, store):
    """(lo, G(mu) packed over lo), lo = -(|mu| + 2), by the crystal
    recursion, reading and filling store, a `ColumnStore` of e.

    Each column is built by a `_crystal_column` generator, which asks for
    the columns of its corrections; a stack of generators answers them, so
    nothing recurses.  A correction already stored is answered by its
    generator's first store lookup.
    """
    if not is_e_regular(mu, e):
        raise ValueError("llt_G requires an e-regular partition")
    lo = -(mu.size + 2)
    stack = [_crystal_column(mask_of(mu, lo), e, lo, store)]
    col = None
    while stack:
        try:
            nu = stack[-1].send(col)
        except StopIteration as done:
            stack.pop()
            col = done.value
            continue
        stack.append(_crystal_column(mask_of(nu, lo), e, lo, store))
        col = None
    return lo, col


def _crystal_column(m, e, lo, store):
    """G of the e-regular label with packed beta-set m over lo.

    A generator: it yields each label whose column it needs, is sent that
    column in packed form, and returns its own.  The walk down removes all
    eps_i normal beads of the residue i with the most of them, until the
    label is an e-core; the climb back starts from G(core) = core, since a
    core is the one member of its weight-0 block, then applies
    F_i^(eps_i) at each step and subtracts bar-invariant multiples of
    G(x), x the largest offending mask first, until the step's target t
    has coefficient 1 and every other label one in qZ[q].  Over one offset
    the integer order of masks is the lexicographic order of partitions,
    which refines dominance, so no offender dominates the largest one.  A
    correction x has eps_i(x) > eps_i(t), which is the most normal beads of
    any residue at t, so the chain of corrections ends.

    The residue signatures are read once; moving residue-i beads from p to
    p - 1 changes only the slots p - 1, p and p + 1, so after a step only
    the residues i - 1, i and i + 1 are read again.

    The walk also stops at the first label whose column is in store, a
    `ColumnStore` of e, and the climb starts from that column moved to lo.
    After its corrections each climb step holds a bar-invariant vector in
    t + sum qZ[q] nu, which is G(t); it is stored while the store holds
    fewer than FACTS_MAXSIZE packed terms, and the last step's, the label's
    own column, always is.
    """
    steps = []
    sigs, lens, stale, below = [None] * e, [0] * e, range(e), (1 << e) - 1
    while True:
        if not m & ~((m << e) | below):  # an e-core: no bead has a gap e below it
            v = {m: {0: 1}}
            break
        key = Abacus(e, lo, m)
        hit = store.get(key)
        if hit is not None:
            v = move(hit[1], hit[0], lo)
            break
        for r in stale:
            sigs[r] = _matched_signature(m, lo, e, r)[0]
            lens[r] = len(sigs[r])
        i = lens.index(max(lens))
        normals = sigs[i]
        if not normals:
            raise AssertionError("an e-regular label that is not an e-core has no normal bead")
        steps.append((m, key, i, len(normals)))
        for b in normals:  # each bead one position down
            m ^= 3 << (b - lo - 1)
        stale = {(i - 1) % e, i, (i + 1) % e}
    for t, key, i, k in reversed(steps):
        v = step_F(v, i, k, e, lo)
        guard = 0
        while True:
            offenders = [x for x, c in v.items() if (c != _ONE if x == t else min(c) <= 0)]
            if not offenders:
                break
            guard += 1
            if guard > 10000:
                raise AssertionError("LLT elimination failed to terminate")
            x = max(offenders)
            if x == t:
                raise AssertionError("LLT column is not unitriangular at its label")
            nu = partition_of_mask(x)
            if not is_e_regular(nu, e):
                raise AssertionError("LLT correction hit an e-singular label")
            alpha, _ = bar_symmetric_split(LaurentPoly(v[x]))
            _subtract_multiple(v, alpha, (yield nu))
        if t == steps[0][0] or store.terms < FACTS_MAXSIZE:
            store[key] = lo, v
            store.terms += len(v)
    return v


def _subtract_multiple(v, alpha, g):
    """v -= alpha * g on packed terms, in place on v; g is left unchanged.
    `_accumulate` replaces each coefficient it touches by a fresh dict, so
    no coefficient dict, which v may share with stored columns, is changed
    in place."""
    for m, c in g.items():
        for a, ca in alpha.coeffs.items():
            _accumulate(v, m, {x: -ca * cx for x, cx in c.items()}, a)
        if not v[m]:
            del v[m]


# -- Littlewood-Richardson coefficients -------------------------------------


def lr_coefficient(rho, sigma, tau):
    """Number of LR skew semistandard tableaux of shape rho/sigma, content tau.

    Counts fillings of [rho] minus [sigma] that weakly increase along rows,
    strictly increase down columns, and whose reverse reading word is a
    lattice word.
    """
    if rho.size != sigma.size + tau.size:
        raise ValueError("sizes must satisfy |rho| = |sigma| + |tau|")
    if not rho.contains(sigma):
        return 0
    if not tau.parts:
        return 1 if rho == sigma else 0
    t = len(tau.parts)
    cells = []  # reading order: rows top to bottom, right to left
    for i in range(1, len(rho.parts) + 1):
        cells.extend((i, j) for j in range(rho.part(i), sigma.part(i), -1))
    n = len(cells)
    at = {c: k for k, c in enumerate(cells)}
    # the cells above and to the right of a cell come before it in reading
    # order; where there is none, read the sentinel 0 (above) or t (right)
    above = [at.get((i - 1, j), n) for i, j in cells]
    right = [at.get((i, j + 1), n + 1) for i, j in cells]
    vals = [0] * n + [0, t]  # the entry of each cell, 0 while it is empty
    cap = (0,) + tau.parts
    counts = [0] * (t + 1)
    total = pos = 0
    while pos >= 0:
        v = vals[pos]
        if v:  # take back the entry tried last
            counts[v] -= 1
        v = max(v, vals[above[pos]]) + 1
        hi = vals[right[pos]]
        while v <= hi and (counts[v] >= cap[v] or (v > 1 and counts[v] >= counts[v - 1])):
            v += 1
        if v > hi:
            vals[pos] = 0
            pos -= 1
            continue
        vals[pos] = v
        counts[v] += 1
        if pos < n - 1:
            pos += 1
        else:
            # no entry exceeds its content and the sizes agree, so this
            # complete filling has content tau
            total += 1
    return total


# -- Rouquier-block closed formulas ------------------------------------------


def shifted_quotient(lam, e, c):
    """The e-quotient read off the abacus display shifted by charge c: the
    shift moves runner r to runner r + c, so it is lam's quotient rotated."""
    q, k = facts(lam, e).quotient, -c % e
    return q[k:] + q[:k]


def rouquier_d(lam, mu, b, ctx=None):
    """q-decomposition number in a Rouquier block, by the LR-product formula:
    the entry of `rouquier_column(mu, b, ctx)` at lam."""
    return rouquier_d_for(mu, b, ctx)(lam)


def rouquier_d_for(mu, b, ctx=None):
    """The function lam -> d_{lam,mu}(q) of `rouquier_d`: mu's column is read
    once and unpacked; each call refuses a lam outside the block."""
    terms = unpack(rouquier_column(mu, b, ctx)[1]).terms  # refuses a block that is not Rouquier

    def d(lam):
        if block_of(lam, b.e) != b:
            raise ValueError("both partitions must lie in the block")
        return terms.get(lam, LaurentPoly.zero())

    return d


def _rouquier_d_reduced(ql, qm):
    """Reduced hook form, valid when the mu quotient is all columns.

    With ql_i = (x_i, 1^y_i) a hook, w_i the length of qm_i and
    a_{i+1} = sum_{j <= i} (x_j + y_j - w_j), it is q^(sum x_i - c_i) when
    every c_i = x_i - a_{i+1} lies in [0, min(1, x_i)], else 0.
    """
    acc = total = 0  # acc = a_{i+1}
    for q, m in zip(ql, qm):
        p = q.parts
        if len(p) > 1 and p[1] > 1:
            return LaurentPoly.zero()
        x = p[0] if p else 0
        acc += x + max(len(p) - 1, 0) - len(m.parts)
        c = x - acc
        if c < 0 or c > min(1, x):
            return LaurentPoly.zero()
        total += x - c
    return LaurentPoly.monomial(total)


def _rouquier_terms(qm, w):
    """{ql: LR total} over the shifted quotients ql with a nonzero total
    against the shifted quotient qm of mu.

    The total is the sum, over chains alpha_0 = empty, alpha_1, ...,
    alpha_e = empty and betas, of the products of LR coefficients
    c^{qm_j}_{alpha_j beta_j} c^{ql_j}_{beta_j alpha_{j+1}'}, all
    nonnegative.  The chains are generated runner by runner: alpha_j lies
    inside qm_j, beta_j runs over the constituents of the skew qm_j /
    alpha_j, and ql_j over those of beta_j alpha_{j+1}'.  A state maps
    (alpha_j, ql_0 .. ql_{j-1}) to the summed products so far.  Chains
    share their coefficients, so each (rho, sigma, tau) is counted once.
    """
    lr = {}

    def c(*key):  # (rho, sigma, tau)
        if key not in lr:
            lr[key] = lr_coefficient(*key)
        return lr[key]

    e = len(qm)
    parts_of = [all_partitions(n) for n in range(w + 1)]
    inside = [[a for n in range(q.size + 1) for a in parts_of[n] if q.contains(a)] for q in qm]
    states = {(EMPTY, ()): 1}
    for j in range(e):
        ahead = inside[j + 1] if j + 1 < e else [EMPTY]
        nxt = {}
        for (alpha, head), val in states.items():
            for beta in parts_of[qm[j].size - alpha.size]:
                c1 = c(qm[j], alpha, beta)
                if not c1:
                    continue
                for alpha_next in ahead:
                    gamma = conjugate(alpha_next)
                    for ql in parts_of[beta.size + gamma.size]:
                        c2 = c(ql, beta, gamma)
                        if c2:
                            key = (alpha_next, head + (ql,))
                            nxt[key] = nxt.get(key, 0) + val * c1 * c2
        states = nxt
    return {ql: total for (_, ql), total in states.items()}


def rouquier_column(mu, b, ctx=None):
    """(lo, the column of d_{lambda,mu} packed over lo) over a Rouquier
    block b, lo its offset (`_tops_offset`).

    One pass over the LR chains (`_rouquier_terms`) gives the support and
    the LR totals from mu's shifted quotient qm; the entry at ql is
    q^delta times its total, delta = sum_{j<e-1} (e-1-j)(|ql_j| - |qm_j|),
    and each lambda's mask is written from its quotient by interleaving
    runners.  When qm is all columns, the hook reduction is evaluated on
    every quotient of the block and must equal the entry there, 0 off the
    support; the block's quotients are listed once per context.  Columns
    are kept in the context's "rouquier" cache.
    """
    ctx = BlockContext.of(b, ctx)
    cache = ctx.cache("rouquier")
    if mu in cache:
        return cache[mu]
    c = rouquier_charge(b)
    if c is None:
        raise ValueError("%r is not a Rouquier block" % (b,))
    if block_of(mu, b.e) != b:
        raise ValueError("mu must lie in the block")
    e = b.e
    qm = shifted_quotient(mu, e, c)
    sm = [q.size for q in qm]
    values = {}
    for ql, total in _rouquier_terms(qm, b.weight).items():
        delta = sum((e - 1 - j) * (ql[j].size - sm[j]) for j in range(e - 1))
        values[ql] = {delta: total}
    if all(q.parts == (1,) * len(q.parts) for q in qm):
        for ql in ctx.quotients():
            if _rouquier_d_reduced(ql, qm).coeffs != values.get(ql, {}):
                raise AssertionError("the hook reduction disagrees with the LR formula %s the LR support at %r"
                                     % ("on" if ql in values else "off", ql))
    tops = core_tops(b.core, e)
    lo = _tops_offset(tops, b.weight)
    # runner r of the display shifted by c is runner r - c unshifted
    cache[mu] = lo, {_from_tops(tops, ql[c:] + ql[:c], lo): v for ql, v in values.items()}
    return cache[mu]


# -- exceptional families ----------------------------------------------------


class ScopesPair(namedtuple("ScopesPair", "tops w a k")):
    """Weight-w blocks B and s_a(B) forming a [w:k]-pair for the runner a,
    given by the core tops of s_a(B); e is len(tops)."""

    __slots__ = ()


class ExceptionalFamily(namedtuple(
        "ExceptionalFamily", "generator k hat lower upper internal external eta ext_eps z0")):
    """The 2(k+2) partitions F-generated from a generator with E = 0.

    generator lies in the weight w-k-1 block; lower is lambda^0 .. lambda^{k+1}
    in B and upper is lambdatilde^0 .. lambdatilde^{k+1} in s_a(B); internal
    is i_0 < ... < i_k; eta holds k+2 vectors in Z^w; ext_eps maps each x in
    external to its eps vector (common to all members); z0 = z(lambda^0) =
    z(lambdatilde^0).
    """

    __slots__ = ()

    def members(self):
        return (self.generator, self.hat) + self.lower + self.upper

    def separation(self, z_mu):
        """Solve z_mu = z0 + eta_J + eps_X; None when no such (J, X) exists.

        Returns a dict with n = k+2-|J| (the number of member parallelotopes
        containing the label), s = |X|, and the witness sets.
        """
        diff = vec_sub(tuple(z_mu), self.z0)
        cols = list(self.eta[1:]) + [self.ext_eps[x] for x in self.external]
        sol = _solve_integer(cols, diff)
        if sol is None:
            return None
        t = sol[: self.k + 1]
        u = sol[self.k + 1 :]
        if any(x not in (0, 1) for x in u):
            return None
        if all(x in (0, 1) for x in t):
            J = frozenset(g + 1 for g, x in enumerate(t) if x == 1)
        elif all(x in (-1, 0) for x in t):
            J = frozenset({0} | {g + 1 for g, x in enumerate(t) if x == 0})
        else:
            return None
        X = frozenset(x for x, val in zip(self.external, u) if val)
        return {"n": self.k + 2 - len(J), "s": len(X), "J": J, "X": X}


def _solve_integer(cols, target):
    """Solve sum x_i cols[i] = target over the integers, or None.

    Every column has at most one +1 and one -1, so the matrix is totally
    unimodular: each pivot is a unit and elimination stays in Z.
    """
    w, n = len(target), len(cols)
    mat = [[col[i] for col in cols] + [target[i]] for i in range(w)]
    piv_rows = []
    r = 0
    for c in range(n):
        sel = next((rr for rr in range(r, w) if mat[rr][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        piv = mat[r][c]
        if piv not in (1, -1):
            raise AssertionError("separation pivot %d is not a unit" % piv)
        mat[r] = [v * piv for v in mat[r]]
        for rr in range(w):
            f = mat[rr][c]
            if rr != r and f:
                mat[rr] = [x - f * y for x, y in zip(mat[rr], mat[r])]
        piv_rows.append((r, c))
        r += 1
    if any(mat[rr][n] for rr in range(r, w)):
        return None
    sol = [0] * n
    for row, c in piv_rows:
        sol[c] = mat[row][n]
    # verify (guards the non-pivot columns)
    if any(sum(x * col[i] for x, col in zip(sol, cols)) != target[i] for i in range(w)):
        return None
    return sol


def exceptional_family(gen, pair):
    """Build the family generated by gen across the pair, or None when it is
    not a hook-quotient family.

    Requires E_a(gen) = 0 and gen in the weight w-k-1 block of the pair.
    """
    e, a, k = len(pair.tops), pair.a, pair.k
    if removable_beads(gen, a, e):
        raise ValueError("the generator must satisfy E_a = 0")
    C = addable_beads(gen, (a - 1) % e, e)
    if len(C) != k + 2:
        raise ValueError("generator has %d addable beads on runner a-1, expected %d" % (len(C), k + 2))
    if not is_hook_quotient(gen, e):
        return None
    f = facts(gen, e)
    aba, quot = f.abacus, f.quotient
    if len(quot[(a - 1) % e].parts) > 1:
        return None
    if quot[a % e].part(1) > 1:
        return None
    hat_ab = aba.move_beads([(c, c + 1) for c in C])
    hat = partition_of(hat_ab)
    lower = tuple(
        partition_of(hat_ab.move_bead(C[j] + 1, C[j])) for j in range(k + 2)
    )
    upper = tuple(
        partition_of(aba.move_bead(C[k + 1 - j], C[k + 1 - j] + 1))
        for j in range(k + 2)
    )
    # internal coordinates, read off the leading member in s_a(B)
    y0 = pair.tops[a % e] + e
    mvs = movements(upper[0], e)
    internal = []
    for g in range(k + 1):
        hits = [mv.index for mv in mvs if mv.q in (y0 + g * e, y0 - 1 + g * e)]
        if len(hits) != 1:
            raise AssertionError("internal coordinate not unique at gamma=%d" % g)
        internal.append(hits[0])
    if internal != sorted(internal):
        raise AssertionError("internal coordinates out of order")
    w = pair.w
    external = tuple(i for i in range(1, w + 1) if i not in internal)
    i = internal
    unit = lambda r: tuple(1 if t == r - 1 else 0 for t in range(w))
    eta = [tuple(-x for x in unit(i[0]))]
    for g in range(1, k + 1):
        eta.append(vec_sub(unit(i[g - 1]), unit(i[g])))
    eta.append(unit(i[k]))
    mb_u = modified_basis(upper[0], e)
    mb_l = modified_basis(lower[0], e)
    ext_eps = {}
    for x in external:
        if mb_u[x - 1] != mb_l[x - 1]:
            raise AssertionError("external eps is not constant on the family")
        ext_eps[x] = mb_u[x - 1]
    z0 = z_label(lower[0], e)
    if z0 != z_label(upper[0], e):
        raise AssertionError("z(lambda^0) != z(lambdatilde^0)")
    return ExceptionalFamily(
        generator=gen,
        k=k,
        hat=hat,
        lower=lower,
        upper=upper,
        internal=tuple(internal),
        external=external,
        eta=tuple(eta),
        ext_eps=ext_eps,
        z0=z0,
    )


# -- inductive construction ---------------------------------------------------


class InductiveEngine:
    """Scopes-chain construction of canonical-basis columns.

    The column of mu is kept as (lo, col) (`fock`), lo the offset of its
    block b (`_tops_offset`), and cached by mu's `Abacus`, which fixes b at
    the engine's e; `packed_column` returns it, `column` unpacks it.  The
    chain of each block asked for is kept as `scopes_chain_blocks` gives
    it, the core tops it visits and its steps, so a chain of L steps holds
    O(L) slots.  A step reads its predecessor's offset from the store,
    works over it, and moves its result to the offset of the block it
    writes (`fock.move`), read off its core tops.

    mu's representatives along the chain are abaci, carried back by
    `weyl_s`; each must have the visited core tops and z(mu), read off one
    `runner_slices` of the abacus (`labels.abacus_movements`,
    `labels.abacus_z`), so no `facts` record is made for them.  A [w:k]-pair
    with k >= w is a Scopes equivalence, and its step relabels G(prev)
    (`_relabel`), checking on every term that E_a^(k) only moves its k
    removable runner-a beads back one slot; a k < w pair is given by the
    core tops of s_a(B) (`ScopesPair`), so a `BlockId` is built only for
    the Rouquier base.  Every stored column passes `_store`'s checks; a
    label with a removable runner-a bead (none has one in a block of weight
    w <= k) would be missing from its relabelled column and refused there.

    Every column built is kept, not only a step's predecessor: later columns
    pick up their chains from them, and correction generators are read
    again.  Keeping only the columns asked for took 10,415 Scopes steps over
    AC-3 instead of 6,771, and 3,101 instead of 2,806 on the (13,4) column
    mu = 22,5,2^4,1^17.
    """

    def __init__(self, e):
        self.e = e
        self.cols = {}
        self.chains = {}

    def chain(self, b):
        if b not in self.chains:
            self.chains[b] = scopes_chain_blocks(b)
        return self.chains[b]

    def column(self, mu):
        """G(mu) as a Fock vector."""
        return unpack(self.packed_column(mu)[1])

    def packed_column(self, mu):
        """(lo, G(mu) packed over lo), lo the offset of mu's block."""
        e = self.e
        rep = facts(mu, e).abacus
        if rep in self.cols:
            return self.cols[rep]
        b = block_of(mu, e)
        w = b.weight
        if w == 0:
            lo = _tops_offset(core_tops(b.core, e), 0)
            return self._store(rep, lo, {rep.mask_over(lo): {0: 1}})
        z = z_label(mu, e)
        if not is_m_increasing(z, 4):
            raise ValueError("inductive_G requires a 4-increasing partition")
        if is_rouquier(b):
            return self._store(rep, *rouquier_column(mu, b))
        # walk back along the Scopes chain to the Rouquier base, then build
        # the z-matched columns forward iteratively (chains can be long)
        tops, chain = self.chain(b)
        reps = [rep]
        for a, _ in reversed(chain):
            reps.append(weyl_s(reps[-1], a))
        reps.reverse()
        for r, t in zip(reps, tops):
            runners = r.runner_slices()
            if _runner_tops(runners, e) != list(t) or abacus_z(r, abacus_movements(runners, e)) != z:
                raise AssertionError("Weyl transport left the expected block or label")
        if reps[0] not in self.cols:
            base = BlockId(e, _from_tops(tops[0], (EMPTY,) * e), w)
            self._store(reps[0], *rouquier_column(partition_of(reps[0]), base))
        for i, (a, k) in enumerate(chain, 1):
            if reps[i] in self.cols:
                continue
            blo, prev = self.cols[reps[i - 1]]
            lo = _tops_offset(tops[i], w)
            if k >= w:
                col = move(_relabel(prev, a, k, e, blo), blo, lo)
            else:
                pair = ScopesPair(tops=tops[i], w=w, a=a, k=k)
                col = self._step(reps[i].mask_over(lo), prev, z, pair, blo, lo)
            self._store(reps[i], lo, col)
        return self.cols[rep]

    def _store(self, rep, lo, col):
        """Keep col, packed over lo, with lo as the column of the label whose
        abacus is rep; return (lo, col)."""
        if any(x & 3 != 3 for x in col):
            raise AssertionError("a packed term comes within two rows of its block's offset")
        m = rep.mask_over(lo)
        if col.get(m) != {0: 1}:
            raise AssertionError("inductive column is not unitriangular at mu")
        if any(min(c) <= 0 for x, c in col.items() if x != m):
            raise AssertionError("inductive column violates triangularity")
        self.cols[rep] = lo, col
        return lo, col

    def _step(self, m, prev, z, pair, blo, lo):
        """One Scopes step: the column of the label with mask m over lo (the
        offset of s_a(B)), packed over lo, from prev, the column of its
        predecessor in B packed over blo; both labels have z."""
        e, a, k = self.e, pair.a, pair.k
        rem = _removable(m) & _runner(a, e, lo, m.bit_length())
        if rem & (rem - 1):
            raise AssertionError("4-increasing exceptional partition with several removable beads")
        if rem:
            gen = partition_of_mask(_bead_back(m, a, e, lo))
            fam = exceptional_family(gen, pair)
            if fam is None:
                raise AssertionError("1-increasing exceptional family must be hook-quotient")
            if m == mask_of(fam.upper[0], lo):
                return self._F(gen, a, lo)
        col = move(step_E(prev, a, k, e, blo), blo, lo)
        for fam, n in self._corrections(col, m, z, pair, lo):
            _subtract_multiple(col, quantum_int(n - 1), self._F(fam.generator, a, lo))
        return col

    def _F(self, gen, a, lo):
        """F_a G(gen), packed over lo; G(gen) is read with its own offset."""
        glo, col = self.packed_column(gen)
        return move(step_F(col, a, 1, self.e, glo), glo, lo)

    def _corrections(self, col, m, z_prev, pair, lo):
        """The families with s = 0 and n >= 2 for z_prev = z(prev), with their n.

        Their generators are read off the offenders of col = E_a^(k) G(prev),
        packed over lo, the offset of s_a(B), with m the mask of its label:
        every lambdatilde^j of a family leads back to its one generator.
        """
        e = self.e
        gens = dict.fromkeys(
            _bead_back(x, pair.a, e, lo) for x, c in col.items() if x != m and min(c) <= 0
        )
        gens.pop(None, None)
        out = []
        for gen in gens:
            fam = exceptional_family(partition_of_mask(gen), pair)
            sep = fam and fam.separation(z_prev)
            if sep and sep["s"] == 0 and sep["n"] >= 2:
                out.append((fam, sep["n"]))
        return out


def _tops_offset(tops, w):
    """The packing offset of the weight-w block whose core has the runner
    tops given.  A member is the core plus w rim e-hooks, each adding at
    most e rows, so over -(rows of the core + e w + 2) every member keeps
    two filled positions above the offset and a step from one stays in
    range.  The core's lowest gap is min(tops) + e, at -(its rows)."""
    e = len(tops)
    return min(tops) + e - e * w - 2


def _relabel(vec, a, k, e, lo):
    """E_a^(k) on packed terms over lo at a [w:k]-pair with k >= w: each
    term's k removable runner-a beads move back one slot, its coefficient
    dict shared, not copied: coefficient dicts are values (`fock`).

    On a term with exactly k removable runner-a beads and no addable
    runner-(a-1) bead, `step_E` makes one move, all k beads, with exponent
    0: the result has no removable runner-a bead and the source no addable
    runner-(a-1) bead, so `step_E` shares the dict too.  Any other term is
    refused with AssertionError.
    """
    width = max(m.bit_length() for m in vec) + 1
    radd, rrem = _runner(a - 1, e, lo, width), _runner(a, e, lo, width)
    out = {}
    for m, c in vec.items():
        rem = _removable(m) & rrem
        if rem.bit_count() != k or _addable(m) & radd:
            raise AssertionError("a Scopes relabelling met a term that E_a^(k) does not only relabel")
        out[m ^ rem ^ (rem >> 1)] = c
    return out


def _bead_back(m, a, e, lo):
    """The mask m over lo with its one removable bead on runner a moved back
    a slot, or None unless exactly one such bead exists."""
    rem = _removable(m) & _runner(a, e, lo, m.bit_length())
    if not rem or rem & (rem - 1):
        return None
    return m ^ rem ^ (rem >> 1)


def inductive_G(mu, e):
    """Canonical basis column via the Scopes-chain induction."""
    return InductiveEngine(e).column(mu)
