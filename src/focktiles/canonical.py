"""Three canonical-basis engines: LLT, Rouquier closed formula, induction.

Every engine produces columns of the q-decomposition matrix d_{lambda,mu}(q)
= <G(mu), lambda>; they are independent of each other and of the closed
parallelotope formula, which is what makes the cross-checks meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import (
    BlockId,
    _matched_signature,
    _removable,
    abacus_of,
    block_of,
    core_quotient_weight,
    is_rouquier,
    mask_of,
    partition_of,
    partition_of_mask,
    rouquier_charge,
    scopes_chain_blocks,
    weyl_s,
)
from .fock import FockVector, _accumulate, addable_beads, apply_E, apply_F, removable_beads, step_F, unpack
from .labels import (
    BlockContext,
    is_m_increasing,
    modified_basis,
    movements,
    vec_sub,
    z_label,
)
from .laurent import LaurentPoly, bar_symmetric_split, quantum_int
from .partitions import EMPTY, Partition, all_partitions, conjugate, dominance_leq, is_e_regular


# -- LLT algorithm ----------------------------------------------------------


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


def _dominance_max(cands):
    """A dominance-maximal element, ties broken by descending part tuples."""
    best = None
    for x in sorted(cands, key=lambda p: p.parts, reverse=True):
        if all(y == x or not dominance_leq(x, y) for y in cands):
            best = x
            break
    if best is None:
        raise AssertionError("no dominance-maximal candidate")
    return best


def llt_G(mu, e, ctx=None):
    """Canonical basis vector G(mu) for e-regular mu, by the crystal
    recursion of the LLT algorithm."""
    if not is_e_regular(mu, e):
        raise ValueError("llt_G requires an e-regular partition")
    return _llt_column(mu, e, BlockContext.of(block_of(mu, e), ctx))


def _llt_column(mu, e, ctx):
    """G(mu) by the crystal recursion, on packed terms over one offset.

    Each column is built by a `_crystal_column` generator, which asks for
    the columns of its corrections; a stack of generators answers them, so
    nothing recurses.  The columns of ctx's block (the labels with |mu|
    nodes) are unpacked once and stored in ctx; the others lie in smaller
    blocks and are dropped after use.
    """
    cache = ctx.cache("llt")
    if mu in cache:
        return cache[mu]
    n, lo = mu.size, -(mu.size + 2)
    stack = [(mu, _crystal_column(mask_of(mu, lo), e, lo))]
    col = None
    while stack:
        lam, frame = stack[-1]
        try:
            nu = frame.send(col)
        except StopIteration as done:
            stack.pop()
            col = done.value
            if lam.size == n:
                cache[lam] = unpack(col)
            continue
        if nu in cache:
            col = {mask_of(x, lo): dict(c.coeffs) for x, c in cache[nu].terms.items()}
        else:
            stack.append((nu, _crystal_column(mask_of(nu, lo), e, lo)))
            col = None
    return cache[mu]


def _crystal_column(m, e, lo):
    """G of the e-regular label with packed beta-set m over lo.

    A generator: it yields each label whose column it needs, is sent that
    column in packed form, and returns its own.  The walk down removes all
    eps_i normal beads of the residue i with the most of them, until the
    label is empty; the climb back applies F_i^(eps_i) at each step and
    subtracts bar-invariant multiples of G(x), x dominance-largest first,
    until the step's target t has coefficient 1 and every other label one
    in qZ[q].  A correction x has eps_i(x) > eps_i(t), which is the most
    normal beads of any residue at t, so the chain of corrections ends.
    """
    steps = []
    while _removable(m):
        normals, i = max(((_matched_signature(m, lo, e, i)[0], i) for i in range(e)),
                         key=lambda s: len(s[0]))
        if not normals:
            raise AssertionError("a nonempty e-regular label has no normal bead")
        steps.append((m, i, len(normals)))
        for b in normals:  # each bead one position down
            m ^= 3 << (b - lo - 1)
    v = {m: {0: 1}}
    for t, i, k in reversed(steps):
        v = step_F(v, i, k, e, lo)
        guard = 0
        while True:
            offenders = {
                partition_of_mask(x): x
                for x, c in v.items()
                if (c != {0: 1} if x == t else min(c) <= 0)
            }
            if not offenders:
                break
            guard += 1
            if guard > 10000:
                raise AssertionError("LLT elimination failed to terminate")
            nu = _dominance_max(offenders)
            x = offenders[nu]
            if x == t:
                raise AssertionError("LLT column is not unitriangular at its label")
            if not is_e_regular(nu, e):
                raise AssertionError("LLT correction hit an e-singular label")
            alpha, _ = bar_symmetric_split(LaurentPoly(v[x]))
            _subtract_multiple(v, alpha, (yield nu))
    return v


def _subtract_multiple(v, alpha, g):
    """v -= alpha * g on packed terms, in place; g is left unchanged."""
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
    """The e-quotient read off the abacus display shifted by charge c."""
    return core_quotient_weight(abacus_of(lam, e).shift(c))[1]


def rouquier_d(lam, mu, b):
    """q-decomposition number in a Rouquier block, by the LR-product formula.

    For 0-increasing mu the reduced hook formula is evaluated as well and
    both routes must agree.
    """
    c = rouquier_charge(b)
    if c is None:
        raise ValueError("%r is not a Rouquier block" % (b,))
    if block_of(lam, b.e) != b or block_of(mu, b.e) != b:
        raise ValueError("both partitions must lie in the block")
    e = b.e
    return _rouquier_value(shifted_quotient(lam, e, c), shifted_quotient(mu, e, c), e)


def _rouquier_value(ql, qm, e):
    """The LR-product formula on shifted quotients, cross-checked by the
    reduced hook formula when the mu quotient is all columns."""
    sl = [q.size for q in ql]
    sm = [q.size for q in qm]
    delta = sum((e - 1 - j) * (sl[j] - sm[j]) for j in range(e - 1))
    a_sizes = [0] * (e + 1)
    for i in range(1, e + 1):
        a_sizes[i] = a_sizes[i - 1] + sl[i - 1] - sm[i - 1]
    b_sizes = [0] * e
    acc = 0
    for i in range(e):
        b_sizes[i] = sm[i] + acc
        acc += sm[i] - sl[i]
    if any(x < 0 for x in a_sizes) or any(x < 0 for x in b_sizes):
        total = 0
    else:
        states = {EMPTY: 1}
        for j in range(e):
            betas = all_partitions(b_sizes[j])
            nxt = {}
            for alpha_next in all_partitions(a_sizes[j + 1]):
                alpha_next_conj = conjugate(alpha_next)
                tot = 0
                for alpha, val in states.items():
                    inner = 0
                    for beta in betas:
                        c1 = lr_coefficient(qm[j], alpha, beta)
                        if not c1:
                            continue
                        inner += c1 * lr_coefficient(ql[j], beta, alpha_next_conj)
                    tot += val * inner
                if tot:
                    nxt[alpha_next] = tot
            states = nxt
            if not states:
                break
        total = states.get(EMPTY, 0)
    value = LaurentPoly.monomial(delta) * LaurentPoly.of(total)
    if all(q.parts == (1,) * len(q.parts) for q in qm):
        reduced = _rouquier_d_reduced(ql, qm, e)
        if reduced != value:
            raise AssertionError(
                "Rouquier LR formula and hook reduction disagree: %s vs %s"
                % (value, reduced)
            )
    return value


def _rouquier_d_reduced(ql, qm, e):
    """Reduced hook form, valid when the mu quotient is all columns."""
    xs, ys = [], []
    for q in ql:
        if q.part(2) > 1:
            return LaurentPoly.zero()
        xs.append(q.part(1))
        ys.append(max(len(q.parts) - 1, 0))
    ws = [len(q.parts) for q in qm]
    cs = []
    acc = 0  # a_{i+1}
    for i in range(e):
        acc += (xs[i] + ys[i]) - ws[i]
        cs.append(xs[i] - acc)
    if any(c < 0 or c > min(1, xs[i]) for i, c in enumerate(cs)):
        return LaurentPoly.zero()
    return LaurentPoly.monomial(sum(xs[i] - cs[i] for i in range(e)))


def rouquier_column(mu, b, ctx=None):
    """The full column of d_{lambda,mu} over a Rouquier block.

    The charge, mu's block and mu's shifted quotient are read once per
    column; the shifted quotient of each member once per block context.
    """
    c = rouquier_charge(b)
    if c is None:
        raise ValueError("%r is not a Rouquier block" % (b,))
    if block_of(mu, b.e) != b:
        raise ValueError("mu must lie in the block")
    ctx = BlockContext.of(b, ctx)
    e = b.e
    quots = ctx.cache("shifted_quotient")
    qm = shifted_quotient(mu, e, c)
    out = {}
    for lam in ctx.members():
        ql = quots.get(lam)
        if ql is None:
            ql = quots[lam] = shifted_quotient(lam, e, c)
        v = _rouquier_value(ql, qm, e)
        if v:
            out[lam] = v
    return FockVector(out)


# -- exceptional families ----------------------------------------------------


@dataclass(frozen=True)
class ScopesPair:
    """Blocks B and s_a(B) forming a [w:k]-pair for the runner a."""

    block: BlockId  # B
    tilde: BlockId  # s_a(B)
    a: int
    k: int


@dataclass(frozen=True)
class ExceptionalFamily:
    """The 2(k+2) partitions F-generated from a generator with E = 0."""

    pair: ScopesPair
    generator: Partition  # in the weight w-k-1 block
    k: int
    hat: Partition
    lower: tuple  # lambda^0 .. lambda^{k+1} in B
    upper: tuple  # lambdatilde^0 .. lambdatilde^{k+1} in s_a(B)
    internal: tuple  # i_0 < ... < i_k
    external: tuple
    eta: tuple  # k+2 vectors in Z^w
    ext_eps: dict  # x in external -> eps vector (common to all members)
    z0: tuple  # z(lambda^0) = z(lambdatilde^0)

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
    e, a, k = pair.block.e, pair.a, pair.k
    if removable_beads(gen, a, e):
        raise ValueError("the generator must satisfy E_a = 0")
    C = addable_beads(gen, (a - 1) % e, e)
    if len(C) != k + 2:
        raise ValueError("generator has %d addable beads on runner a-1, expected %d" % (len(C), k + 2))
    aba = abacus_of(gen, e)
    quot = core_quotient_weight(aba)[1]
    if any(q.part(2) > 1 for q in quot):
        return None
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
    kap_t = abacus_of(pair.tilde.core, e)
    y0 = kap_t.runner_max(a % e) + e
    mvs = movements(upper[0], e)
    internal = []
    for g in range(k + 1):
        hits = [mv.index for mv in mvs if mv.q in (y0 + g * e, y0 - 1 + g * e)]
        if len(hits) != 1:
            raise AssertionError("internal coordinate not unique at gamma=%d" % g)
        internal.append(hits[0])
    if internal != sorted(internal):
        raise AssertionError("internal coordinates out of order")
    w = pair.block.weight
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
        if mb_u.plain[x - 1] != mb_l.plain[x - 1]:
            raise AssertionError("external eps is not constant on the family")
        ext_eps[x] = mb_u.plain[x - 1]
    z0 = z_label(lower[0], e)
    if z0 != z_label(upper[0], e):
        raise AssertionError("z(lambda^0) != z(lambdatilde^0)")
    return ExceptionalFamily(
        pair=pair,
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

    Columns are cached per block; chains are seeded so that every prefix
    block reuses the same route back to its Rouquier base.
    """

    def __init__(self, e):
        self.e = e
        self.cols = {}
        self.ctxs = {}
        self.chains = {}

    def ctx(self, b):
        if b not in self.ctxs:
            self.ctxs[b] = BlockContext(b)
        return self.ctxs[b]

    def chain(self, b):
        if b not in self.chains:
            blocks, chain = scopes_chain_blocks(b)
            for j in range(len(blocks)):
                self.chains.setdefault(blocks[j], (blocks[: j + 1], chain[:j]))
        return self.chains[b]

    def column(self, mu):
        e = self.e
        b = block_of(mu, e)
        key = (b, mu)
        if key in self.cols:
            return self.cols[key]
        if b.weight == 0:
            self.cols[key] = FockVector.basis(mu)
            return self.cols[key]
        z = z_label(mu, e)
        if not is_m_increasing(z, 4):
            raise ValueError("inductive_G requires a 4-increasing partition")
        if is_rouquier(b):
            return self._store(b, mu, rouquier_column(mu, b, self.ctx(b)))
        # walk back along the Scopes chain to the Rouquier base, then build
        # the z-matched columns forward iteratively (chains can be long)
        blocks, chain = self.chain(b)
        reps = [mu]
        for a, k in reversed(chain):
            reps.append(partition_of(weyl_s(abacus_of(reps[-1], e), a)))
        reps.reverse()
        for i, rep in enumerate(reps):
            if block_of(rep, e) != blocks[i] or z_label(rep, e) != z:
                raise AssertionError("Weyl transport left the expected block or label")
        if (blocks[0], reps[0]) not in self.cols:
            self._store(blocks[0], reps[0], rouquier_column(reps[0], blocks[0], self.ctx(blocks[0])))
        for i in range(1, len(blocks)):
            if (blocks[i], reps[i]) in self.cols:
                continue
            a, k = chain[i - 1]
            pair = ScopesPair(block=blocks[i - 1], tilde=blocks[i], a=a, k=k)
            self._store(blocks[i], reps[i], self._step(reps[i], reps[i - 1], pair))
        return self.cols[key]

    def _store(self, b, mu, col):
        if col.coeff(mu) != LaurentPoly.one():
            raise AssertionError("inductive column is not unitriangular at mu")
        if any(lam != mu and not c.in_qZq() for lam, c in col.terms.items()):
            raise AssertionError("inductive column violates triangularity")
        self.cols[(b, mu)] = col
        return col

    def _step(self, mu, prev, pair):
        """One Scopes step: columns of s_a(B) from columns of B."""
        e = self.e
        a, k = pair.a, pair.k
        if len(removable_beads(mu, a, e)) > 1:
            raise AssertionError("4-increasing exceptional partition with several removable beads")
        gen = _bead_back(mu, a, e)
        if gen is not None:
            fam = exceptional_family(gen, pair)
            if fam is None:
                raise AssertionError("1-increasing exceptional family must be hook-quotient")
            if mu == fam.upper[0]:
                return apply_F(self.column(gen), a, 1, e)
        col = apply_E(self.cols[(pair.block, prev)], a, k, e)
        for fam, n in self._corrections(col, mu, prev, pair):
            corr = apply_F(self.column(fam.generator), a, 1, e)
            col = col - corr.scale(quantum_int(n - 1))
        return col

    def _corrections(self, col, mu, prev, pair):
        """The families with s = 0 and n >= 2 for z(prev), with their n.

        Their generators are read off the offenders of col = E_a^(k) G(prev):
        every lambdatilde^j of a family leads back to its one generator.
        """
        e = self.e
        gens = dict.fromkeys(
            _bead_back(nu, pair.a, e) for nu, c in col.terms.items() if nu != mu and not c.in_qZq()
        )
        gens.pop(None, None)
        z_prev = z_label(prev, e)
        out = []
        for gen in gens:
            fam = exceptional_family(gen, pair)
            sep = fam and fam.separation(z_prev)
            if sep and sep["s"] == 0 and sep["n"] >= 2:
                out.append((fam, sep["n"]))
        return out


def _bead_back(nu, a, e):
    """nu with its one removable bead on runner a moved back a slot, or None
    unless exactly one such bead exists."""
    rem = removable_beads(nu, a, e)
    if len(rem) != 1:
        return None
    return partition_of(abacus_of(nu, e).move_bead(rem[0], rem[0] - 1))


def inductive_G(mu, e, engine=None):
    """Canonical basis column via the Scopes-chain induction."""
    engine = engine or InductiveEngine(e)
    return engine.column(mu)
