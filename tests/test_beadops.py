import pytest

from focktiles.partitions import EMPTY, Partition, all_partitions, conjugate, is_e_regular, parse_partition
from focktiles.abacus import Abacus, BlockId, abacus_of, block_of, core_from_levels, enumerate_block, partition_of
from focktiles.beadops import (
    MoveError,
    bead_op,
    bead_op_kl,
    bead_target,
    lambda_of_hook,
    move_along,
    move_one,
    mullineux_crystal,
    mullineux_fast,
)
from focktiles.labels import (
    BlockContext,
    hooks_e,
    is_hook_quotient,
    is_m_increasing,
    modified_basis,
    movements,
    vec_add,
    z_label,
)
from focktiles.polytope import pi_membership


def test_bead_target_examples():
    a = abacus_of(Partition((1,)), 2)  # beta = {0} u {<= -2}
    assert bead_target(a, -1) == 2
    a0 = abacus_of(EMPTY, 2)
    assert bead_target(a0, -2) == 0
    with pytest.raises(MoveError):
        bead_target(a0, 2)  # x - e beyond the last bead


def test_bead_op_moves_one_bead_one_step():
    a = abacus_of(parse_partition("4,2,1"), 3)
    b = bead_op(a, -2)
    assert partition_of(b).size == parse_partition("4,2,1").size + 3


# The k=4, l=5 scenario of the omnibus lemma, transcribed from its figure
# (e = 10, columns 0..9, rows -6..5; position = column + 10 * row).
_OMNIBUS_LEFT = [
    (0, -6), (0, -3), (0, -2),
    (1, -6), (1, -5), (1, -4), (1, -3), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
    (2, -6), (2, -4), (2, -3),
    (3, -6), (3, -5), (3, -4),
    (4, -6), (4, -5), (4, -4), (4, -3), (4, -2), (4, -1), (4, 0), (4, 1), (4, 2), (4, 3),
    (5, -6), (5, -5), (5, -2),
    (6, -6), (6, -5), (6, -4), (6, -3), (6, -2), (6, -1), (6, 0), (6, 4),
    (7, -6), (7, -5), (7, -4), (7, -3), (7, -2), (7, -1), (7, 0), (7, 5),
    (8, -6), (8, -5), (8, -4), (8, -3), (8, -1), (8, 1), (8, 2),
    (9, -6), (9, -1), (9, -2), (9, 3),
]
_OMNIBUS_RIGHT = [
    (0, -6), (0, -3), (0, -2),
    (1, -6), (1, -5), (1, -4), (1, -3), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 5),
    (2, -6), (2, -3), (2, -2),
    (3, -6), (3, -5), (3, -4),
    (4, -6), (4, -5), (4, -4), (4, -3), (4, -2), (4, -1), (4, 0), (4, 1), (4, 2), (4, 4),
    (5, -6), (5, -5), (5, -1),
    (6, -6), (6, -5), (6, -4), (6, -3), (6, -2), (6, -1), (6, 3), (6, 4),
    (7, -6), (7, -5), (7, -4), (7, -3), (7, -2), (7, -1), (7, 0), (7, 5),
    (8, -6), (8, -5), (8, -4), (8, -3), (8, 0), (8, 1), (8, 2),
    (9, -6), (9, -1), (9, -2), (9, 3),
]


def _abacus_from_grid(grid, e=10, first_row=-6):
    occ = {c + e * r for (c, r) in grid}
    low = e * (first_row - 1)
    occ |= set(range(low, e * first_row))
    return Abacus(e, low, sum(1 << (x - low) for x in occ if x >= low))


def test_omnibus_figure_scenario():
    e, k, l, x = 10, 4, 5, 0
    a = _abacus_from_grid(_OMNIBUS_LEFT)
    want = _abacus_from_grid(_OMNIBUS_RIGHT)
    landings = []
    out = bead_op_kl(a, x, k, l, landings=landings)
    assert out == want
    assert landings == [8, -5, -18, -28, 16, 26, 36, 44, 51]
    d = landings
    for i in range(0, k - 1):
        assert d[i + 1] <= d[i] - e
    assert d[k] <= d[0] + e
    for i in range(k, k + l - 1):
        assert d[i + 1] <= d[i] + e
    # total bead count is preserved within the window
    assert len(out.window) + out.base == len(a.window) + a.base


def test_bead_op_kl_single():
    a = abacus_of(parse_partition("4,2,1"), 3)
    assert bead_op_kl(a, -2, 1, 0) == bead_op(a, -2)


def test_move_one_examples():
    lam = parse_partition("7,3,3,2,2,1")
    detail = {}
    nu = move_one(lam, 3, 4, detail=detail)
    assert nu == parse_partition("9,3,2,2,2")
    assert detail["k"] == (detail["q"] - detail["g"]) // 4
    assert detail["l"] == (detail["b"] - detail["q"]) // 4
    assert len(detail["d"]) == detail["k"] + detail["l"]
    mu = move_one(nu, 2, 4)
    assert mu == parse_partition("10,4,2,1,1")
    with pytest.raises(MoveError):
        move_one(parse_partition("7,4,4,1,1,1"), 1, 4)


def test_move_one_postcondition_on_blocks():
    for b in [BlockId(5, EMPTY, 2), BlockId(6, Partition((2, 1)), 2), BlockId(5, Partition((1,)), 3)]:
        ctx = BlockContext(b)
        e = b.e
        for lam in ctx.members():
            if not is_hook_quotient(lam, e):
                continue
            mb = modified_basis(lam, e)
            z = z_label(lam, e)
            for r in range(1, b.weight + 1):
                target = vec_add(z, mb[r - 1])
                if not is_m_increasing(target, 0) or any(t < 0 or t > e - 1 for t in target):
                    continue
                mu = move_one(lam, r, e)
                assert z_label(mu, e) == target
                # starting positions with t not >= r are unchanged
                from focktiles.labels import succ_geq

                q0 = [mv.q for mv in movements(lam, e)]
                q1 = [mv.q for mv in movements(mu, e)]
                for t in range(1, b.weight + 1):
                    if succ_geq(lam, e, t, r):
                        assert q1[t - 1] != q0[t - 1]
                    else:
                        assert q0[t - 1] == q1[t - 1]


def test_move_along():
    lam = parse_partition("7,3,3,2,2,1")
    assert move_along(lam, [2, 3], 4) == parse_partition("10,4,2,1,1")
    assert move_along(lam, [], 4) == lam
    out, trace = move_along(lam, [2, 3], 4, want_trace=True)
    assert [t["partition"] for t in trace] == [[9, 3, 2, 2, 2], [10, 4, 2, 1, 1]]


def test_lambda_of_hook():
    lam = parse_partition("5,5,4,2,2,2,1,1")
    hooks = hooks_e(lam, 4)
    big = next(h for h in hooks if h.size == 12)
    lamH = lambda_of_hook(lam, big, 4)
    assert lamH == parse_partition("6,5,5,2,2,2")
    assert lambda_of_hook(lam, hooks[4], 4) == parse_partition("6,5,3,2,2,2,1,1")
    assert block_of(lamH, 4) == block_of(lam, 4)
    # z(lambda_H) - z(lambda) is the corresponding modified basis vector
    # (checked at the paper's two hook indices, and wholesale on the blocks
    # below whenever the target label is realizable)
    mb = modified_basis(lam, 4)
    assert z_label(lamH, 4) == vec_add(z_label(lam, 4), mb[2])
    assert z_label(lambda_of_hook(lam, hooks[4], 4), 4) == vec_add(z_label(lam, 4), mb[4])
    for b in [BlockId(6, EMPTY, 2), BlockId(5, Partition((1,)), 2)]:
        ctx = BlockContext(b)
        for owner in ctx.members():
            if not is_hook_quotient(owner, b.e):
                continue
            mbo = modified_basis(owner, b.e)
            z = z_label(owner, b.e)
            for r, h in enumerate(hooks_e(owner, b.e), start=1):
                target = vec_add(z, mbo[r - 1])
                if is_m_increasing(target, 0) and all(0 <= t <= b.e - 1 for t in target):
                    out = lambda_of_hook(owner, h, b.e)
                    assert z_label(out, b.e) == target
    with pytest.raises(ValueError):
        lambda_of_hook(parse_partition("3,1"), big, 4)


def test_no_removable_corollary():
    # when lam has no removable bead on runner a and all moves stay in
    # runners a, a-1, the result again has no removable bead on runner a
    from focktiles.fock import removable_beads

    b = BlockId(6, Partition((2, 1)), 2)
    ctx = BlockContext(b)
    e = b.e
    for lam in ctx.members():
        if not is_hook_quotient(lam, e):
            continue
        mvs = movements(lam, e)
        for a in range(e):
            if removable_beads(lam, a, e):
                continue
            gamma = [
                mv.index
                for mv in mvs
                if mv.q % e in (a, (a - 1) % e)
            ]
            if not gamma:
                continue
            target = z_label(lam, e)
            for r in gamma:
                target = vec_add(target, modified_basis(lam, e)[r - 1])
            if not is_m_increasing(target, 4) or any(t < 0 or t > e - 1 for t in target):
                continue
            mu = move_along(lam, gamma, e)
            assert not removable_beads(mu, a, e)


def test_mullineux_crystal_properties():
    assert mullineux_crystal(EMPTY, 3) == EMPTY
    for n in range(0, 11):
        for lam in all_partitions(n):
            if is_e_regular(lam, 2):
                assert mullineux_crystal(lam, 2) == lam
    from focktiles.abacus import core_of, weight_of

    for n in range(0, 11):
        for lam in all_partitions(n):
            for e in (3, 4):
                if not is_e_regular(lam, e):
                    continue
                m = mullineux_crystal(lam, e)
                assert m.size == lam.size
                assert mullineux_crystal(m, e) == lam
                assert core_of(m, e) == conjugate(core_of(lam, e))
                assert weight_of(m, e) == weight_of(lam, e)


def test_mullineux_long_crystal_strings():
    # (600) peels off hundreds of crystal strings before it reaches the empty
    # partition, more than the interpreter's recursion limit allows
    lam = Partition((600,))
    m = mullineux_crystal(lam, 3)
    assert is_e_regular(m, 3) and m.size == 600
    assert mullineux_crystal(m, 3) == lam


def test_mullineux_label_symmetry():
    for n in range(0, 15):
        for lam in all_partitions(n):
            for e in (3, 4):
                if not is_e_regular(lam, e):
                    continue
                z = z_label(lam, e)
                if z and is_m_increasing(z, 0):
                    assert z_label(mullineux_crystal(lam, e), e) == tuple(
                        e - t for t in reversed(z)
                    )


def test_mullineux_fast_agrees():
    b = BlockId(9, EMPTY, 2)
    ctx = BlockContext(b)
    hits = 0
    for lam in ctx.members():
        z = ctx.z_map()[lam]
        if is_m_increasing(z, 4) and is_e_regular(lam, 9):
            assert mullineux_fast(lam, 9) == mullineux_crystal(lam, 9)
            hits += 1
    assert hits > 0
    with pytest.raises(ValueError):
        mullineux_fast(parse_partition("2,2,2"), 3)


def test_mullineux_quotient_reversal():
    from focktiles.abacus import rouquier_charge
    from focktiles.canonical import shifted_quotient

    b = BlockId(4, core_from_levels((0, 1, 2, 3), 4), 2)
    c = rouquier_charge(b)
    for lam in enumerate_block(b):
        z = z_label(lam, 4)
        if not (is_m_increasing(z, 0) and is_e_regular(lam, 4)):
            continue
        q = shifted_quotient(lam, 4, c)
        if not all(x.parts == (1,) * len(x.parts) for x in q):
            continue
        qm = shifted_quotient(mullineux_crystal(lam, 4), 4, c)
        assert list(qm) == [q[0]] + [q[i] for i in range(3, 0, -1)]


def test_mullineux_distance_complement():
    # d_lam(mu) + d_lam'(mu*) = w whenever z(mu) lies in Pi(lam)
    b = BlockId(9, EMPTY, 2)
    ctx = BlockContext(b)
    e, w = b.e, b.weight
    for lam in ctx.members():
        if not is_hook_quotient(lam, e):
            continue
        for mu in ctx.members():
            zmu = ctx.z_map()[mu]
            if not (is_e_regular(mu, e) and is_m_increasing(zmu, 0)):
                continue
            g = pi_membership(lam, zmu, e)
            mus = mullineux_crystal(mu, e)
            g2 = pi_membership(conjugate(lam), z_label(mus, e), e)
            assert (g is None) == (g2 is None)
            if g is not None:
                assert len(g) + len(g2) == w
