"""The benchmark's worker (`perfbench/worker.py`) and its reference builder
read columns and numbers through the library's output boundary: `llt_G` and
`InductiveEngine.column` return Fock vectors, whose `.terms` map partitions
to Laurent polynomials, and `rouquier_d` and `d_closed` return Laurent
polynomials.  A refactor of the routes' internal column format must keep
this boundary, or the benchmark breaks unseen."""

import importlib.util
from pathlib import Path

from focktiles.abacus import BlockId
from focktiles.canonical import InductiveEngine, llt_G, rouquier_d
from focktiles.labels import BlockContext, is_m_increasing
from focktiles.laurent import LaurentPoly
from focktiles.partitions import EMPTY, format_partition, is_e_regular
from focktiles.polytope import d_closed
from focktiles.verify import rouquier_block

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _worker():
    """perfbench/worker.py loaded by path; its top level imports only the
    standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_reads_llt_and_scopes_columns():
    column = _worker()._column
    e = 6
    ctx = BlockContext(BlockId(e, EMPTY, 2))
    mus = [mu for mu in ctx.members() if is_m_increasing(ctx.z_map()[mu], 4)]
    assert len(mus) == 3 and any(is_e_regular(mu, e) for mu in mus)
    for mu in mus:
        # the closed formula, as the printed text the worker compares
        want = {format_partition(lam): str(d) for lam in ctx.members() if (d := d_closed(lam, mu, e))}
        assert column(InductiveEngine(e).column(mu)) == want, mu
        if is_e_regular(mu, e):
            assert column(llt_G(mu, e, ctx)) == want, mu


def test_rouquier_d_and_d_closed_return_laurent_polynomials():
    b = rouquier_block(3, 2)
    members = BlockContext(b).members()
    mu = members[0]
    values = [rouquier_d(lam, mu, b) for lam in members] + [d_closed(lam, mu, 3) for lam in members]
    assert all(type(v) is LaurentPoly for v in values)
    assert any(values) and not all(values)  # nonzero and zero answers alike
