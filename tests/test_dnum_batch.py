"""A `dnum --method inductive` batch answers what the single queries answer,
with one engine per e and each column unpacked once per block."""

import io
import sys
from collections import Counter

from focktiles import cli
from focktiles.abacus import block_of
from focktiles.canonical import InductiveEngine
from focktiles.labels import BlockContext, is_m_increasing
from focktiles.partitions import format_partition, parse_partition


def _run(argv, stdin=""):
    out = io.StringIO()
    saved = sys.stdout, sys.stdin
    sys.stdout, sys.stdin = out, io.StringIO(stdin)
    try:
        assert cli.run(argv) == 0
    finally:
        sys.stdout, sys.stdin = saved
    return out.getvalue().splitlines()


def test_inductive_batch_matches_single_queries_and_unpacks_each_mu_once(monkeypatch):
    e = 10
    ctx = BlockContext(block_of(parse_partition("17,7,2^4,1^5"), e))
    mus = [mu for mu in ctx.members() if is_m_increasing(ctx.z_map()[mu], 4)]
    lams = ctx.members()[::40] + [parse_partition("1")]  # the last lies in another block
    # mu changes on every line, so a batch that kept only the last column
    # would unpack each mu again
    pairs = [(format_partition(lam), format_partition(mu)) for lam in lams for mu in mus]
    argv = ["dnum", "--e", str(e), "--method", "inductive"]
    single = [line for lam, mu in pairs for line in _run(argv + [lam, mu])]

    built = []

    class Counted(InductiveEngine):
        def __init__(self, e):
            super().__init__(e)
            self.unpacked = Counter()
            built.append(self)

        def column(self, mu):
            self.unpacked[mu] += 1
            return super().column(mu)

    monkeypatch.setattr(cli, "InductiveEngine", Counted)
    batch = _run(argv, "".join("%s;%s\n" % pair for pair in pairs))
    assert len(pairs) == 40 and batch == single
    assert len(built) == 1 and built[0].unpacked == Counter(mus)
