"""A `dnum` batch answers what the single queries answer: a `--method
inductive` batch with one engine per e and each column unpacked once per
mu; every answer is one write, and the batch's state is bounded."""

import io
import os
import subprocess
import sys
from collections import Counter

import pytest

from focktiles import cli
from focktiles.abacus import block_of
from focktiles.canonical import InductiveEngine
from focktiles.labels import BlockContext, is_m_increasing, z_label
from focktiles.partitions import format_partition, is_e_regular, parse_partition
from focktiles.verify import rouquier_block


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


class _CountedWrites(io.StringIO):
    """A text stream that keeps each write call's text."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


def _batch(argv, stdin):
    out, err = _CountedWrites(), _CountedWrites()
    saved = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
    try:
        code = cli.run(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = saved
    return code, out, err


# good lines, a blank line, a malformed line, a partition token that does
# not parse and, at e = 2, an e-singular mu that LLT refuses
STDIN = "2,1;3\n3;3\n\nbad;line\n3,1,1;5\n2,1\n2;2,2\n3,1,1;5\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_each_answer_is_one_write(json_flag):
    # print writes a text and its newline apart: two system calls per answer
    # when stdout is unbuffered
    code, out, err = _batch(json_flag + ["dnum", "--e", "2", "--method", "llt"], STDIN)
    assert code == 1
    assert len(out.calls) == len(out.getvalue().splitlines()) == 7
    assert len(err.calls) == len(err.getvalue().splitlines()) == 3
    assert all(t.endswith("\n") and t.count("\n") == 1 for t in out.calls + err.calls)
    # a single query, and its refusal, write once as well
    code, out, err = _batch(json_flag + ["dnum", "--e", "2", "--method", "llt", "3,1,1", "5"], "")
    assert code == 0 and len(out.calls) == 1 and not err.calls
    code, out, err = _batch(json_flag + ["dnum", "--e", "2", "--method", "llt", "2", "2,2"], "")
    assert code == 1 and not out.calls and err.calls == ["error: llt_G requires an e-regular partition\n"]


def test_unbuffered_output_is_byte_identical():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = {}
    for unbuffered in (False, True):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for flags in ([], ["--json"]):
            for method in ("closed", "llt", "rouquier"):
                proc = subprocess.run(
                    [sys.executable, "-m", "focktiles.cli"] + flags + ["dnum", "--e", "2", "--method", method],
                    input=STDIN, env=env, capture_output=True, text=True, timeout=120,
                )
                runs.setdefault((tuple(flags), method), []).append((proc.returncode, proc.stdout, proc.stderr))
    for (flags, method), (plain, unbuffered) in runs.items():
        assert plain == unbuffered, (flags, method)
        code, out, err = _batch(list(flags) + ["dnum", "--e", "2", "--method", method], STDIN)
        assert plain == (code, out.getvalue(), err.getvalue()), (flags, method)
        assert plain[0] == 1 and plain[2].count("\n") >= 2


@pytest.mark.parametrize("method", ["closed", "llt", "rouquier", "inductive"])
def test_batch_state_is_bounded(method, monkeypatch):
    # engines (the Rouquier block contexts, the inductive engine, the LLT
    # store and each mu's answer) is cleared when it holds FACTS_MAXSIZE entries; at a
    # bound of 2 the answers are those of an unbounded batch
    e = 6
    members = BlockContext(rouquier_block(e, 2)).members()
    if method in ("closed", "inductive"):
        mus = [mu for mu in members if is_m_increasing(z_label(mu, e), 4)]
    else:
        mus = [mu for mu in members if method == "rouquier" or is_e_regular(mu, e)]
    lines = ["%s;%s" % (format_partition(lam), format_partition(mu)) for lam in members[::3] for mu in mus]
    lines[len(lines) // 2:len(lines) // 2] = ["1;" + format_partition(mus[0]), "bad;line"]
    stdin = "\n".join(lines) + "\n"
    argv = ["dnum", "--e", str(e), "--method", method]
    want = _batch(argv, stdin)
    sizes, resolved = [], []
    real_one, real_column = cli._dnum_one, cli._column_of

    def spy_one(lam, mu, e, method, engines):
        try:
            return real_one(lam, mu, e, method, engines)
        finally:
            sizes.append(len(engines))

    def spy_column(mu, *args):
        resolved.append(mu)
        return real_column(mu, *args)

    monkeypatch.setattr(cli, "_dnum_one", spy_one)
    monkeypatch.setattr(cli, "_column_of", spy_column)
    monkeypatch.setattr(cli, "FACTS_MAXSIZE", 2)
    got = _batch(argv, stdin)
    assert len(mus) >= 3 and want[0] == got[0] == 1
    assert (want[1].getvalue(), want[2].getvalue()) == (got[1].getvalue(), got[2].getvalue())
    # each clear makes the next lines resolve their mu again; the state never
    # holds more than the bound plus the one block context, engine or store
    # that a new mu adds
    assert len(resolved) > len(mus) and max(sizes) <= 2 + 1
