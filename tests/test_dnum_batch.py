"""A `dnum` batch answers what the single queries answer: a `--method
inductive` batch with one engine per e and each column unpacked once per
mu; the first answer is one write and then each chunk of input is one,
its output is what one write per answer gave, byte for byte, and the
batch's state is bounded."""

import hashlib
import io
import os
import select
import subprocess
import sys
from collections import Counter

import pytest

from focktiles import canonical, cli
from focktiles.abacus import block_of
from focktiles.canonical import InductiveEngine, rouquier_d
from focktiles.labels import BlockContext, is_m_increasing, z_label
from focktiles.partitions import format_partition, is_e_regular, parse_partition
from focktiles.verify import rouquier_block

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_a_rouquier_batch_builds_each_column_once(monkeypatch):
    # mu changes on every line; each mu is resolved once into lam -> d(q),
    # so rouquier_column runs once per distinct mu, not once per line
    e = 4
    b = rouquier_block(e, 2)
    members = BlockContext(b).members()
    pairs = [(lam, mu) for lam in members[::2] for mu in members]
    argv = ["dnum", "--e", str(e), "--method", "rouquier"]
    want = [str(rouquier_d(lam, mu, b)) for lam, mu in pairs]
    calls = Counter()
    real = canonical.rouquier_column
    monkeypatch.setattr(canonical, "rouquier_column", lambda mu, *a: calls.update([mu]) or real(mu, *a))
    got = _run(argv, "".join("%s;%s\n" % (format_partition(lam), format_partition(mu)) for lam, mu in pairs))
    assert got == want and len(pairs) > 2 * len(members)
    assert calls == Counter(members)


class _Untouched:
    """A stdin that fails the test when anything reads it."""

    def __getattr__(self, name):
        raise AssertionError("stdin was touched (%s)" % name)


@pytest.mark.parametrize("argv", [["dnum", "--e", "2", "3"], ["dnum", "3", "--e", "2"],
                                  ["dnum", "--e", "2", "--method", "llt", "2,1"]])
def test_a_half_given_pair_is_a_usage_error(argv):
    # lambda without mu (in either order of the option and the partition)
    # is refused before stdin is read, not taken for a stdin batch
    code, out, err = _batch(argv, _Untouched())
    assert code == 2 and out.getvalue() == ""
    assert "dnum takes both lambda and mu" in err.getvalue()
    # as a command: a line on stdin is not answered
    done = _cli(argv, b"2,1;3\n", capture_output=True)
    assert (done.returncode, done.stdout) == (2, b"") and b"dnum takes both" in done.stderr


class _CountedWrites(io.StringIO):
    """A text stream that keeps each write call's text."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


def _batch(argv, stdin):
    """Run argv in-process on stdin, a text or a text stream."""
    out, err = _CountedWrites(), _CountedWrites()
    saved = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin) if isinstance(stdin, str) else stdin
    try:
        code = cli.run(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = saved
    return code, out, err


# good lines, a blank line, a malformed line, a partition token that does
# not parse and, at e = 2, an e-singular mu that LLT refuses
STDIN = "2,1;3\n3;3\n\nbad;line\n3,1,1;5\n2,1\n2;2,2\n3,1,1;5\n"

CHUNK = 1 << 16  # the most one read of stdin returns


def _three_chunks():
    """stdin bytes of a batch over three chunks: lines of the (6,2) Rouquier
    block at e = 6, mu running over its three 4-increasing members (two of
    them e-singular) and two e-regular ones, with CRLF endings in every
    third round, a blank and a white line per round, a malformed line and
    a lambda of another block in some rounds, and no final newline."""
    e = 6
    members = BlockContext(rouquier_block(e, 2)).members()
    mus = [mu for mu in members if is_m_increasing(z_label(mu, e), 4)] + members[:2]
    pairs = ["%s;%s" % (format_partition(lam), format_partition(mu)) for lam in members for mu in mus]
    text = ""
    for r in range(24):
        end = "\r\n" if r % 3 == 0 else "\n"
        text += "".join(pair + end for pair in pairs[r:] + pairs[:r]) + "\n  \r\n"
        if r % 7 == 3:
            text += "bad;line\n1;%s\n" % format_partition(mus[0])
    return (text + pairs[0]).encode()


THREE_CHUNKS = _three_chunks()


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_batch_writes_its_first_answer_alone_then_a_chunk_at_a_time(json_flag, tmp_path):
    argv = json_flag + ["dnum", "--e", "6", "--method", "rouquier"]
    path = tmp_path / "stdin.txt"
    chunks = -(-len(THREE_CHUNKS) // CHUNK)
    runs = []
    # a partial last line is known to be whole only when a read finds the
    # end of input, after the last chunk's answers are written: one more write
    for stdin, extra in ((THREE_CHUNKS + b"\n", 0), (THREE_CHUNKS, 1)):
        path.write_bytes(stdin)
        with open(path, encoding="utf-8") as fh:
            code, out, err = _batch(argv, fh)
        errors = len(err.calls)
        assert code == 1 and chunks >= 3 and errors == len(err.getvalue().splitlines()) > 0
        # the first answer is a write of its own, the others come a chunk at a time
        assert out.calls[0] == out.getvalue().splitlines(True)[0]
        assert len(out.calls) <= chunks + errors + 1 + extra < len(out.getvalue().splitlines()) // 100
        # print writes a text and its newline apart: two system calls per
        # answer when stdout is unbuffered
        assert all(t.endswith("\n") and t != "\n" for t in out.calls + err.calls)
        runs.append((out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    # an in-memory stream is one chunk, with the same answers
    code, out, err = _batch(argv, THREE_CHUNKS.decode())
    assert (code, out.getvalue(), err.getvalue()) == (1,) + runs[0]
    assert len(out.calls) <= 1 + len(err.calls) + 1
    # a single query, and its refusal, write once
    code, out, err = _batch(json_flag + ["dnum", "--e", "2", "--method", "llt", "3,1,1", "5"], "")
    assert code == 0 and len(out.calls) == 1 and not err.calls
    code, out, err = _batch(json_flag + ["dnum", "--e", "2", "--method", "llt", "2", "2,2"], "")
    assert code == 1 and not out.calls and err.calls == ["error: llt_G requires an e-regular partition\n"]


def test_unbuffered_output_is_byte_identical():
    runs = {}
    for unbuffered in (False, True):
        env = dict(os.environ, PYTHONPATH=SRC)
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


def _cli(argv, stdin, env=None, **kw):
    """A fresh `python -m focktiles.cli` process on stdin (bytes, or a file
    object), stdout unbuffered as the benchmark reads it."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1", **(env or {}))
    feed = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    return subprocess.run([sys.executable, "-m", "focktiles.cli"] + argv, env=env, timeout=120, **feed, **kw)


# (flags, method): exit code and the SHA-256 of stdout, of stderr and of
# both merged (2>&1) over THREE_CHUNKS, as the CLI wrote one answer a write
PINNED_BATCHES = {
    ((), "closed"): (1, "829e0ae0f1ff951f2054d5ffe42dc5fc33650d72c4cbed94265307e687e899c4",
                        "0aa89b4d486be7fa2735671e2ac1793e6f9ee65de23bdf28545184b04d2eec13",
                        "6d2988f9eb3e99cb6565451ac1aa05338bc19cb30c132a802cad797825423ff8"),
    ((), "llt"): (1, "a72b43ba39d2e872b4256de828ca0d342c54e6eb554eaaec2e586fefe68b7e75",
                     "6cdc788954d4ce3ab497e6d86e53851a957a06c7e8a9854ef407e1511706c14d",
                     "3e6b31899693e23c1d557f8f987dd01dc5ea7602f2fb42c936c2999ce1a4337b"),
    ((), "rouquier"): (1, "9be2e81e6c27dc9c51ee635dd2e6cb7e819a9ddf77fd38ccce6eb3123d2b0897",
                          "0835dbffdeea41a4eabcbd8a656e3c27bd368671eec9ba3118197798e08ccc33",
                          "7e784f795d216572bdccf7df03c2e4f5207ee0cc17332668e71fa2cf79f07e89"),
    ((), "inductive"): (1, "829e0ae0f1ff951f2054d5ffe42dc5fc33650d72c4cbed94265307e687e899c4",
                           "f07dd5b6fe8a348668efa425dbd31f7aa61e707f45b0e4ebe89cc7b390bf201e",
                           "61cf65e7b4770b719e79272457fe37aaaa55167259edef5cd29bf372188795e4"),
    (("--json",), "closed"): (1, "30248215b1f312244208f93853790503d838612f9279e7dbe08ff1e00a272539",
                                 "0aa89b4d486be7fa2735671e2ac1793e6f9ee65de23bdf28545184b04d2eec13",
                                 "3d736d7c01987288c0afeb29282da6368733a7a028ee323bd00d2c6417c1cbee"),
    (("--json",), "llt"): (1, "3476583e1808ea2aca5de4466cb3047b3c8b30bfe1d0675130f97462bc5ffc2d",
                              "6cdc788954d4ce3ab497e6d86e53851a957a06c7e8a9854ef407e1511706c14d",
                              "44fea61c7a37a7e07e988bc193ce0e8d8eddbe36987dda82365cd1d16f65cef7"),
    (("--json",), "rouquier"): (1, "0f753c2aef9f2047056f49d7859649b152c6c2be172fb18b561bb7b02e3ec092",
                                   "0835dbffdeea41a4eabcbd8a656e3c27bd368671eec9ba3118197798e08ccc33",
                                   "eca863907cbcb721ae787ff8adf8ea34daba18ec6907b272be85277297178481"),
    (("--json",), "inductive"): (1, "c96ac3d33294e5cfeff17332e2ca5d3aafbbc429271f1a63cc665c9f76c70234",
                                    "f07dd5b6fe8a348668efa425dbd31f7aa61e707f45b0e4ebe89cc7b390bf201e",
                                    "5b493ee3e742b95ccdc5f72139310229c70e82c7de07d2b1f19c86196fa814a8"),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_a_batch_over_three_chunks_is_pinned(tmp_path):
    # one line straddles the first chunk boundary
    assert 2 * CHUNK < len(THREE_CHUNKS) < 3 * CHUNK and b"\n" not in THREE_CHUNKS[CHUNK - 1:CHUNK + 1]
    path = tmp_path / "stdin.txt"
    path.write_bytes(THREE_CHUNKS)
    for (flags, method), want in PINNED_BATCHES.items():
        argv = list(flags) + ["dnum", "--e", "6", "--method", method]
        with open(path, "rb") as stdin:
            apart = _cli(argv, stdin, capture_output=True)
        with open(path, "rb") as stdin:
            merged = _cli(argv, stdin, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        got = (apart.returncode, _sha(apart.stdout), _sha(apart.stderr), _sha(merged.stdout))
        assert got == want, (flags, method)


def test_an_undecodable_line_is_that_lines_error():
    stdin = b"2,1;3\n\xff;3\n3;3\n"
    argv = ["dnum", "--e", "2", "--method", "llt"]
    strict = _cli(argv, stdin, env={"PYTHONIOENCODING": "utf-8:strict"}, capture_output=True)
    assert (strict.returncode, strict.stdout, strict.stderr) == (
        1, b"0\nerror\n1\n",
        b"error: line 2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")
    # surrogateescape, the POSIX locale's default, decodes the byte to a
    # surrogate, which the partition parser refuses
    escaped = _cli(argv, stdin, env={"PYTHONIOENCODING": "utf-8:surrogateescape"}, capture_output=True)
    assert (escaped.returncode, escaped.stdout, escaped.stderr) == (
        1, b"0\nerror\n1\n", b"error: line 2: bad partition token '\\udcff'\n")


def test_an_interactive_batch_answers_each_line_before_the_next():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "focktiles.cli", "dnum", "--e", "2", "--method", "llt"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, bufsize=0)
    try:
        for line, want in (("2,1;3", b"0\n"), ("bad;line", b"error\n"), ("3;3", b"1\n"), ("3,1,1;5", b"q\n")):
            # the next line is sent only once this one is answered
            proc.stdin.write(line.encode() + b"\n")
            got = b""
            while not got.endswith(b"\n"):
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                assert ready, "no answer to %r within 60 s" % line
                got += os.read(proc.stdout.fileno(), 4096)
            assert got == want, line
        proc.stdin.close()
        assert proc.wait(timeout=60) == 1 and proc.stdout.read() == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


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
