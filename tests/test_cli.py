import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from focktiles import cli
from focktiles.abacus import block_of
from focktiles.canonical import rouquier_column
from focktiles.cli import run
from focktiles.fock import unpack
from focktiles.labels import BlockContext, is_m_increasing, z_label
from focktiles.partitions import format_partition, parse_partition
from focktiles.verify import rouquier_block


def _capture(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_paper_examples():
    code, out, _ = _capture(["dnum", "--e", "10", "16,8,1^13", "17,7,2^4,1^5"])
    assert code == 0 and out.strip() == "q^2"
    code, out, _ = _capture(["zlabel", "--e", "4", "5,5,4,2,2,2,1,1"])
    assert code == 0 and out.strip() == "[1,1,2,2,1]"
    code, out, _ = _capture(["core", "--e", "4", "5,5,4,2,2,2,1,1"])
    assert code == 0 and out.strip() == "[2]"


def test_methods_agree():
    for method in ("closed", "llt", "inductive"):
        code, out, _ = _capture(
            ["dnum", "--e", "10", "--method", method, "16,8,1^13", "17,7,2^4,1^5"]
        )
        assert code == 0 and out.strip() == "q^2"
    code, out, _ = _capture(["dnum", "--e", "2", "--method", "rouquier", "3,1,1", "5"])
    assert code == 0 and out.strip() == "q"


def test_batch_stdin():
    code, out, _ = _capture(
        ["dnum", "--e", "2", "--method", "rouquier"],
        stdin="3,1,1;5\n3,2;5\n",
    )
    assert code == 0
    assert out.splitlines() == ["q", "0"]
    # every pair of one block, with a lambda of another block and a malformed
    # line in the middle: the block's columns are shared across the batch
    b = rouquier_block(4, 2)
    ctx = BlockContext(b)
    pairs = [(lam, mu) for mu in ctx.members() for lam in ctx.members()]
    lines = [format_partition(lam) + ";" + format_partition(mu) for lam, mu in pairs]
    half = len(lines) // 2
    lines[half:half] = ["1;" + format_partition(pairs[half][1]), "bad;line"]
    code, out, _ = _capture(["dnum", "--e", "4", "--method", "rouquier"], stdin="\n".join(lines) + "\n")
    want = [str(unpack(rouquier_column(mu, b)[1]).coeff(lam)) for lam, mu in pairs]
    want[half:half] = ["error", "error"]
    assert code == 1
    assert out.splitlines() == want


def test_batch_survives_bad_lines():
    # a bad line answers "error" in its place and the batch goes on
    code, out, err = _capture(
        ["dnum", "--e", "2", "--method", "llt"],
        stdin="2,1;3\nbad;line\n3;3\n\n2,1\n1;1;1\n3,1,1;5\n",
    )
    assert code == 1
    assert out.splitlines() == ["0", "error", "1", "error", "error", "q"]
    errs = err.splitlines()
    assert len(errs) == 3
    assert errs[0].startswith("error: line 2: ")
    assert errs[1] == "error: line 5: expected 'lambda;mu', got '2,1'"
    assert errs[2] == "error: line 6: expected 'lambda;mu', got '1;1;1'"
    code, out, err = _capture(["dnum", "--e", "2", "--method", "llt"], stdin="3;3\n3,1,1;5\n")
    assert code == 0 and out.splitlines() == ["1", "q"] and not err


def test_llt_batch_looks_up_each_block_once(monkeypatch):
    # a `dnum --method llt` batch builds each mu's column through the batch's
    # one column store, which is keyed by abaci, so it looks up no block
    from focktiles import canonical

    seen = []
    for mod in (cli, canonical):
        monkeypatch.setattr(mod, "block_of", lambda lam, e, _f=mod.block_of: seen.append(lam) or _f(lam, e))
    code, out, err = _capture(["dnum", "--e", "2", "--method", "llt"], stdin="2,1;3\n3;3\n3,1,1;5\n2;2,2\n")
    assert seen == []
    assert code == 1 and out.splitlines() == ["0", "1", "q", "error"]
    assert err == "error: line 4: llt_G requires an e-regular partition\n"


def test_batch_json():
    # with --json each non-empty line answers one object, a pair as its
    # single query does; stderr and the exit code stay those of the batch
    argv = ["dnum", "--e", "2", "--method", "llt"]
    stdin = "2,1;3\n3;3\nbad;line\n\n3,1,1;5\n"
    code, out, err = _capture(["--json"] + argv, stdin=stdin)
    assert (code, err) == _capture(argv, stdin=stdin)[::2]
    singles = [json.loads(_capture(["--json"] + argv + pair.split(";"))[1])
               for pair in ("2,1;3", "3;3", "3,1,1;5")]
    assert [json.loads(line) for line in out.splitlines()] == (
        singles[:2] + [{"error": "bad partition token 'bad'"}] + singles[2:]
    )
    assert singles == [{"d": []}, {"d": [[0, 1]]}, {"d": [[1, 1]]}]


def _batch_lines():
    """Pairs of the e = 10 block of (17,7,2^4,1^5), each twice, its
    partitions written once with exponents and once without (2^2,1 and
    2,2,1), with malformed lines and a pair across two blocks in the middle."""
    mu0 = parse_partition("17,7,2^4,1^5")
    members = BlockContext(block_of(mu0, 10)).members()
    mus = [mu for mu in members if is_m_increasing(z_label(mu, 10), 4)]
    pairs = [(lam, mu) for lam in members[::30] for mu in mus]

    def spell(lam, plain):
        return ",".join(map(str, lam.parts)) if plain else format_partition(lam)

    lines = [spell(lam, k % 2) + ";" + spell(mu, not k % 2) for k, (lam, mu) in enumerate(pairs)]
    lines += [spell(lam, not k % 2) + ";" + spell(mu, k % 2) for k, (lam, mu) in enumerate(pairs)]
    half = len(lines) // 2
    lines[half:half] = ["bad;line", "1;1;1", "3,1;" + format_partition(mu0)]
    return lines


@pytest.mark.parametrize("method", ["closed", "llt"])
def test_batch_answers_as_single_calls(method, monkeypatch):
    lines = _batch_lines()
    assert {"17,7,2^4,1^5", "17,7,2,2,2,2,1,1,1,1,1"} <= {t for line in lines for t in line.split(";")}
    seen = {}
    intern = cli._intern

    def spy(labels, text):
        lam = intern(labels, text)
        seen.setdefault(text, []).append(lam)
        return lam

    monkeypatch.setattr(cli, "_intern", spy)
    argv = ["dnum", "--e", "10", "--method", method]
    code, out, _ = _capture(argv, stdin="\n".join(lines) + "\n")
    monkeypatch.undo()
    single = {}
    for line in dict.fromkeys(lines):
        parts = line.split(";")
        c, o, _ = _capture(argv + parts) if len(parts) == 2 else (1, "", "")
        single[line] = o.strip() if c == 0 else "error"
    assert code == 1
    assert out.splitlines() == [single[line] for line in lines]
    # equal texts give one object, so lookups downstream hit on identity
    assert sum(map(len, seen.values())) > len(seen)
    assert all(x is objs[0] for objs in seen.values() for x in objs)


def test_batch_label_memo_is_bounded(monkeypatch):
    lines = [line for line in _batch_lines() if line.count(";") == 1 and "bad" not in line]
    argv = ["dnum", "--e", "10"]
    _, want, _ = _capture(argv, stdin="\n".join(lines) + "\n")
    sizes, parsed = [], []
    intern, parse = cli._intern, cli.parse_partition

    def spy_intern(labels, text):
        lam = intern(labels, text)
        sizes.append(len(labels))
        return lam

    def spy_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "_intern", spy_intern)
    monkeypatch.setattr(cli, "parse_partition", spy_parse)
    texts = {t for line in lines for t in line.split(";")}
    _, out, _ = _capture(argv, stdin="\n".join(lines) + "\n")
    assert out == want
    assert len(parsed) == len(texts)
    del parsed[:], sizes[:]
    monkeypatch.setattr(cli, "FACTS_MAXSIZE", 3)
    _, out, _ = _capture(argv, stdin="\n".join(lines) + "\n")
    assert out == want
    # texts are parsed again after each clear, and the memo stays bounded
    assert len(parsed) > len(texts)
    assert max(sizes) == 3


def test_deep_recursion_is_refused(monkeypatch):
    def deep(lam, e):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "z_label", deep)
    code, out, err = _capture(["zlabel", "--e", "4", "5,5,4,2,2,2,1,1"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verbs():
    code, out, _ = _capture(["quotient", "--e", "4", "7,3,3,2,2,1"])
    assert code == 0 and out.strip() == "[[1],[],[2,1],[]]"
    code, out, _ = _capture(["epsilon", "--e", "10", "16,8,1^13"])
    assert code == 0 and out.strip() == "[[1,-1,0],[0,1,0],[0,-1,1]]"
    code, out, _ = _capture(["pi", "--e", "10", "16,8,1^13", "1,5,9"])
    assert code == 0 and out.strip() == "[1,3]"
    code, out, _ = _capture(["pi", "--e", "10", "16,8,1^13", "9,9,9"])
    assert code == 0 and out.strip() == "null"
    code, out, _ = _capture(["hatz", "--e", "2", "5"])
    assert code == 0 and json.loads(out) == {"diag": [1, 2], "upper": [[1, 2, 1]]}
    code, out, _ = _capture(["moveone", "--e", "4", "7,3,3,2,2,1", "3"])
    assert code == 0 and out.strip() == "[9,3,2,2,2]"
    code, out, _ = _capture(["movealong", "--e", "4", "7,3,3,2,2,1", "2,3"])
    assert code == 0 and out.strip() == "[10,4,2,1,1]"
    code, out, _ = _capture(["lambdah", "--e", "4", "5,5,4,2,2,2,1,1", "3"])
    assert code == 0 and out.strip() == "[6,5,5,2,2,2]"
    code, out, _ = _capture(["mullineux", "--e", "2", "3,1"])
    assert code == 0 and out.strip() == "[3,1]"
    code, out, _ = _capture(["block", "--e", "2", "1", "2"])
    assert code == 0 and len(out.splitlines()) == 5
    code, out, _ = _capture(["gcolumn", "--e", "2", "--method", "llt", "5"])
    doc = json.loads(out)
    assert doc["block"] == {"e": 2, "core": [1], "weight": 2}
    assert doc["columns"][0]["method"] == "llt"
    assert len(doc["columns"][0]["entries"]) == 3


def test_tiling_outputs():
    code, out, _ = _capture(["tiling", "--e", "6", "0", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == 6 and doc["weight"] == 2
    code, svg, _ = _capture(["tiling", "--e", "6", "0", "2", "--format", "svg"])
    assert code == 0 and svg.startswith("<svg")
    # byte-identical across runs
    code2, out2, _ = _capture(["tiling", "--e", "6", "0", "2", "--format", "json"])
    assert out == out2


def test_exit_codes():
    code, _, err = _capture(["dnum", "--e", "2", "--method", "rouquier", "4,1", "5"])
    assert code == 1 and "error" in err
    code, _, _ = _capture(["frobnicate"])
    assert code == 2
    code, _, _ = _capture(["dnum"])
    assert code == 2
    code, _, err = _capture(["mullineux", "--e", "3", "2,2,2"])
    assert code == 1
    # z(8) = (4,3) is not 4-increasing: the closed formula is out of its
    # theorem there (it would print q^2; LLT gives 0), so both verbs refuse
    code, out, err = _capture(["dnum", "--e", "4", "4,4", "8"])
    assert code == 1 and out == "" and err.startswith("error:")
    code, out, err = _capture(["gcolumn", "--e", "4", "--method", "closed", "8"])
    assert code == 1 and out == "" and err.startswith("error:")


def test_rouquier_refusal_names_the_block():
    code, out, err = _capture(["gcolumn", "--e", "3", "--method", "rouquier", "3,2,1"])
    assert code == 1 and out == ""
    assert err == "error: BlockId(e=3, core=Partition(()), weight=2) is not a Rouquier block\n"


def test_moveone_index_out_of_range():
    # (7,3,3,2,2,1) has w = 4 movements at e = 4
    for r in ("0", "5"):
        code, out, err = _capture(["moveone", "--e", "4", "7,3,3,2,2,1", r])
        assert code == 1 and out == ""
        assert err == "error: movement index out of range\n"


# CLI outputs, pinned byte for byte; the long ones by their SHA-256, and a
# refusal by its stderr line (exit 1, no stdout).
PINNED = [
    (["hatz", "--e", "4", "7,3,3,2,2,1"],
     '{"diag": [0, 1, 2, 4], "upper": [[1, 2, 1], [2, 3, 1], [3, 4, 1]]}\n'),
    (["hatz", "--e", "10", "17,7,2^4,1^5"], '{"diag": [0, 6, 9], "upper": [[1, 2, 1]]}\n'),
    (["epsilon", "--e", "4", "7,3,3,2,2,1"], "[[1,0,-1,0],[0,1,0,0],[0,0,1,0],[0,0,-1,1]]\n"),
    (["epsilon", "--e", "10", "17,7,2^4,1^5"], "[[1,0,0],[0,1,0],[0,0,1]]\n"),
    (["hatz", "--e", "2", "2000"],
     "56c68f0537360af9c50a24cf22d80ca2aeb604ef82a46b8a5e77a9b6efa740b8"),
    (["tiling", "--e", "17", "5,3,1", "2"],
     "9ec271fc62d1b93cf8d90838e731400025945bdd860e6a63c84610584d6896b3"),
    (["tiling", "--e", "25", "15,1^14", "3"],
     "7fd30f1d9bd948c6b4b21802564f6e4ef86ed0141a3f0d2482b14c57c09774dd"),
    (["tiling", "--e", "17", "5,3,1", "2", "--format", "svg"],
     "68b2f2ffc572315b9237706e509be95d19872da15b2a6c432674a87a26bb8c4b"),
    (["core", "--e", "4", "5,5,4,2,2,2,1,1"], "[2]\n"),
    (["--json", "core", "--e", "4", "5,5,4,2,2,2,1,1"], '{"core": [2]}\n'),
    (["quotient", "--e", "4", "7,3,3,2,2,1"], "[[1],[],[2,1],[]]\n"),
    (["--json", "quotient", "--e", "4", "7,3,3,2,2,1"], '{"quotient": [[1], [], [2, 1], []]}\n'),
    (["zlabel", "--e", "4", "5,5,4,2,2,2,1,1"], "[1,1,2,2,1]\n"),
    (["--json", "zlabel", "--e", "4", "5,5,4,2,2,2,1,1"], '{"z": [1, 1, 2, 2, 1]}\n'),
    (["mullineux", "--e", "4", "6,5,5,2,2,2"], "[16,6]\n"),
    (["--json", "mullineux", "--e", "4", "6,5,5,2,2,2"], '{"mullineux": [16, 6]}\n'),
    (["moveone", "--e", "4", "7,3,3,2,2,1", "3"], "[9,3,2,2,2]\n"),
    (["--json", "moveone", "--e", "4", "7,3,3,2,2,1", "3"], '{"partition": [9, 3, 2, 2, 2]}\n'),
    (["movealong", "--e", "4", "7,3,3,2,2,1", "2,3"], "[10,4,2,1,1]\n"),
    (["--json", "movealong", "--e", "4", "7,3,3,2,2,1", "2,3"],
     '{"partition": [10, 4, 2, 1, 1], "trace": [{"partition": [9, 3, 2, 2, 2], "r": 3, "step": 1, "z": [1, 1, 3, 3]}, {"partition": [10, 4, 2, 1, 1], "r": 2, "step": 2, "z": [1, 2, 3, 3]}]}\n'),
    (["lambdah", "--e", "4", "5,5,4,2,2,2,1,1", "3"], "[6,5,5,2,2,2]\n"),
    (["--json", "lambdah", "--e", "4", "5,5,4,2,2,2,1,1", "3"],
     '{"partition": [6, 5, 5, 2, 2, 2]}\n'),
    (["block", "--e", "2", "1", "2"], "5\n3,2\n3,1^2\n2^2,1\n1^5\n"),
    (["--json", "block", "--e", "2", "1", "2"],
     '{"block": {"core": [1], "e": 2, "weight": 2}, "partitions": [[5], [3, 2], [3, 1, 1], [2, 2, 1], [1, 1, 1, 1, 1]]}\n'),
    (["dnum", "--e", "10", "--method", "closed", "16,8,1^13", "17,7,2^4,1^5"], "q^2\n"),
    (["dnum", "--e", "10", "--method", "llt", "16,8,1^13", "17,7,2^4,1^5"], "q^2\n"),
    (["dnum", "--e", "10", "--method", "rouquier", "16,8,1^13", "17,7,2^4,1^5"],
     "error: BlockId(e=10, core=Partition((7,)), weight=3) is not a Rouquier block\n"),
    (["dnum", "--e", "10", "--method", "inductive", "16,8,1^13", "17,7,2^4,1^5"], "q^2\n"),
    (["gcolumn", "--e", "4", "--method", "llt", "6,5,5,2,2,2"],
     "a85b200ec082877281f29217c6b16be7c8bd44cba7ba0c1cee77da20edb664c9"),
    (["gcolumn", "--e", "4", "--method", "rouquier", "6,5,5,2,2,2"],
     "error: BlockId(e=4, core=Partition((2,)), weight=5) is not a Rouquier block\n"),
    (["gcolumn", "--e", "4", "--method", "inductive", "6,5,5,2,2,2"],
     "error: inductive_G requires a 4-increasing partition\n"),
    (["gcolumn", "--e", "4", "--method", "closed", "6,5,5,2,2,2"],
     "error: the closed formula requires a 4-increasing partition\n"),
    (["gcolumn", "--e", "2", "--method", "llt", "5"],
     "bd71e30facd2c3970099d5a7020b07625c03094fbba84011fe49552b4ae54855"),
    (["gcolumn", "--e", "2", "--method", "rouquier", "5"],
     "422aa4e2c16bb290e88a03dd71d389d62f15f0b4cb6dcc0eb3d6b170201f8c8f"),
    (["gcolumn", "--e", "2", "--method", "inductive", "5"],
     "error: inductive_G requires a 4-increasing partition\n"),
    (["gcolumn", "--e", "2", "--method", "closed", "5"],
     "error: the closed formula requires a 4-increasing partition\n"),
]


def test_pinned_outputs():
    for argv, want in PINNED:
        code, out, err = _capture(argv)
        if want.startswith("error: "):
            assert (code, out, err) == (1, "", want), argv
            continue
        assert code == 0 and err == "", argv
        if want.endswith("\n"):
            assert out == want, argv
        else:
            assert hashlib.sha256(out.encode()).hexdigest() == want, argv


def test_long_mullineux_query():
    code, out, _ = _capture(["mullineux", "--e", "3", "600"])
    assert code == 0 and out.startswith("[")


def test_block_on_many_runners():
    # one member per runner at weight 1: enumeration must not recurse per runner
    code, out, _ = _capture(["block", "--e", "1200", "0", "1"])
    assert code == 0 and len(out.splitlines()) == 1200


def test_core_on_many_runners():
    # the core is built from e runner strings, not e repunit masks of e bits
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "focktiles", "core", "--e", "100000", "5"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "[5]\n"


def test_overlong_scopes_chain_is_refused():
    # the weight-2 chain at e = 1100 has about 2.2e8 steps: refused before
    # the first one, with one line on stderr
    code, out, err = _capture(
        ["dnum", "--e", "1100", "--method", "inductive", "2195,1^5", "2195,1^5"]
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "limit" in err and err.count("\n") == 1


def test_python_m_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "focktiles", "core", "--e", "2", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[1]"


def test_json_flag():
    code, out, _ = _capture(["--json", "zlabel", "--e", "4", "5,5,4,2,2,2,1,1"])
    assert code == 0 and json.loads(out) == {"z": [1, 1, 2, 2, 1]}
