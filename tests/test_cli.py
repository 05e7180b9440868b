import io
import json
import sys

from focktiles.cli import run


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
    code, out, _ = _capture(["mullineux", "--e", "2", "--algo", "crystal", "3,1"])
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


def test_json_flag():
    code, out, _ = _capture(["--json", "zlabel", "--e", "4", "5,5,4,2,2,2,1,1"])
    assert code == 0 and json.loads(out) == {"z": [1, 1, 2, 2, 1]}
