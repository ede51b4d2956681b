"""Every malformed-line branch of the .pubo, .qubo and .wcnf readers.

Each row pins the exact message, so a change to how lines are read cannot
silently reword, renumber or drop an error.  The .pubo and .qubo rows go
through the command line: exit 2, one stderr line, no file written.
"""

import pytest

from puboforge.cli import run
from puboforge.poly import ParseError
from puboforge.wmaxsat import parse_wcnf

# The .qubo rows are read against this source (5 computational variables).
SOURCE_PUBO = "p pubo 5\n1 1 2 3\n1 1 4 5\n1 2 3 5\n"

PUBO_CASES = [
    ("p pubo\n", "line 1: malformed header 'p pubo'"),
    ("p pubo x\n", "line 1: variable count 'x' is not an integer"),
    ("p pubo -1\n", "line 1: variable count must be >= 0, got -1"),
    ("p pubo 3\n# again\np pubo 3\n", "line 3: duplicate header"),
    ("p pubo 3\nc 1 2\n", "line 2: malformed constant line 'c 1 2'"),
    ("p pubo 3\nc one # trailing\n", "line 2: constant 'one' is not an integer"),
    ("p pubo 3\n\n5\n", "line 3: term line needs a coefficient and at least one index"),
    ("# only a comment\n\n", "empty input: missing 'p pubo <n>' header"),
]

QUBO_CASES = [
    ("p qubo x 5\n", "line 1: header counts must be integers"),
    ("p qubo 4 5\n", "line 1: invalid variable counts total=4 computational=5"),
    ("p qubo 5 5\nc 1 2\n", "line 2: malformed constant line 'c 1 2'"),
    ("p qubo 6 5\na\n", "line 2: malformed ancilla line 'a'"),
    ("p qubo 6 5\na six pair 1 2\n", "line 2: malformed ancilla line 'a six pair 1 2'"),
    ("p qubo 6 5\na 3 pair 1 2\n", "line 2: ancilla index 3 outside 6..6"),
    ("p qubo 7 5\na 6 pair 1 2\na 6 pair 1 3\n", "line 3: duplicate ancilla definition for index 6"),
    ("p qubo 6 5\na 6 pair 2 1\n", "line 2: pair (2,1) is not an ordered computational pair"),
    ("p qubo 6 5\na 6 pair 1 2 4\n", "line 2: pair copy must be 1..3, got 4"),
    ("p qubo 6 5\na 6 triple 3 2 1 via 1 2\n", "line 2: triple (3,2,1) is not sorted within 1..5"),
    ("p qubo 6 5\na 6 triple 1 2 3 via 1 4\n", "line 2: via pair (1,4) is not inside the triple"),
    ("p qubo 5 5\n1 2 # short\n", "line 2: malformed term line '1 2'"),
    ("p qubo 5 5\n1 2 x\n", "line 2: malformed term line '1 2 x'"),
    ("\n# no header\n", "empty input: missing 'p qubo' header"),
    ("p qubo 6 5\n1 1 6\n", "missing ancilla definitions for indices [6]"),
]

WCNF_CASES = [
    ("p wcnf 0 0 1\np wcnf 0 0 1\n", 2, "duplicate header"),
    ("p wcnf 1 2\n", 1, "expected 'p wcnf <vars> <clauses> <top>'"),
    ("p wcnf a b c\n", 1, "header fields must be integers"),
    ("c var x = pair 1 2\n", 1, "malformed selector comment"),
    ("c var 1 = pair 1 two\n", 1, "malformed selector comment"),
    ("c var 2 = triple 1 2 3\n", 1, "selector comments out of order"),
    ("c var 1 = triple 1 2 3\nc var 2 = pair 1 2\n", 2, "selector comments out of order"),
    ("c var 1 = quad 1 2 3 4\n", 1, "malformed selector comment"),
    ("p wcnf 1 1 2\n\nfoo bar\n", 3, "unrecognized line 'foo bar'"),
    ("p wcnf 1 1 2\n1\n", 2, "clause lines are '<weight> <literals> 0'"),
    ("p wcnf 1 1 2\n1 -1\n", 2, "clause lines are '<weight> <literals> 0'"),
    ("p wcnf 1 1 2\n3 1 0\n", 2, "unsupported clause weight 3"),
    ("c nothing else\n", 1, "missing 'p wcnf' header"),
    ("p wcnf 1 0 2\n", 1, "header declares 1 selectors but comments define 0"),
    ("c var 1 = pair 1 2\np wcnf 1 2 2\n1 -1 0\n", 1, "header declares 2 clauses but found 1"),
]


def _case_id(text: str) -> str:
    return text.strip().replace("\n", " / ") or "blank"


@pytest.mark.parametrize("text, message", PUBO_CASES, ids=[_case_id(t) for t, _ in PUBO_CASES])
def test_malformed_pubo_line(tmp_path, capsys, text, message):
    src = tmp_path / "bad.pubo"
    src.write_text(text)
    assert run(["compile", str(src), "-o", str(tmp_path / "out.qubo")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["bad.pubo"]


@pytest.mark.parametrize("text, message", QUBO_CASES, ids=[_case_id(t) for t, _ in QUBO_CASES])
def test_malformed_qubo_line(tmp_path, capsys, text, message):
    src = tmp_path / "src.pubo"
    src.write_text(SOURCE_PUBO)
    bad = tmp_path / "bad.qubo"
    bad.write_text(text)
    assert run(["verify", str(src), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.qubo", "src.pubo"]


@pytest.mark.parametrize("text, line, message", WCNF_CASES, ids=[_case_id(t) for t, _, _ in WCNF_CASES])
def test_malformed_wcnf_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_wcnf(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"
