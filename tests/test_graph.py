"""Edge-list parsing, validation, and the adjacency container."""

import numpy as np
import pytest
import scipy.sparse as sp

from signed_balance.errors import (
    AlphabetError,
    AsymmetricMatrixError,
    ConflictingSignError,
    EdgeListParseError,
    NonzeroDiagonalError,
    SelfLoopError,
)
from signed_balance.graph import (
    DENSE_THRESHOLD,
    SignedAdjacency,
    from_dense,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)


def triangle_text():
    return "a b +1\nb c -1\na c -1\n"


def test_parse_basic_triangle():
    adj = parse_edge_list(triangle_text())
    assert adj.n == 3
    assert adj.edge_count() == 3
    assert adj.negative_count() == 2
    # labels sorted lexicographically
    assert [adj.label_of(i) for i in range(3)] == ["a", "b", "c"]


def test_parse_accepts_bare_1_and_plus_1():
    adj = parse_edge_list("x y 1\ny z +1\n")
    assert adj.negative_count() == 0
    assert adj.edge_count() == 2


def test_parse_skips_blank_and_comment_lines():
    text = "\n# a comment\na b +1\n\n  \nb c -1\n"
    adj = parse_edge_list(text)
    assert adj.edge_count() == 2


def test_nodes_directive_keeps_isolated_nodes():
    adj = parse_edge_list("# nodes: 5\n0 1 +1\n")
    assert adj.n == 5
    assert adj.edge_count() == 1


def test_nodes_directive_rejects_unknown_label():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# nodes: 5\nalice bob +1\n")


def test_duplicate_edge_same_sign_is_idempotent():
    adj = parse_edge_list("a b +1\nb a +1\n")
    assert adj.edge_count() == 1


def test_conflicting_sign_rejected():
    with pytest.raises(ConflictingSignError) as err:
        parse_edge_list("a b +1\nb a -1\n")
    assert "2" in str(err.value)  # offending line number in the message


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        parse_edge_list("a a +1\n")


@pytest.mark.parametrize("line", ["a b", "a b 2", "a b +2", "a b plus", "a"])
def test_malformed_lines_rejected(line):
    with pytest.raises(EdgeListParseError):
        parse_edge_list(line + "\n")


def test_parse_reports_line_numbers():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("a b +1\nq q q q\n")
    assert err.value.line_no == 2


def test_from_dense_checks_symmetry():
    mat = np.zeros((3, 3), dtype=np.int8)
    mat[0, 1] = 1  # missing the mirror entry
    with pytest.raises(AsymmetricMatrixError):
        from_dense(mat)


def test_from_dense_checks_diagonal():
    mat = np.zeros((3, 3), dtype=np.int8)
    mat[1, 1] = 1
    with pytest.raises(NonzeroDiagonalError):
        from_dense(mat)


def test_from_dense_checks_alphabet():
    mat = np.zeros((3, 3), dtype=np.int8)
    mat[0, 1] = mat[1, 0] = 2
    with pytest.raises(AlphabetError):
        from_dense(mat)


def test_roundtrip_through_text():
    adj = parse_edge_list(triangle_text())
    again = parse_edge_list(adj.to_edge_list_text())
    assert adj == again


def test_roundtrip_preserves_isolated_nodes(tmp_path):
    mat = np.zeros((4, 4), dtype=np.int8)
    mat[0, 1] = mat[1, 0] = -1
    adj = from_dense(mat)
    path = tmp_path / "net.edges"
    write_edge_list(adj, path)
    text = path.read_text()
    assert text.startswith("# nodes: 4\n")
    back = read_edge_list(path)
    assert back.n == 4
    assert back.negative_count() == 1


def test_canonical_text_is_sorted_and_stable():
    texts = []
    for threshold in (None, 0):  # dense, then sparse storage
        adj = parse_edge_list("b c -1\na b +1\na c -1\n", dense_threshold=threshold)
        assert adj.is_dense == (threshold is None)
        text = adj.to_edge_list_text()
        assert text == adj.to_edge_list_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines == sorted(lines)
        assert lines == ["a b +1", "a c -1", "b c -1"]
        texts.append(text)
    assert texts[0] == texts[1]


def test_summary_values():
    adj = parse_edge_list(triangle_text())
    s = adj.summarize()
    assert s.n == 3
    assert s.edge_proportion == 1.0
    assert s.negative_fraction == pytest.approx(2 / 3)
    d = s.to_dict()
    assert set(d) == {"n", "edge_proportion", "negative_fraction"}


def test_summary_empty_graph_negative_fraction_none():
    adj = from_dense(np.zeros((4, 4), dtype=np.int8))
    s = adj.summarize()
    assert s.edge_proportion == 0.0
    assert s.negative_fraction is None


def test_immutability():
    adj = parse_edge_list(triangle_text())
    with pytest.raises(AttributeError):
        adj.n = 5
    dense = adj.to_dense()
    dense[0, 1] = 0  # caller gets a copy
    assert adj.edge_count() == 3


def test_sparse_storage_above_threshold():
    n = DENSE_THRESHOLD + 1
    mat = sp.coo_matrix(
        (np.array([1, 1], dtype=np.int8), (np.array([0, 1]), np.array([1, 0]))),
        shape=(n, n),
    ).tocsr()
    adj = SignedAdjacency(mat)
    assert not adj.is_dense
    assert adj.edge_count() == 1


def test_eq_rejects_other_types():
    adj = parse_edge_list(triangle_text())
    assert adj != "not a graph"
    assert adj == parse_edge_list(triangle_text())
