"""Edge-list parsing, validation, and the adjacency container."""

import importlib
import inspect
import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import signed_balance
from signed_balance.bootstrap import resample_network
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
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from signed_balance.graphon import builtin_spec, sample_network

from _reference import dense_up_to

graph_module = importlib.import_module("signed_balance.graph")


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


def test_dense_input_checks_symmetry():
    mat = np.zeros((3, 3), dtype=np.int8)
    mat[0, 1] = 1  # missing the mirror entry
    with pytest.raises(AsymmetricMatrixError):
        SignedAdjacency(mat)


def test_dense_input_checks_diagonal():
    mat = np.zeros((3, 3), dtype=np.int8)
    mat[1, 1] = 1
    with pytest.raises(NonzeroDiagonalError):
        SignedAdjacency(mat)


def test_dense_input_checks_alphabet():
    mat = np.zeros((3, 3), dtype=np.int8)
    mat[0, 1] = mat[1, 0] = 2
    with pytest.raises(AlphabetError):
        SignedAdjacency(mat)


@pytest.mark.parametrize("value, dtype", [(0.5, np.float64), (255, np.uint8), (257, np.int16)])
@pytest.mark.parametrize("threshold", [None, 2])
def test_sparse_input_is_checked_before_its_cast(value, dtype, threshold):
    # an int8 cast would read these as 0, -1 and +1
    mat = np.zeros((3, 3), dtype=dtype)
    mat[0, 1] = mat[1, 0] = value
    mat[1, 2] = mat[2, 1] = 1
    with dense_up_to(threshold), pytest.raises(AlphabetError):
        SignedAdjacency(sp.csr_matrix(mat))


def test_roundtrip_through_text():
    adj = parse_edge_list(triangle_text())
    again = parse_edge_list(adj.to_edge_list_text())
    assert adj == again


def test_roundtrip_preserves_isolated_nodes(tmp_path):
    mat = np.zeros((4, 4), dtype=np.int8)
    mat[0, 1] = mat[1, 0] = -1
    adj = SignedAdjacency(mat)
    path = tmp_path / "net.edges"
    write_edge_list(adj, path)
    text = path.read_text()
    assert text.startswith("# nodes: 4\n")
    back = read_edge_list(path)
    assert back.n == 4
    assert back.negative_count() == 1


def test_roundtrip_of_a_read_file_keeps_isolated_nodes():
    adj = parse_edge_list("# nodes: 5\n0 1 +1\n1 2 -1\n0 2 +1\n")
    text = adj.to_edge_list_text()
    assert text.startswith("# nodes: 5\n")
    back = parse_edge_list(text)
    assert back.n == adj.n == 5
    assert back == adj


def test_canonical_text_is_sorted_and_stable():
    texts = []
    for threshold in (None, 0):  # dense, then sparse storage
        with dense_up_to(threshold):
            adj = parse_edge_list("b c -1\na b +1\na c -1\n")
        assert adj.is_dense == (threshold is None)
        text = adj.to_edge_list_text()
        assert text == adj.to_edge_list_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines == sorted(lines)
        assert lines == ["a b +1", "a c -1", "b c -1"]
        texts.append(text)
    assert texts[0] == texts[1]


def _text_in_label_order(adj):
    """The edge list the writer documents, built from every node's label:
    the ``# nodes:`` directive when the labels are the canonical ids, then
    each pair once, its lines sorted by (label_u, label_v)."""
    labels = [adj.label_of(i) for i in range(adj.n)]
    dense = adj.to_dense()
    rows, cols = np.nonzero(np.triu(dense, 1))
    pairs = sorted((*sorted((labels[i], labels[j])), "+1" if dense[i, j] > 0 else "-1")
                   for i, j in zip(rows.tolist(), cols.tolist()))
    width = len(str(max(adj.n - 1, 0)))
    head = [f"# nodes: {adj.n}"] if labels == [str(i).zfill(width) for i in range(adj.n)] else []
    return "\n".join(head + [" ".join(p) for p in pairs]) + "\n"


@pytest.mark.parametrize("threshold", [None, 0])
def test_written_text_follows_the_label_order(threshold):
    # unlabeled networks (sampled or read under ``# nodes:``) format only the
    # ids on an edge; string, explicit canonical and unpadded labels sort
    # every label
    with dense_up_to(threshold):
        sampled = sample_network(builtin_spec("const-cos", {"rho": 0.01}), 120, seed=4)
        read = parse_edge_list(sampled.to_edge_list_text())
        n = sampled.n
        cases = [sampled, read,
                 SignedAdjacency(sampled.entries, labels=[f"v{i}" for i in range(n)]),
                 SignedAdjacency(sampled.entries, labels=[read.label_of(i) for i in range(n)]),
                 SignedAdjacency(sampled.entries, labels=[str(i) for i in range(n)])]
    assert sampled.labels is None and read.labels is None and read == sampled
    assert (np.count_nonzero(sampled.to_dense(), axis=1) == 0).any()  # isolated nodes
    for adj in cases:
        assert adj.is_dense == (threshold is None)
        assert adj.to_edge_list_text() == _text_in_label_order(adj)


def test_summary_values():
    adj = parse_edge_list(triangle_text())
    s = adj.summarize()
    assert s.n == 3
    assert s.edge_proportion == 1.0
    assert s.negative_fraction == pytest.approx(2 / 3)
    d = s.to_dict()
    assert set(d) == {"n", "edge_proportion", "negative_fraction"}


def test_summary_empty_graph_negative_fraction_none():
    adj = SignedAdjacency(np.zeros((4, 4), dtype=np.int8))
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


@pytest.mark.parametrize("threshold", [None, 2, 3])
def test_storage_arrays_are_read_only(threshold):
    # the census cached on an adjacency relies on its storage never changing;
    # parsed or built, n = 3 nodes are stored dense up to a threshold of 3
    dense = parse_edge_list(triangle_text()).to_dense()
    with dense_up_to(threshold):
        built = parse_edge_list(triangle_text()), SignedAdjacency(dense)
    for adj in built:
        assert adj.is_dense == (threshold != 2)
        m = adj.entries
        for arr in (m,) if adj.is_dense else (m.data, m.indices, m.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[:] = 1
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


def test_dense_threshold_alone_picks_every_storage(tmp_path, storage_threshold):
    # no public callable takes a storage switch of its own...
    for name in signed_balance.__all__:
        try:
            params = inspect.signature(getattr(signed_balance, name)).parameters
        except (TypeError, ValueError):  # not callable, or a builtin without a signature
            continue
        assert "dense_threshold" not in params, name
    # ...so graph.DENSE_THRESHOLD, read when an adjacency is built, picks its
    # storage whichever way it is built
    k = 6
    storage_threshold(k)
    spec = builtin_spec("const-cos")
    for n in (k, k + 1):
        path = tmp_path / f"{n}.edges"
        write_edge_list(sample_network(spec, n, seed=1), path)
        mat = read_edge_list(path).to_dense()
        built = {
            "ndarray": SignedAdjacency(mat),
            "scipy": SignedAdjacency(sp.csr_matrix(mat)),
            "parse": parse_edge_list(path.read_text()),
            "read": read_edge_list(path),
            "sample": sample_network(spec, n, seed=1),
            "resample": resample_network(SignedAdjacency(mat), seed=2),
        }
        for source, adj in built.items():
            assert adj.n == n and adj.is_dense == (n == k), (source, n)


def test_eq_rejects_other_types():
    adj = parse_edge_list(triangle_text())
    assert adj != "not a graph"
    assert adj == parse_edge_list(triangle_text())


@pytest.mark.parametrize("threshold", [None, 0])
def test_unlabeled_network_equals_itself_read_back(threshold):
    # no labels reads as the canonical labels, which the written text carries
    # and a read under its ``# nodes:`` directive keeps as no labels
    with dense_up_to(threshold):
        adj = sample_network(builtin_spec("const-cos"), 12, seed=1)
        back = parse_edge_list(adj.to_edge_list_text())
        named = SignedAdjacency(adj.to_dense(), labels=[f"n{i:02d}" for i in range(12)])
        spelled = SignedAdjacency(adj.to_dense(), labels=[f"{i:02d}" for i in range(12)])
    assert adj.labels is None and back.labels is None
    assert adj.is_dense == back.is_dense == (threshold is None)
    assert adj == back and back == adj
    assert back == spelled and spelled == back
    assert adj != named and named != adj


# ----------------------------------------------------- bulk pass and line loop


def _random_irregular_text(rng, n=600, edges=3000):
    """An n-node edge list with labels of mixed length, both pair orders,
    duplicate rows, every sign token, comments and blank lines."""
    labels = [f"v{int(x)}" if x % 3 else f"node_{int(x):05d}" for x in rng.permutation(n)]
    lines = ["# irregular", ""]
    for u, v in rng.integers(0, n, size=(edges, 2)):
        if u == v:
            continue
        sign = ("+1", "1") if (u * v) % 5 else ("-1",)
        lines.append(f"{labels[u]}\t{labels[v]}  {sign[(u + v) % len(sign)]}")
        if rng.random() < 0.05:
            lines.append(f"  {labels[v]} {labels[u]} {sign[0]}  ")
        if rng.random() < 0.01:
            lines.append("   # a comment with leading spaces")
    return "\n".join(lines) + "\n"


# (case id, text, which pass decides it)
PARSE_TABLE = [
    ("crlf", "a b +1\r\nb c -1\r\na c 1\r\n", "bulk"),
    ("bare-cr", "a b +1\rb c -1\r", "bulk"),
    ("tabs", "a\tb\t+1\n\tb c\t-1\n", "bulk"),
    ("indented-comments", "  # first\n\t# second\na b 1\n   #third\nb c -1\n", "bulk"),
    ("directive-mid-file", "0 1 +1\n# nodes: 4\n2 3 -1\n", "bulk"),
    ("directive-twice", "# nodes: 3\n0 1 +1\n# NODES: 5\n3 4 -1\n", "bulk"),
    ("directive-replaced", "# nodes: 12\n03 11 +1\n# nodes: 3\n", "loop"),
    ("directive-bad", "a b 1\n# nodes: x\n", "loop"),
    ("directive-superscript", "# nodes: ²\n", "loop"),
    ("directive-too-long", "a b 1\n# nodes: " + "9" * 5000 + "\n", "loop"),
    ("directive-19-digits", "# nodes: 1000000000000000000\n", "loop"),
    ("sign-tokens-as-ids", "1 +1 -1\n-1 1 1\n+1 -1 +1\n", "bulk"),
    ("non-ascii-order", "é z 1\nz ä -1\nab é 1\n中 zzzz -1\n\U0001f600 ab 1\n", "bulk"),
    ("two-then-four-tokens", "a b\na b c d\n", "loop"),
    ("four-then-two-tokens", "a b c d\na b\n", "loop"),
    ("duplicate-before-conflict", "a b 1\nb a +1\nc d 1\nb a -1\n", "loop"),
    ("self-loop", "a b 1\nc c -1\n", "loop"),
    ("bad-sign", "a b 1\na c 2\n", "loop"),
    ("empty", "", "bulk"),
    ("comments-only", "# one\n\n  # two\n", "bulk"),
    ("directive-only", "# nodes: 3\n", "bulk"),
    # labels against the canonical ids of a ``# nodes:`` directive
    ("directive-canonical-labels", "# nodes: 12\n11 03 -1\n00 10 1\n", "bulk"),
    ("directive-label-too-narrow", "# nodes: 20000\n5 00007 1\n", "loop"),
    ("directive-label-too-wide", "# nodes: 12\n012 03 1\n", "loop"),
    ("directive-label-equal-to-count", "# nodes: 12\n12 03 1\n", "loop"),
    ("directive-label-not-digits", "# nodes: 12\n0a 03 1\n", "loop"),
    ("directive-label-below-zero", "# nodes: 12\n0/ 03 1\n", "loop"),
    ("directive-zero-with-a-label", "# nodes: 0\n0 1 1\n", "loop"),
    ("directive-label-in-range-too-narrow", "# nodes: 12\n0 1 1\n", "loop"),
    ("directive-label-in-range-too-wide", "# nodes: 12\n003 04 1\n", "loop"),
    ("directive-after-a-bad-label", "0 1 +1\n# nodes: 12\n03 04 1\n", "loop"),
    ("directive-bad-label-after-a-duplicate", "# nodes: 12\n05 06 1\n7 08 -1\n06 05 1\n", "loop"),
] + [
    (f"separator-{ord(ch):04x}", f"a b 1\nb{ch}c -1\nc d{ch}1{ch}", "loop")
    for ch in "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
] + [
    ("nul-in-label", "a\x00 b 1\n", "loop"),
    ("lone-surrogate", "a\udc80 b 1\n", "loop"),
    ("one-long-label", "a b 1\n" * 200 + "x" * 10_000 + " b 1\n", "loop"),
]


# (error class, message, line number) of the cases whose labels are not the
# ids of the last ``# nodes:`` directive: the first such edge line in file
# order, its width named when the label's value is in range
LABEL_ERRORS = {
    "directive-replaced": (EdgeListParseError, "line 2: node id '03' outside declared 0..2", 2),
    "directive-label-too-narrow": (
        EdgeListParseError, "line 2: '5' has 1 digit; the ids of 20000 nodes have 5", 2),
    "directive-label-too-wide": (EdgeListParseError, "line 2: node id '012' outside declared 0..11", 2),
    "directive-label-equal-to-count": (
        EdgeListParseError, "line 2: node id '12' outside declared 0..11", 2),
    "directive-label-not-digits": (EdgeListParseError, "line 2: node id '0a' outside declared 0..11", 2),
    "directive-label-below-zero": (EdgeListParseError, "line 2: node id '0/' outside declared 0..11", 2),
    "directive-zero-with-a-label": (EdgeListParseError, "line 2: node id '0' outside declared 0..-1", 2),
    "directive-label-in-range-too-narrow": (
        EdgeListParseError, "line 2: '0' has 1 digit; the ids of 12 nodes have 2", 2),
    "directive-label-in-range-too-wide": (
        EdgeListParseError, "line 2: '003' has 3 digits; the ids of 12 nodes have 2", 2),
    "directive-after-a-bad-label": (
        EdgeListParseError, "line 1: '0' has 1 digit; the ids of 12 nodes have 2", 1),
    "directive-bad-label-after-a-duplicate": (
        EdgeListParseError, "line 3: '7' has 1 digit; the ids of 12 nodes have 2", 3),
    "directive-replaced-across-chunks": (
        EdgeListParseError, "line 2: node id '03' outside declared 0..2", 2),
}


def _outcome(text):
    try:
        adj = parse_edge_list(text)
    except Exception as exc:  # the outcome under test includes the class
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return adj


# (case id, text, which pass decides it) for inputs whose lines, comments,
# directives, duplicates and conflicts fall in different chunks once the
# chunks are a few bytes long
CHUNK_TABLE = [
    ("crlf-comments-blanks",
     "a b +1\r\n\r\n  # a comment longer than a chunk\r\n \t \r\nb c -1\r\n# x\r\nc a 1\r\n", "bulk"),
    ("directive-in-a-later-chunk", "0 1 +1\n1 2 -1\n0 2 1\n2 3 1\n# nodes: 5\n", "bulk"),
    ("directive-twice-across-chunks", "# nodes: 9\n0 1 +1\n1 2 -1\n0 2 1\n# nodes: 4\n2 3 1\n", "bulk"),
    ("directive-replaced-across-chunks", "# nodes: 12\n03 11 +1\n04 05 -1\n# nodes: 3\n", "loop"),
    ("duplicate-across-chunks", "a b 1\nc d 1\ne f -1\ng h 1\nb a +1\n", "bulk"),
    ("conflict-across-chunks", "a b 1\nc d 1\ne f -1\ng h 1\nb a -1\n", "loop"),
    ("duplicate-then-conflict-across-chunks", "a b 1\nc d 1\nb a +1\ne f 1\na b -1\n", "loop"),
    ("self-loop-in-a-later-chunk", "a b 1\nc d 1\ne e 1\n", "loop"),
    ("labels-widen-across-chunks", "a b 1\nlabel_longer_than_eight_bytes b -1\nb a 1\n", "bulk"),
    ("bad-line-in-a-later-chunk", "a b 1\nc d 1\ne f g h\n", "loop"),
    ("no-final-line-feed", "a b 1\nb c -1", "bulk"),
]

# Chunks of the bulk pass are at least this many bytes long, each ending
# after a line feed: the default, then sizes at which lines, comments and
# directives straddle chunk ends (1 puts each line in a chunk of its own).
CHUNK_SIZES = [graph_module._CHUNK_BYTES, 1, 7, 64]


@pytest.mark.parametrize("case, text, route", PARSE_TABLE + CHUNK_TABLE,
                         ids=[c[0] for c in PARSE_TABLE + CHUNK_TABLE])
@pytest.mark.parametrize("threshold", [None, 0])
def test_bulk_pass_matches_line_loop(case, text, route, threshold, monkeypatch):
    # the str and its UTF-8 bytes, in chunks of every size, against the loop;
    # what the bulk pass takes whole it takes in chunks, while a refusal may
    # hang on the chunk (a long label is refused beside many short ones)
    sources = [text]
    try:
        sources.append(text.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate
        pass
    with dense_up_to(threshold):
        with monkeypatch.context() as patch:
            patch.setattr(graph_module, "_bulk_edges", lambda text: None)
            want = _outcome(text)
        if case in LABEL_ERRORS:
            assert want == LABEL_ERRORS[case]
        for size in CHUNK_SIZES:
            monkeypatch.setattr(graph_module, "_CHUNK_BYTES", size)
            for source in sources:
                if route == "bulk" or size == CHUNK_SIZES[0]:
                    assert (graph_module._bulk_edges(source) is not None) == (route == "bulk"), size
                got = _outcome(source)
                assert got == want, size
                if isinstance(want, SignedAdjacency):
                    assert got.labels == want.labels and got.is_dense == want.is_dense


def test_bulk_pass_matches_line_loop_on_random_irregular_file(monkeypatch, storage_threshold):
    text = _random_irregular_text(np.random.default_rng(11))
    storage_threshold(100)
    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "_bulk_edges", lambda text: None)
        want = parse_edge_list(text)
    assert want.n == 600 and not want.is_dense
    for size in CHUNK_SIZES:
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", size)
        assert graph_module._bulk_edges(text) is not None
        got = parse_edge_list(text)
        assert got == want and got.labels == want.labels, size
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got.entries, part), getattr(want.entries, part))


def test_bulk_pass_leaves_every_other_separator_to_the_loop():
    # each character str.split or str.splitlines separates on, other than
    # the space, tab, CR and LF the bulk pass splits on
    other = {chr(c) for c in range(0x110000)
             if chr(c).isspace() or len(f"a{chr(c)}b".splitlines()) > 1} - set(" \t\r\n")
    assert len(other) == 25
    for ch in other:
        assert graph_module._bulk_edges(f"a b 1\nb{ch}c 1\n") is None


def test_non_utf8_file_names_the_line(tmp_path):
    path = tmp_path / "latin1.edges"
    path.write_bytes("a b 1\r\nb c -1\né a 1\n".encode("utf-8") + b"caf\xe9 a 1\n")
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(path)
    assert err.value.line_no == 4
    assert "0xe9" in str(err.value)


def test_parse_reads_utf8_bytes_and_binary_files():
    text = "# nodes are not canonical\né z 1\nz ä -1\nab é 1\n"
    want = parse_edge_list(text)
    data = text.encode("utf-8")
    for source in (data, bytearray(data), io.BytesIO(data), io.StringIO(text)):
        got = parse_edge_list(source)
        assert got == want and got.labels == want.labels


def test_parse_of_bytes_that_are_not_utf8_names_the_line():
    data = b"a b 1\nb c -1\n\xff d 1\n"
    for source in (data, io.BytesIO(data)):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(source)
        assert err.value.line_no == 3
        assert "0xff" in str(err.value)


def test_non_utf8_byte_in_a_later_chunk_names_its_file_line(tmp_path, monkeypatch):
    # the UTF-8 check comes before any other: line 1 is a self loop
    data = b"a a 1\r\nb c -1\n# comment\n\nc d 1\ncaf\xe9 a 1\nd e 1\n"
    path = tmp_path / "latin1.edges"
    path.write_bytes(data)
    for size in CHUNK_SIZES:
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", size)
        for read in (lambda: read_edge_list(path), lambda: parse_edge_list(data),
                     lambda: parse_edge_list(io.BytesIO(data))):
            with pytest.raises(EdgeListParseError) as err:
                read()
            assert err.value.line_no == 6, size
            assert str(err.value) == "line 6: byte 0xe9 at offset 34 is not UTF-8"


def test_parse_peak_memory_is_bounded(tmp_path):
    # a 20.8 MB file of 1.6M edges: the bulk pass over the whole file peaked
    # at about 16 times its size; in chunks it holds the file's bytes, one
    # chunk's arrays and the edges' codes
    path = tmp_path / "big.edges"
    write_edge_list(sample_network(builtin_spec("const-cos"), 2000, seed=3), path)
    assert 20e6 < path.stat().st_size < 22e6
    tracemalloc.start()
    try:
        adj = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adj.n == 2000 and adj.edge_count() > 1_500_000
    assert peak <= 110 * 2**20


# a 2M-node network of one edge, read under its ``# nodes:`` directive
HUGE_DECLARED = "# nodes: 2000000\n0000003 1999999 -1\n"


@pytest.mark.parametrize("route", ["bulk", "loop"])
def test_huge_declared_node_set_builds_no_label_table(route, monkeypatch):
    # the canonical ids stay implicit on both passes: a table of the 2M
    # labels and their set peaked at 264 MiB on the bulk pass and 311 MiB
    # on the loop; the sparse storage's n-long arrays remain
    assert graph_module._bulk_edges(HUGE_DECLARED) is not None
    if route == "loop":
        monkeypatch.setattr(graph_module, "_bulk_edges", lambda text: None)
    tracemalloc.start()
    try:
        adj = parse_edge_list(HUGE_DECLARED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adj.n == 2_000_000 and not adj.is_dense
    assert adj.edge_count() == adj.negative_count() == 1 and adj.entries[3, 1999999] == -1
    assert adj.labels is None
    assert adj.label_of(0) == "0000000" and adj.label_of(1999999) == "1999999"
    assert peak <= 48 * 2**20


def test_writing_a_huge_declared_node_set_formats_only_the_ids_on_an_edge():
    # labels is None, so the ids sort as their indexes: the writer formats
    # the two ids on the edge, where a table of the 2M labels took 0.9 s
    adj = parse_edge_list(HUGE_DECLARED)
    tracemalloc.start()
    try:
        text = adj.to_edge_list_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == HUGE_DECLARED
    assert peak <= 8 * 2**20


# ------------------------------------------------------------- storage build


STORAGE_TEXTS = {
    "directive-isolated-nodes": "# nodes: 8\n3 1 +1\n1 3 1\n0 5 -1\n5 0 -1\n2 3 -1\n1 2 +1\n",
    "string-labels": "bob alice +1\nalice bob 1\ncarol alice -1\nzed bob -1\nalice carol -1\n",
    # m = 0 under a node count past the threshold of 0
    "no-edges": "# nodes: 6\n",
    # isolated nodes, one edge, on the last node
    "one-edge-on-the-last-node": "# nodes: 12\n11 03 -1\n",
    # the line loop sees these pairs first in neither lo nor hi order
    "pairs-out-of-order": "d e 1\nc e -1\nb c 1\na e -1\nd a 1\nb a -1\ne c -1\n",
}


def _assert_read_only_int8(adj):
    arrays = (adj.entries,) if adj.is_dense else (
        adj.entries.data, adj.entries.indices, adj.entries.indptr)
    assert adj.entries.dtype == np.int8
    assert not any(arr.flags.writeable for arr in arrays)


def _assert_sorted_rows(x):
    # each row's columns rise strictly: sorted, and no pair stored twice
    rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    assert (np.diff(x.indices)[np.diff(rows) == 0] > 0).all()
    assert x.has_sorted_indices and x.has_canonical_format


@pytest.mark.parametrize("text", STORAGE_TEXTS.values(), ids=STORAGE_TEXTS)
@pytest.mark.parametrize("route", ["bulk", "loop"])
@pytest.mark.parametrize("threshold", [None, 0])
def test_parsed_storage_equals_the_coo_build(text, route, threshold, monkeypatch):
    # duplicate rows in both pair orders; the storage filled from the parsed
    # edges, in chunks of every size, equals the adjacency of their
    # symmetric COO matrix
    for size in CHUNK_SIZES:
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", size)
        edges = graph_module._bulk_edges(text) if route == "bulk" else graph_module._line_edges(text)
        assert edges is not None
        n, names, lo, hi, sign = edges
        # each pair once, lo < hi, in (lo, hi) order: what _from_edges takes
        assert (lo < hi).all() and sign.dtype == np.int8
        assert lo.dtype == hi.dtype == np.int32  # the node indexes of fewer than 2^31 nodes
        assert (np.lexsort((hi, lo)) == np.arange(len(lo))).all()
        assert len(set(zip(lo.tolist(), hi.tolist()))) == len(lo)
        coo = sp.coo_matrix((np.concatenate([sign, sign]),
                             (np.concatenate([lo, hi]), np.concatenate([hi, lo]))), shape=(n, n))
        with dense_up_to(threshold):
            want = SignedAdjacency(coo, labels=names)
            got = parse_edge_list(text)
        assert got == want and got.labels == want.labels and got.is_dense == want.is_dense, size
        assert got.is_dense == (threshold is None)
        _assert_read_only_int8(got)
        if got.is_dense:
            np.testing.assert_array_equal(got.entries, want.entries)
        else:
            _assert_sorted_rows(got.entries)
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got.entries, part), getattr(want.entries, part))


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_sparse_storage_copies_a_callers_matrix(dtype):
    # even a sorted int8 CSR matrix, the storage's own layout, is copied:
    # the caller's arrays are neither shared, written nor made read-only
    mat = sample_network(builtin_spec("const-cos"), 30, seed=5).to_dense()
    x = sp.csr_matrix(mat.astype(dtype))
    assert x.has_sorted_indices
    before = [arr.copy() for arr in (x.data, x.indices, x.indptr)]
    with dense_up_to(0):
        adj = SignedAdjacency(x)
    assert not adj.is_dense and adj.entries is not x
    _assert_read_only_int8(adj)
    _assert_sorted_rows(adj.entries)
    for arr, was in zip((x.data, x.indices, x.indptr), before):
        np.testing.assert_array_equal(arr, was)
        assert arr.flags.writeable
        assert not any(np.shares_memory(arr, mine) for mine in (
            adj.entries.data, adj.entries.indices, adj.entries.indptr))
    np.testing.assert_array_equal(adj.to_dense(), mat)


def test_sparse_resample_keeps_its_rows_sorted():
    # a draw with repeats, out of order: the submatrix's columns come in
    # draw order, and the resampled storage sorts them on its own arrays
    mat = sample_network(builtin_spec("const-cos"), 40, seed=6).to_dense()
    with dense_up_to(0):
        adj = SignedAdjacency(mat)
        idx = np.random.default_rng(7).integers(0, 40, size=40)
        got = resample_network(adj, indices=idx)
    assert not got.is_dense
    _assert_read_only_int8(got)
    _assert_sorted_rows(got.entries)
    np.testing.assert_array_equal(got.to_dense(), SignedAdjacency(mat[np.ix_(idx, idx)] * (
        idx[:, None] != idx[None, :])).to_dense())
    np.testing.assert_array_equal(adj.to_dense(), mat)


SPARSE_FORMATS = [f"{fmt}_{kind}" for fmt in ("coo", "csc", "csr", "lil", "dok")
                  for kind in ("matrix", "array")]


@pytest.mark.parametrize("threshold", [None, 10])
@pytest.mark.parametrize("cls", SPARSE_FORMATS)
def test_every_scipy_sparse_input_is_recognised(cls, threshold):
    from signed_balance.census import full_census

    dense = sample_network(builtin_spec("const-cos"), 30, seed=4).to_dense()
    with dense_up_to(threshold):
        want = SignedAdjacency(dense)
        got = SignedAdjacency(getattr(sp, cls)(dense))
    assert got.is_dense == want.is_dense == (threshold is None)
    if got.is_dense:
        np.testing.assert_array_equal(got.entries, want.entries)
    else:
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got.entries, part), getattr(want.entries, part))
    assert full_census(got).census == full_census(want).census
