import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import spectral_turan.graphs as graphs
from spectral_turan import (
    Graph,
    Graph6Error,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gnp,
    parse_edge_list,
    parse_graph6,
    part_sizes,
    to_edge_list,
    to_graph6,
    turan_graph,
    turan_part_sizes,
)

from oracles import all_graphs, graph6_large, oracle_gnp, oracle_parse_graph6

GNP_40_05_SEED7_EDGES = 390  # golden: recorded from the first run of the generator
GNP_40_05_SEED7_G6 = (
    "gVpxgvOtiqqZFkwTmLOtotsefsHRakFfyo{Zv@^GeleRpiQh\\upBFc`[dEUa]rHzeNdBgXgSpmC"
    "tGrcAH|WYJfYZQAOfOoY]WmNVrYPEJ{Hl]sY}{S~pfIED~pYmTP?hSJ\\"
)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_hand_decoded_examples():
    g = parse_graph6("@")
    assert (g.n, g.edge_count()) == (1, 0)
    g = parse_graph6("A_")  # 'A' = 63+2, '_' = 63+32 = single edge bit then padding
    assert (g.n, g.edge_count()) == (2, 1)
    assert g.has_edge(0, 1)
    g = parse_graph6("A?")
    assert (g.n, g.edge_count()) == (2, 0)


def test_graph6_hand_encoded_examples():
    assert to_graph6(complete_graph(2)) == "A_"
    assert to_graph6(Graph.empty(1)) == "@"
    assert to_graph6(Graph.empty(0)) == "?"


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<A_") == complete_graph(2)


def test_graph6_roundtrip_generated_corpus():
    corpus = [
        turan_graph(7, 3),
        turan_graph(62, 5),
        complete_multipartite((2, 2, 5)),
        gnp(30, 0.3, 5),
        gnp(62, 0.9, 1),
        Graph.empty(5),
        cycle_graph(9),
    ]
    for g in corpus:
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_exhaustive_small():
    for n in range(5):
        for g in all_graphs(n):
            assert parse_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(20):
        g = gnp(1 + seed * 3 % 40, 0.4, seed)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(h, header=False).decode().strip() == to_graph6(g)


def test_graph6_multibyte_size_decode():
    nx = pytest.importorskip("networkx")
    big = nx.gnp_random_graph(100, 0.1, seed=4)
    text = nx.to_graph6_bytes(big, header=False).decode().strip()
    g = parse_graph6(text)
    assert g.n == 100
    assert g.edge_count() == big.number_of_edges()


@pytest.mark.parametrize("n", [700, 701])
def test_graph6_networkx_round_trip_large(n):
    # 4-byte size field; C(701, 2) = 245350 bits leave a partial last group
    nx = pytest.importorskip("networkx")
    h = nx.gnp_random_graph(n, 0.05, seed=n)
    text = nx.to_graph6_bytes(h, header=False).decode().strip()
    g = parse_graph6(text)
    assert g.n == n
    assert list(g.edges()) == sorted(tuple(sorted(e)) for e in h.edges())
    back = nx.Graph()
    back.add_nodes_from(range(g.n))
    back.add_edges_from(g.edges())
    assert nx.to_graph6_bytes(back, header=False).decode().strip() == text


def _graph6_outcome(decode, text):
    try:
        return "ok", decode(text)._rows
    except Graph6Error as exc:
        return type(exc), str(exc), exc.offset


def _mutated_graph6(rnd):
    n = rnd.choice([0, 1, 2, 3, 4, 7, 12, 25, 40, 62, 63, 64, 90])
    if n <= 62:
        s = to_graph6(gnp(n, rnd.random(), rnd.randrange(10**6)))
    else:  # 4-byte size field, random body of the right length
        size = "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0))
        nbytes = (n * (n - 1) // 2 + 5) // 6
        s = size + "".join(chr(rnd.randint(63, 126)) for _ in range(nbytes))
    chars = list(s)
    for _ in range(rnd.choice([0, 0, 1, 1, 2, 3])):
        op = rnd.randrange(5)
        i = rnd.randrange(len(chars) + 1)
        c = rnd.choice(
            [chr(rnd.randint(0, 140)), chr(rnd.randint(63, 126)), "\u0100", "\u20ac", "\udc80"]
        )
        if op == 0 and chars and i < len(chars):
            chars[i] = c
        elif op == 1 and chars and i < len(chars):
            del chars[i]
        elif op == 2:
            chars.insert(i, c)
        elif op == 3:
            chars = chars[:i]
        elif chars:  # set low bits of the last byte: padding for most n
            chars[-1] = chr(ord(chars[-1]) | rnd.randint(1, 31))
    return "".join(chars)


def test_graph6_decoder_matches_scalar_oracle_on_fuzzed_input():
    rnd = random.Random(20240)
    kinds = set()
    for _ in range(2000):
        s = _mutated_graph6(rnd)
        for text in (s, ">>graph6<<" + s):
            got = _graph6_outcome(parse_graph6, text)
            assert got == _graph6_outcome(oracle_parse_graph6, text), repr(text)
            kinds.add(got[0] if got[0] == "ok" else got[1].split(" ")[0])
    # the corpus reaches valid graphs and every defect kind
    assert kinds >= {"ok", "byte", "body", "nonzero", "missing", "truncated"}


@pytest.mark.parametrize("text, message", [
    ("", "missing size byte (byte offset 0)"),
    ("~", "truncated multi-byte size (byte offset 1)"),
    # size-field offsets count the header, as body offsets do
    (">>graph6<<", "missing size byte (byte offset 10)"),
    (">>graph6<<~", "truncated multi-byte size (byte offset 11)"),
    (">>graph6<<~~??", "truncated multi-byte size (byte offset 14)"),
    (">>graph6<<" + chr(20), "byte 20 outside [63, 126] (byte offset 10)"),
    (">>graph6<<~?" + chr(20) + "?", "byte 20 outside [63, 126] (byte offset 12)"),
    (">>graph6<<~B??", "vertex count 12288 exceeds 10000 (byte offset 10)"),
    (">>graph6<<A", "body length 0 != expected 1 (byte offset 11)"),
])
def test_graph6_offsets_count_the_header(text, message):
    for decode in (parse_graph6, oracle_parse_graph6):
        with pytest.raises(Graph6Error) as exc:
            decode(text)
        assert str(exc.value) == message, decode


def test_graph6_malformed_length():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A")  # n = 2 needs one body byte
    assert exc.value.offset == 1


def test_graph6_byte_out_of_range():
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(20))
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(200))


def test_graph6_nonzero_padding_bits():
    # n = 2 uses one data bit; any of the five padding bits set is an error
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(63 + 0b010000))
    assert exc.value.offset == 1


@pytest.mark.parametrize("n", [63, 64, 70, 300])
def test_graph6_encode_large_n_round_trips(n):
    # from n = 63 on the size field is '~' and three bytes, as McKay's
    g = gnp(n, 0.3, n)
    assert to_graph6(g) == graph6_large(g)
    assert parse_graph6(to_graph6(g)) == g


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_turan_examples():
    t = turan_graph(7, 3)
    assert turan_part_sizes(7, 3) == (3, 2, 2)
    assert t.edge_count() == 16  # (49 - 9 - 4 - 4) / 2
    assert turan_graph(6, 2) == complete_multipartite((3, 3))
    assert turan_graph(6, 2).edge_count() == 9
    assert turan_graph(5, 5) == complete_graph(5)
    assert turan_graph(5, 5).edge_count() == 10


def test_turan_equals_multipartite_of_its_parts():
    for n in range(13):
        for r in range(1, 7):
            sizes = tuple(s for s in turan_part_sizes(n, r) if s > 0)
            expected = complete_multipartite(sizes) if len(sizes) > 1 else Graph.empty(n)
            assert turan_graph(n, r) == expected


def test_turan_edge_count_formula_exact():
    for n in range(0, 80):
        for r in range(1, 9):
            sizes = turan_part_sizes(n, r)
            assert 2 * turan_graph(n, r).edge_count() == n * n - sum(s * s for s in sizes)


def test_complete_multipartite_examples():
    assert complete_multipartite((2, 3)).edge_count() == 6
    assert complete_multipartite((1, 1, 1)) == complete_graph(3)
    g = complete_multipartite((2, 2, 5))
    assert g.n == 9
    assert g.edge_count() == (81 - 4 - 4 - 25) // 2


def test_part_sizes_normalization():
    assert part_sizes([2, 5, 3]) == (5, 3, 2)
    with pytest.raises(ValueError):
        part_sizes([])
    with pytest.raises(ValueError):
        part_sizes([2, 0])


def test_gnp_extremes():
    assert gnp(10, 0.0, 123).edge_count() == 0
    assert gnp(10, 1.0, 123) == complete_graph(10)


def test_gnp_deterministic_golden():
    g1 = gnp(40, 0.5, 7)
    g2 = gnp(40, 0.5, 7)
    assert g1 == g2
    assert g1.edge_count() == GNP_40_05_SEED7_EDGES
    # byte-level golden pins determinism across runs, platforms and processes
    assert to_graph6(g1) == GNP_40_05_SEED7_G6


def test_gnp_matches_scalar_oracle():
    for n in (0, 1, 2, 40, 63, 200):
        for p in (0.0, 0.003, 0.5, 1.0):
            for seed in (0, 7, -3, 2**70 + 5):
                assert gnp(n, p, seed) == oracle_gnp(n, p, seed), (n, p, seed)


@pytest.mark.parametrize("chunk", [1, 5, 6, 39, 780, 1560, 3906, 4096])
def test_gnp_chunk_boundaries(monkeypatch, chunk):
    # blocks of max(1, chunk // n) rows, for gnp and both codec walks: one
    # row (1 at any n), all rows but the last (1, 6, 1560 and 3906 at n = 2,
    # 3, 40 and 63), all rows (5, 39, 3906 and 4096 there) and uneven
    # splits (780)
    monkeypatch.setattr(graphs, "_GNP_CHUNK", chunk)
    for n in (2, 3, 40, 63):
        g = gnp(n, 0.5, 11)
        assert g == oracle_gnp(n, 0.5, 11)
        text = to_graph6(g)
        # graph6_large always writes the 4-byte size field
        assert text[1 if n <= 62 else 4:] == graph6_large(g)[4:]
        assert parse_graph6(text) == g == oracle_parse_graph6(text)


def test_gnp_memory_peak_is_one_matrix():
    # one n x n byte matrix, filled in both triangles, plus bounded temporaries
    n = 3000
    tracemalloc.start()
    try:
        g = gnp(n, 0.01, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n
    assert g == oracle_gnp(n, 0.01, 1)


def test_to_graph6_memory_peak():
    # the bit vector and its sextets, plus one block of rows at a time: the
    # writer never unpacks the whole n x n matrix
    n = 3000
    g = gnp(n, 0.01, 1)
    tracemalloc.start()
    try:
        text = to_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * n * n
    assert parse_graph6(text) == g


def test_parse_graph6_memory_peak():
    # each block unpacks only the body bytes of its own pairs, so no buffer
    # of one byte per bit lives beside the matrix (1.60 n^2 when one did)
    n = 3000
    g = gnp(n, 0.01, 1)
    text = graph6_large(g)
    tracemalloc.start()
    try:
        h = parse_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * n * n
    assert h == g


def test_order_is_checked_before_n_sized_work():
    # under a 2 GiB address-space cap, building a list of n (or r) entries
    # first would end in MemoryError instead of the bound's ValueError; one
    # BLAS thread keeps numpy's own reservation small at any core count
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
        "from spectral_turan import complete_graph, cycle_graph, parse_edge_list, turan_graph\n"
        "for make, arg in ((complete_graph, 10**9), (cycle_graph, 10**9),\n"
        "                  (parse_edge_list, '10000000000 0'), (lambda n: turan_graph(n, n), 10**9)):\n"
        "    try:\n"
        "        make(arg)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "print(turan_graph(10, 10**9) == complete_graph(10))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout.splitlines()) == (0, [
        "vertex count 1000000000 outside [0, 10000]",
        "vertex count 1000000000 outside [0, 10000]",
        "vertex count 10000000000 outside [0, 10000]",
        "vertex count 1000000000 outside [0, 10000]",
        "True",
    ])


def test_gnp_rejects_vertex_count_before_generating():
    for n in (graphs.MAX_VERTICES + 1, -1):
        with pytest.raises(ValueError, match="vertex count"):
            gnp(n, 0.5, 0)


def test_gnp_seed_sensitivity():
    assert gnp(40, 0.5, 7) != gnp(40, 0.5, 8)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def test_edge_count_and_degree_examples():
    assert complete_graph(5).edge_count() == 10


def test_degree_sum_is_twice_edges():
    for g in [gnp(20, 0.3, 1), turan_graph(11, 4), complete_graph(6)]:
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


def test_bits_round_trip():
    for g in [Graph.empty(0), Graph.empty(3), complete_graph(9), gnp(70, 0.4, 2),
              turan_graph(17, 4), cycle_graph(8)]:
        a = g.to_bits()
        assert a.dtype == np.bool_ and a.shape == (g.n, g.n)
        assert all(a[u, v] == g.has_edge(u, v) for u in range(g.n) for v in range(g.n))
        assert Graph.from_bits(a) == g
        assert Graph.from_bits(a.astype(np.float64)) == g
        assert np.array_equal(g.to_bits(range(2, min(7, g.n))), a[2:7])


def test_to_bits_of_listed_rows():
    g = gnp(40, 0.4, 3)
    a = g.to_bits()
    rows = [17, 3, 39, 3, 0]  # out of order, with a repeat
    assert np.array_equal(g.to_bits(rows), a[rows])
    assert np.array_equal(g.to_bits(np.array(rows)), a[rows])
    for h, rows in [(g, []), (Graph.empty(0), []), (Graph.empty(0), None)]:
        bits = h.to_bits(rows)
        assert bits.dtype == np.bool_ and bits.shape == (0, h.n)


def test_from_bits_validation(monkeypatch):
    with pytest.raises(ValueError, match="square"):
        Graph.from_bits(np.zeros((2, 3), dtype=bool))
    loop = np.ones((3, 3), dtype=bool)
    np.fill_diagonal(loop, [False, True, True])
    with pytest.raises(ValueError, match="loop at vertex 1"):
        Graph.from_bits(loop)
    rnd = random.Random(3)
    for _ in range(20):
        n = rnd.randint(2, 70)
        rows = [rnd.getrandbits(n) & ~(1 << v) for v in range(n)]
        a = np.array([[r >> u & 1 for u in range(n)] for r in rows], dtype=bool)
        if np.array_equal(a, a.T):
            continue
        # same message as the bit-by-bit symmetry scan in the constructor,
        # whether the row-blocked check sees one block or many
        with pytest.raises(ValueError) as scan:
            Graph(n, rows)
        for block in (1 << 20, 1, 97):
            monkeypatch.setattr(graphs, "ROW_BLOCK", block)
            with pytest.raises(ValueError) as bits:
                Graph.from_bits(a)
            assert str(bits.value) == str(scan.value), block


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, [0b1])  # loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])  # out of range
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])  # loop


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------

def test_edge_list_roundtrip():
    for g in [turan_graph(9, 4), gnp(25, 0.2, 9), Graph.empty(3)]:
        assert parse_edge_list(to_edge_list(g)) == g


def test_edge_list_format_shape():
    text = to_edge_list(complete_graph(3))
    assert text == "3 3\n0 1\n0 2\n1 2\n"


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n1 0\n")  # u >= v
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # wrong edge count
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 3\n")  # vertex out of range
