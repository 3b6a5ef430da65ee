"""Undirected simple graphs with bit-packed adjacency, plus generators and codecs.

Vertices are the integers 0..n-1.  Each adjacency row is stored as a Python
int used as a bitset, so neighborhood intersections are single ``&``
operations regardless of n.  Graphs are immutable after construction.

Bulk conversions go through one bit-matrix layer: ``Graph.from_bits`` checks
an n x n boolean numpy matrix and packs it into the int rows (``gnp`` and the
graph6 reader, whose matrices are symmetric by construction, pack theirs
through the unchecked ``Graph._pack``), and ``Graph.to_bits(rows)``
unpacks them again, all of them or only the listed ones, through
``unpack_rows``, which takes any list of row masks.  The spectral matvec,
G(n, p) and the graph6 codec are vectorised on top of it.  The last two
number the pairs u < v in two orders, each one triangle read row by row:
``gnp`` the upper (lexicographic), graph6 the lower (x(0,1), x(0,2),
x(1,2), x(0,3), ...).  ``_triangle_blocks`` walks either in blocks of whole
rows.  The graph6 reader and writer take n <= MAX_VERTICES.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

MAX_VERTICES = 10_000

_MASK64 = (1 << 64) - 1
# entries per _triangle_blocks block: gnp's uint64 temporaries stay <= 512 KiB
_GNP_CHUNK = 1 << 16
# matrix entries (1 MiB of bools) per block wherever an n x n matrix is
# scanned or built a block of rows at a time
ROW_BLOCK = 1 << 20


def _require_order(n: int) -> None:
    """Raise ValueError unless 0 <= n <= MAX_VERTICES, before any n-sized work."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def _require_probability(p: float) -> None:
    """Raise ValueError unless 0 <= p <= 1, so also for NaN."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def unpack_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Bitmasks over range(n) as the rows of a boolean (len(masks), n)
    matrix: bit u of masks[i] is entry [i, u]."""
    nbytes = (n + 7) // 8
    chunks = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(chunks, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(np.bool_)


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        # the constructor's arguments as args, so the error survives pickling
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        message, offset = self.args
        return f"{message} (byte offset {offset})"


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    ``validate=False`` skips the symmetry scan; internal constructors that
    build symmetric rows by design use it to stay O(n^2/64) on large graphs.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows: Sequence[int], validate: bool = True):
        _require_order(n)
        if len(rows) != n:
            raise ValueError("row count does not match n")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        if validate:
            for v, row in enumerate(rows):
                for u in iter_bits(row):
                    if not rows[u] >> v & 1:
                        raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self._rows = tuple(rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _require_order(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, validate=False)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def from_bits(cls, adj) -> "Graph":
        """Graph of a symmetric boolean n x n matrix with a zero diagonal.

        Rows are packed little-endian, so bit u of row v is ``adj[v, u]``.
        """
        a = np.asarray(adj, dtype=np.bool_)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        _require_order(n)
        loops = np.flatnonzero(a.diagonal())
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        # one block of rows at a time, so the check's temporaries stay small
        step = max(1, ROW_BLOCK // max(n, 1))
        for lo in range(0, n, step):
            bad = a[lo:lo + step] & ~a[:, lo:lo + step].T
            if bad.any():
                v, u = np.argwhere(bad)[0]
                raise ValueError(f"adjacency not symmetric at ({u}, {lo + v})")
        return cls._pack(a)

    @classmethod
    def _pack(cls, a: np.ndarray) -> "Graph":
        """``from_bits`` without its checks, for a boolean n x n matrix that is
        symmetric with a zero diagonal by construction (``gnp``, ``parse_graph6``)."""
        n = a.shape[0]
        nbytes = (n + 7) // 8
        buf = np.packbits(a, axis=1, bitorder="little").tobytes()
        rows = [
            int.from_bytes(buf[i * nbytes:(i + 1) * nbytes], "little")
            for i in range(n)
        ]
        return cls(n, rows, validate=False)

    def to_bits(self, rows: Iterable[int] | None = None) -> np.ndarray:
        """The adjacency rows of the given vertices, in their order (default
        all), as a boolean (len(rows), n) matrix.

        ``Graph.from_bits(g.to_bits()) == g``.
        """
        return unpack_rows(self._rows if rows is None else [self._rows[v] for v in rows], self.n)

    def row(self, v: int) -> int:
        """Neighbor bitmask of v."""
        return self._rows[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            for v in iter_bits(self._rows[u] >> (u + 1) << (u + 1)):
                yield u, v

    def add_edge(self, u: int, v: int) -> "Graph":
        """New graph with edge (u, v) added (no-op if present)."""
        if u == v:
            raise ValueError("loops not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        rows = list(self._rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows, validate=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def part_sizes(sizes: Iterable[int]) -> tuple[int, ...]:
    """Normalize part sizes: nonempty, every entry >= 1, sorted nonincreasing."""
    out = tuple(sorted((int(s) for s in sizes), reverse=True))
    if not out:
        raise ValueError("part sizes must be nonempty")
    if out[-1] < 1:
        raise ValueError("part sizes must be positive")
    return out


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def complete_multipartite(sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; parts laid out consecutively, largest first.

    u ~ v iff u and v lie in different parts.
    """
    szs = _multipartite_sizes(sizes)
    n = sum(szs)
    full = (1 << n) - 1
    rows = []
    start = 0
    for s in szs:
        part_mask = ((1 << s) - 1) << start
        other = full & ~part_mask
        rows.extend([other] * s)
        start += s
    return Graph(n, rows, validate=False)


def _multipartite_sizes(sizes: Iterable[int]) -> tuple[int, ...]:
    """``complete_multipartite``'s part sizes, after every check it makes."""
    szs = part_sizes(sizes)
    _require_order(sum(szs))
    return szs


def turan_part_sizes(n: int, r: int) -> tuple[int, ...]:
    """Part sizes of the r-partite Turan graph on n vertices (nonincreasing)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    q, rem = divmod(n, r)
    return (q + 1,) * rem + (q,) * (r - rem)


def _turan_sizes(n: int, r: int) -> tuple[int, ...]:
    """``turan_graph``'s nonempty part sizes, after every check it makes."""
    if r >= 1 and n >= 0:  # else turan_part_sizes names the bound, building nothing
        _require_order(n)
    # parts past the n-th are empty, so r > n lists only n of them
    return tuple(s for s in turan_part_sizes(n, min(r, max(n, 1))) if s > 0)


def turan_graph(n: int, r: int) -> Graph:
    """r-partite Turan graph: parts as equal as possible, ceil parts first."""
    sizes = _turan_sizes(n, r)
    return complete_multipartite(sizes) if len(sizes) > 1 else Graph.empty(n)


def complete_graph(n: int) -> Graph:
    _require_order(n)
    if n == 0:
        return Graph.empty(0)
    return complete_multipartite((1,) * n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    _require_order(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def pair_uniform(seed: int, index: int) -> float:
    """Deterministic uniform in [0, 1) for (seed, pair index), platform-independent.

    Counter-based: value depends only on the two keys, never on call order,
    so parallel generation cannot perturb results.
    """
    z = _splitmix64(seed & _MASK64)
    return (_splitmix64(z ^ (index & _MASK64)) >> 11) * (1.0 / (1 << 53))


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """``_splitmix64`` on a uint64 array; numpy uint64 arithmetic wraps mod 2^64."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _triangle_blocks(n: int, upper: bool) -> Iterator[tuple[int, int, np.ndarray, int, int]]:
    """Either strict triangle in blocks of whole rows (``_GNP_CHUNK`` entries, or one row):
    ``mask`` marks it in rows lo..hi-1, whose entries, read by rows, are pairs start..stop-1."""
    step = max(1, _GNP_CHUNK // max(n, 1))
    cols = np.arange(n, dtype=np.int16)  # n <= MAX_VERTICES < 2^15; int64 built masks ~5x slower
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = cols[lo:hi, None]
        if upper:
            yield lo, hi, cols > rows, lo * (2 * n - lo - 1) // 2, hi * (2 * n - hi - 1) // 2
        else:
            yield lo, hi, cols < rows, lo * (lo - 1) // 2, hi * (hi - 1) // 2


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair kept independently with probability p.

    Pair index counts pairs (u, v), u < v, in lexicographic order, and pair
    i is kept iff ``pair_uniform(seed, i) < p``.  Identical (n, p, seed)
    give an identical graph on every platform and thread count.  Pairs are
    drawn a ``_triangle_blocks`` block at a time, so the generator's
    temporaries stay bounded; the boolean adjacency matrix, filled in both
    triangles, costs n^2 bytes.
    """
    _require_probability(p)
    _require_order(n)
    key = np.uint64(_splitmix64(seed & _MASK64))
    adj = np.zeros((n, n), dtype=np.bool_)
    for lo, hi, mask, start, stop in _triangle_blocks(n, upper=True):
        z = _splitmix64_array(np.arange(start, stop, dtype=np.uint64) ^ key)
        keep = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)) < p
        adj[lo:hi][mask] = adj.T[lo:hi][mask] = keep
    return Graph._pack(adj)


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_decode_size(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise Graph6Error("missing size byte", pos)
    b = data[pos]
    if not 63 <= b <= 126:
        raise Graph6Error(f"byte {b} outside [63, 126]", pos)
    if b != 126:
        return b - 63, pos + 1
    # 126 introduces a 3-byte size; a second 126 a 6-byte size
    if pos + 1 < len(data) and data[pos + 1] == 126:
        count, start = 6, pos + 2
    else:
        count, start = 3, pos + 1
    if start + count > len(data):
        raise Graph6Error("truncated multi-byte size", len(data))
    n = 0
    for i in range(start, start + count):
        if not 63 <= data[i] <= 126:
            raise Graph6Error(f"byte {data[i]} outside [63, 126]", i)
        n = (n << 6) | (data[i] - 63)
    return n, start + count


def _graph6_body(text: str) -> tuple[int, np.ndarray]:
    """The vertex count and body bytes of one graph6 string (optional
    ``>>graph6<<`` header), after every check ``parse_graph6`` makes.
    Error offsets count the header's bytes too."""
    s = text.strip()
    try:
        data = s.encode("latin-1")
    except UnicodeEncodeError:
        # characters above U+00FF map to byte 255 so the range checks flag them
        data = bytes(min(ord(c), 255) for c in s)
    start = len(_G6_HEADER) if s.startswith(_G6_HEADER) else 0
    n, pos = _g6_decode_size(data, start)
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds {MAX_VERTICES}", start)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(f"body length {len(data) - pos} != expected {nbytes}", pos)
    body = np.frombuffer(data, dtype=np.uint8, offset=pos)
    bad = np.flatnonzero((body < 63) | (body > 126))
    if bad.size:
        i = int(bad[0])
        raise Graph6Error(f"byte {body[i]} outside [63, 126]", pos + i)
    # padding occupies only the low bits of the last byte
    if body.size and (int(body[-1]) - 63) & ((1 << -nbits % 6) - 1):
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    return n, body


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header)."""
    n, body = _graph6_body(text)
    adj = np.zeros((n, n), dtype=np.bool_)
    for lo, hi, mask, start, stop in _triangle_blocks(n, upper=False):
        # six data bits per byte, most significant first: a block unpacks
        # only the bytes of its pairs, so no byte per bit of the body is held
        first = start // 6
        bits = np.unpackbits((body[first:(stop + 5) // 6] - 63) << 2).reshape(-1, 8)[:, :6].reshape(-1)
        adj[lo:hi][mask] = adj.T[lo:hi][mask] = bits[start - 6 * first:stop - 6 * first]
    return Graph._pack(adj)


def to_graph6(g: Graph) -> str:
    """Encode to graph6: one size byte for n <= 62, else ``~`` and three
    (n <= MAX_VERTICES < 2^18, so the 8-byte form is never needed)."""
    bits = np.zeros((g.n * (g.n - 1) // 2 + 5) // 6 * 6, dtype=np.uint8)
    for lo, hi, mask, start, stop in _triangle_blocks(g.n, upper=False):
        bits[start:stop] = g.to_bits(range(lo, hi))[mask]
    groups = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    size = [g.n] if g.n <= 62 else [63, g.n >> 12, g.n >> 6 & 63, g.n & 63]
    return "".join(chr(63 + b) for b in size) + (groups + 63).tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v" with u < v
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not 0 <= u < v < n:
            raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
