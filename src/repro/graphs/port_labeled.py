"""Anonymous port-labeled graphs — the substrate of the paper's model.

The paper (Section 1.1) works on an *anonymous* graph: nodes carry no
identifiers visible to robots; instead, every node of degree ``d`` labels
its incident edges with distinct *ports* ``1..d``.  An edge ``{u, v}``
therefore has two independent port numbers, one per endpoint, and a robot
crossing it learns both (the outgoing port it chose and the incoming port
at the destination).

:class:`PortLabeledGraph` stores this structure explicitly.  Node names
``0..n-1`` exist only on the simulator side ("true names"); robot programs
never see them — they interact with the world exclusively through port
numbers, degrees and co-located robots (enforced by :mod:`repro.sim`).

Design notes
------------
* Simple graphs only (no self-loops or parallel edges): every graph the
  paper's evaluation needs is simple.  Quotient graphs *can* be non-simple;
  they get their own lightweight representation in
  :mod:`repro.graphs.quotient`.
* The canonical storage is a **flat CSR layout**: contiguous typed arrays
  ``offsets`` (length ``n + 1``), ``dest`` and ``in_port`` (length ``2m``,
  entry ``offsets[u] + p - 1`` describing port ``p`` of node ``u``), plus a
  cached per-node degree array.  Serialisation pickles exactly these three
  arrays (raw bytes, not nested tuples), which is what makes shipping
  graphs to sweep workers cheap.
* On top of the CSR arrays the constructor materialises per-node tuples of
  ``(dest, in_port)`` pairs — ``traverse`` returning a pre-built pair is
  allocation-free, and that is the innermost hot call of the simulator
  (millions of invocations per benchmark).  ``traverse_fast`` is the same
  lookup without the port-range check, for call sites whose ports are
  valid by construction (see PERFORMANCE.md for the ground rules).
* The validating ``__init__`` stays the public choke point; trusted
  builders (generators, ``relabel``, unpickling) go through
  :meth:`_from_validated` and skip the O(n·Δ) re-check of structure they
  construct correctly by design.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import GraphStructureError, PortError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["PortLabeledGraph"]

#: Array typecode for all CSR arrays.  ``q`` (signed long long) is 8 bytes
#: on every platform CPython supports, unlike ``l`` (4 bytes on Windows) —
#: the pickle format ships raw array bytes, so the width must not vary
#: across machines.
_TYPECODE = "q"

#: Row type: node ``u``'s ports as a tuple of ``(dest, in_port)`` pairs,
#: ``row[p - 1]`` describing port ``p``.
Row = Tuple[Tuple[int, int], ...]


class PortLabeledGraph:
    """An undirected simple graph with local port labels at every node.

    Parameters
    ----------
    port_map:
        ``port_map[u][p] == (v, q)`` states that node ``u``'s port ``p``
        (1-based) leads to node ``v``, and the same edge is seen by ``v``
        through its port ``q``.  Mapping must be symmetric.

    The constructor validates the full structural contract (contiguous
    1-based ports, symmetry, simplicity) and is therefore the single choke
    point guaranteeing every externally supplied ``PortLabeledGraph`` is
    legal.  Internal builders that construct correct structure by design
    use :meth:`_from_validated` instead.
    """

    __slots__ = (
        "_ports",
        "_n",
        "_m",
        "_adjacency",
        "_offsets",
        "_dest",
        "_in_port",
        "_port_of_nbr",
        "_spec",
    )

    def __init__(self, port_map: Mapping[int, Mapping[int, Tuple[int, int]]]):
        n = len(port_map)
        if set(port_map.keys()) != set(range(n)):
            raise GraphStructureError(
                f"nodes must be exactly 0..{n - 1}, got {sorted(port_map.keys())[:8]}..."
            )
        rows: List[Row] = []
        for u in range(n):
            table = port_map[u]
            deg = len(table)
            if set(table.keys()) != set(range(1, deg + 1)):
                raise GraphStructureError(
                    f"node {u}: ports must be exactly 1..{deg}, got {sorted(table.keys())}"
                )
            row: List[Tuple[int, int]] = []
            seen_neighbours = set()
            for p in range(1, deg + 1):
                v, q = table[p]
                if not (0 <= v < n):
                    raise GraphStructureError(f"node {u} port {p}: endpoint {v} out of range")
                if v == u:
                    raise GraphStructureError(f"node {u} port {p}: self-loops not allowed")
                if v in seen_neighbours:
                    raise GraphStructureError(
                        f"node {u}: parallel edge to {v} (simple graphs only)"
                    )
                seen_neighbours.add(v)
                row.append((v, q))
            rows.append(tuple(row))
        # Symmetry: u--p-->(v,q) must be mirrored by v--q-->(u,p).
        for u in range(n):
            for p0, (v, q) in enumerate(rows[u]):
                p = p0 + 1
                if q < 1 or q > len(rows[v]):
                    raise GraphStructureError(
                        f"node {u} port {p}: remote port {q} out of range at node {v}"
                    )
                back_v, back_p = rows[v][q - 1]
                if (back_v, back_p) != (u, p):
                    raise GraphStructureError(
                        f"asymmetric ports: {u}-{p}->({v},{q}) but {v}-{q}->({back_v},{back_p})"
                    )
        self._init_from_rows(tuple(rows))

    # ------------------------------------------------------------------ #
    # Internal finalisation (shared by all construction paths)
    # ------------------------------------------------------------------ #

    def _init_from_rows(self, rows: Tuple[Row, ...]) -> None:
        """Set the canonical row storage; derived caches stay lazy.

        Construction cost is the whole point of the trusted path, so only
        what every workload needs is built here: the rows themselves and
        the node/edge counts.  The CSR arrays (pickling), the adjacency
        tuples (``neighbours``/connectivity) and the neighbour→port maps
        (``port_to``) are materialised on first use and cached.
        """
        self._ports = rows
        self._n = len(rows)
        self._m = sum(map(len, rows)) // 2
        self._offsets = None
        self._dest = None
        self._in_port = None
        self._adjacency = None
        self._port_of_nbr = None
        self._spec = None

    def _init_from_csr(self, n: int, offsets: array, dest: array, in_port: array) -> None:
        """Rebuild rows from already-validated CSR arrays (unpickling)."""
        self._ports = tuple(
            tuple(zip(dest[offsets[u]:offsets[u + 1]], in_port[offsets[u]:offsets[u + 1]]))
            for u in range(n)
        )
        self._n = n
        self._m = offsets[n] // 2
        self._offsets = offsets
        self._dest = dest
        self._in_port = in_port
        self._adjacency = None
        self._port_of_nbr = None
        self._spec = None

    # -- lazy derived caches ------------------------------------------- #

    def _csr_arrays(self) -> Tuple[array, array, array]:
        offsets = self._offsets
        if offsets is None:
            offsets = array(_TYPECODE, bytes())
            offsets.append(0)
            dest = array(_TYPECODE)
            in_port = array(_TYPECODE)
            total = 0
            for row in self._ports:
                total += len(row)
                offsets.append(total)
                if row:
                    vs, qs = zip(*row)
                    dest.extend(vs)
                    in_port.extend(qs)
            self._offsets = offsets
            self._dest = dest
            self._in_port = in_port
        return self._offsets, self._dest, self._in_port

    def _adjacency_rows(self) -> Tuple[Tuple[int, ...], ...]:
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = tuple(
                tuple(zip(*row))[0] if row else () for row in self._ports
            )
            self._adjacency = adjacency
        return adjacency

    def _port_maps(self) -> Tuple[Dict[int, int], ...]:
        maps = self._port_of_nbr
        if maps is None:
            maps = tuple(
                dict(zip(vs, range(1, len(vs) + 1)))
                for vs in self._adjacency_rows()
            )
            self._port_of_nbr = maps
        return maps

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_validated(cls, rows: Sequence[Row]) -> "PortLabeledGraph":
        """Trusted constructor: skip the O(n·Δ) structural re-check.

        ``rows[u][p - 1] == (v, q)`` must already satisfy the full contract
        (contiguous nodes/ports, symmetry, simplicity) — callers are the
        closed-form generators, :meth:`relabel`, and unpickling, all of
        which construct legal structure by design.  Passing bad rows here
        produces a corrupt graph instead of :class:`GraphStructureError`;
        never expose this to untrusted input.
        """
        graph = cls.__new__(cls)
        graph._init_from_rows(tuple(rows))
        return graph

    @classmethod
    def from_networkx(
        cls,
        graph: nx.Graph,
        rng=None,
    ) -> "PortLabeledGraph":
        """Build a port-labeled graph from a networkx simple graph.

        Nodes are relabeled to ``0..n-1`` in sorted order.  Each node's
        ports are assigned to its neighbours either in sorted-neighbour
        order (``rng is None``, deterministic) or in a random permutation
        drawn from ``rng`` (a ``numpy.random.Generator`` or
        ``random.Random``) — the paper stresses that the two endpoints of
        an edge may disagree on port numbers, and random assignment
        exercises that.

        This is the validating oracle path (arbitrary nx input goes
        through the full ``__init__`` check); the generators in
        :mod:`repro.graphs.generators` use the trusted fast path instead.
        """
        if graph.is_directed() or graph.is_multigraph():
            raise GraphStructureError("only undirected simple graphs are supported")
        nodes = sorted(graph.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        port_map: Dict[int, Dict[int, Tuple[int, int]]] = {i: {} for i in range(len(nodes))}
        # First decide, per node, the port of each incident edge.
        port_of: Dict[Tuple[int, int], int] = {}
        for v in nodes:
            u = index[v]
            nbrs = sorted(index[w] for w in graph.neighbors(v))
            if rng is not None:
                nbrs = list(nbrs)
                _shuffle(rng, nbrs)
            for p, w in enumerate(nbrs, start=1):
                port_of[(u, w)] = p
        for (u, w), p in port_of.items():
            port_map[u][p] = (w, port_of[(w, u)])
        return cls(port_map)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "PortLabeledGraph":
        """Convenience: deterministic port labeling of an edge list."""
        import networkx as nx  # deferred: keeps networkx out of ``import repro``

        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        return cls.from_networkx(g)

    # ------------------------------------------------------------------ #
    # Core queries (hot path)
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def degree(self, u: int) -> int:
        """Degree of node ``u`` (== number of ports at ``u``)."""
        return len(self._ports[u])

    def max_degree(self) -> int:
        """Maximum degree over all nodes (the paper's ``Δ``)."""
        return max(map(len, self._ports), default=0)

    def traverse(self, u: int, port: int) -> Tuple[int, int]:
        """Cross the edge at ``u`` leaving through ``port``.

        Returns ``(v, q)``: the destination node and the *incoming* port at
        the destination — exactly the information the model grants a moving
        robot (Section 1.1: "it is aware of both port numbers assigned to
        the edge through which it passed").
        """
        row = self._ports[u]
        if port < 1 or port > len(row):
            raise PortError(f"node {u} has ports 1..{len(row)}, not {port}")
        return row[port - 1]

    def traverse_fast(self, u: int, port: int) -> Tuple[int, int]:
        """:meth:`traverse` without the port-range check.

        For internal call sites whose ports are valid by construction
        (port-ordered loops over ``ports(u)``, replaying a tour the same
        map produced, a port already validated by the simulator).  An
        invalid port raises ``IndexError``/garbage instead of
        :class:`PortError`; never feed it untrusted input.
        """
        return self._ports[u][port - 1]

    def port_row(self, u: int) -> Row:
        """Node ``u``'s full port row: ``port_row(u)[p - 1] == traverse(u, p)``.

        The bulk companion of :meth:`traverse_fast` for port-ordered
        scans — iterating the returned tuple replaces one method call per
        edge with plain tuple iteration.  The row is live internal
        storage: read-only.
        """
        return self._ports[u]

    def neighbours(self, u: int) -> Tuple[int, ...]:
        """True-name neighbours of ``u`` (simulator-side only)."""
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = self._adjacency_rows()
        return adjacency[u]

    def port_to(self, u: int, v: int) -> int:
        """The port at ``u`` whose edge leads to ``v`` (simulator-side).

        O(1) after the first call: resolved through the cached
        neighbour→port reverse map (simulator-side helpers call this
        inside loops; the old implementation scanned O(Δ) ports per call).
        """
        maps = self._port_of_nbr
        if maps is None:
            maps = self._port_maps()
        p = maps[u].get(v)
        if p is None:
            raise PortError(f"no edge {u} -> {v}")
        return p

    def ports(self, u: int) -> range:
        """Iterable of valid port numbers at ``u``."""
        return range(1, len(self._ports[u]) + 1)

    def csr(self) -> Tuple[array, array, array]:
        """The flat CSR arrays ``(offsets, dest, in_port)``.

        Port ``p`` of node ``u`` lives at index ``offsets[u] + p - 1`` of
        ``dest``/``in_port``.  Built on first use, then cached; returned
        arrays are the live internal storage — treat them as read-only.
        """
        return self._csr_arrays()

    def edges(self) -> Iterator[Tuple[int, int, int, int]]:
        """Iterate edges as ``(u, p, v, q)`` with ``u < v``."""
        for u in range(self._n):
            for p0, (v, q) in enumerate(self._ports[u]):
                if u < v:
                    yield (u, p0 + 1, v, q)

    # ------------------------------------------------------------------ #
    # Structure-level helpers
    # ------------------------------------------------------------------ #

    def is_connected(self) -> bool:
        """True iff the graph is connected (dispersion requires it)."""
        if self._n == 0:
            return True
        adjacency = self._adjacency_rows()
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    def is_regular(self) -> bool:
        """True iff every node has the same degree."""
        degs = set(map(len, self._ports))
        return len(degs) <= 1

    def to_networkx(self) -> nx.Graph:
        """Export the underlying simple graph (port labels as edge attrs)."""
        import networkx as nx  # deferred: keeps networkx out of ``import repro``

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        for u, p, v, q in self.edges():
            g.add_edge(u, v, ports={u: p, v: q})
        return g

    def relabel(self, perm: Sequence[int]) -> "PortLabeledGraph":
        """Return an isomorphic copy with node ``i`` renamed ``perm[i]``.

        Port numbers are preserved — the result is port-preserving
        isomorphic to ``self``.  Used to hand robots *privately relabeled*
        maps so no information leaks through true node names.
        """
        if sorted(perm) != list(range(self._n)):
            raise GraphStructureError("perm must be a permutation of 0..n-1")
        rows: List[Optional[Row]] = [None] * self._n
        for u, row in enumerate(self._ports):
            rows[perm[u]] = tuple((perm[v], q) for v, q in row)
        # A permutation of valid rows is valid by construction.
        return PortLabeledGraph._from_validated(rows)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # Dunder / misc
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self._ports == other._ports

    def __hash__(self) -> int:
        return hash(self._ports)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PortLabeledGraph(n={self._n}, m={self._m})"

    def __reduce__(self):
        """Pickle as the three raw CSR byte strings (plus the generator
        spec, if any) — far smaller and faster than the default per-slot
        nested-tuple state, and unpickling re-derives the caches through
        the trusted path instead of re-validating."""
        offsets, dest, in_port = self._csr_arrays()
        return (
            _unpickle,
            (
                self._n,
                offsets.tobytes(),
                dest.tobytes(),
                in_port.tobytes(),
                self._spec,
            ),
        )

    def port_table(self) -> Dict[int, Dict[int, Tuple[int, int]]]:
        """Deep-copy the port map (for serialisation / relabeling)."""
        return {
            u: {p0 + 1: vq for p0, vq in enumerate(row)}
            for u, row in enumerate(self._ports)
        }


def _unpickle(n: int, offsets: bytes, dest: bytes, in_port: bytes, spec):
    """Rebuild a graph from its pickled CSR bytes (trusted path)."""
    offs = array(_TYPECODE)
    offs.frombytes(offsets)
    dst = array(_TYPECODE)
    dst.frombytes(dest)
    inp = array(_TYPECODE)
    inp.frombytes(in_port)
    graph = PortLabeledGraph.__new__(PortLabeledGraph)
    graph._init_from_csr(n, offs, dst, inp)
    graph._spec = spec
    return graph


def _shuffle(rng, items: list) -> None:
    """Shuffle in place with either numpy Generator or random.Random."""
    if hasattr(rng, "shuffle"):
        rng.shuffle(items)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unsupported rng type: {type(rng)!r}")
