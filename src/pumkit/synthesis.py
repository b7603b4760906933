"""Lowering and rewrite-based optimization of majority graphs.

``lower_to_maj`` translates an AND/OR/NOT/XOR netlist into majority
nodes: AND(a,b) -> MAJ(a,b,0), OR(a,b) -> MAJ(a,b,1), NOT becomes an
edge complement (of a constant too: 1 is ~0), and XOR expands to the
three-node template AND(NAND(a,b), OR(a,b)).

``optimize`` then shrinks the graph with a greedy rewrite loop whose
objective is the row-activation count of the program the scheduler
emits for the graph under the configured subarray, spills included:

* node canonicalization + majority absorption,
* structural hashing (common-subexpression merging) and dead-node removal,
* complement pushing via majority self-duality, so complements migrate to
  where a dual-contact row copy picks them up for free,
* adder cells, first and once: each lowered full adder (an XOR3 and a
  majority over the same three leaves) is rebuilt as the three-node
  majority cell, in one linear pass with no cut enumeration, so the
  rounds after it work on a graph less than half the size,
* cut rewriting: every cone with at most three leaves is matched against
  a precomputed minimal-template library (single-majority functions,
  two-node compositions, and the adder cell's sum for XOR3/XNOR3).  The
  library is generated data, one row per template in `pumkit.templates`;
  `python3 scripts/gen_templates.py` regenerates it, `--check` tells
  whether it is current, and `verify_rules` audits every row.

Each rewrite round pushes complements, rewrites cuts, then cleans and
compacts once; the adder-cell round cleans, builds its cells, then
cleans and compacts once.  A round is kept only when (does_not_fit,
activations, nodes) strictly improves, which gives monotone cost and a
stable fixpoint; a graph the subarray cannot hold ranks below every
graph that fits.  The rounds end at the first rewrite round that applies
no rule to the last kept graph, before it is compacted again.

Cut rewriting enumerates every node's pruned cuts afresh each round, in
index order from its children's cuts, each cut a bitmask of its leaf refs
in ref order, and makes a sorted ref tuple only for the cuts a node keeps.
A kept cut's record (cone, truth table, template) is read off the node's
three edges when they all are leaves or the constant (a one-node cone),
and found otherwise by walking the node's cone down to the cut and
simulating it; a cone of more than ``_CONE_CAP`` nodes is not matched.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .codegen import DEFAULT_SUBARRAY, SubarrayConfig, estimate_cost_static
from .errors import CapacityError, Frozen, PumError, TableSizeError
from .logic import (
    EDGE_ONE,
    EDGE_ZERO,
    REF_ZERO,
    MajGraph,
    Netlist,
    _enum_masks,
    _maj,
    equivalent,
    parse_netlist,
    truth_table,
)
from .templates import ROWS as _TEMPLATE_ROWS

# --- lowering ---------------------------------------------------------------


def lower_to_maj(netlist: Netlist) -> MajGraph:
    """Direct, unoptimized translation of a gate netlist."""
    nodes: list[tuple[int, int, int]] = []

    def node(e1: int, e2: int, e3: int) -> int:
        nodes.append((e1, e2, e3))
        return (len(nodes) - 1) << 1

    # gate j's lowered edge; a netlist edge below 0 (a constant or an
    # input) lowers to itself
    gate_edges: list[int] = []
    for kind, ops in netlist.gates:
        a = ops[0]
        if a >= 0:
            a = gate_edges[a >> 1]
        if kind == "NOT":
            gate_edges.append(a ^ 1)
            continue
        b = ops[1]
        if b >= 0:
            b = gate_edges[b >> 1]
        if kind == "XOR":  # AND(NAND(a,b), OR(a,b))
            n_and, n_or = node(a, b, EDGE_ZERO), node(a, b, EDGE_ONE)
            gate_edges.append(node(n_and ^ 1, n_or, EDGE_ZERO))
        else:  # AND(a,b) = MAJ(a,b,0), OR(a,b) = MAJ(a,b,1)
            gate_edges.append(node(a, b, EDGE_ZERO if kind == "AND" else EDGE_ONE))
    outputs = [gate_edges[e >> 1] if e >= 0 else e for e in netlist.outputs]
    return MajGraph(netlist.input_count, nodes, outputs)


# --- template library for cut rewriting --------------------------------------


class _Template(Frozen):
    """Minimal majority structure for one cut function.

    Nodes reference leaf variable v as ref -(2+v), input v's ref, and
    earlier template nodes by index; `out` is a packed edge.  A template
    compares and hashes by identity, as `_SHAPES` looks one up per cut
    record.
    """

    __slots__ = _fields = ("name", "cost", "nodes", "out")

    def __init__(self, name: str, cost: int, nodes: tuple[tuple[int, int, int], ...],
                 out: int):
        self._init(name, cost, nodes, out)


def _adder_cell() -> _Template:
    """The majority full adder (Amaru, Gaillardon and De Micheli, DAC
    2014) over leaves a, b, c: node 0 is the carry M(a,b,c), node 1 is
    t = M(a,b,~c), and the output is the sum M(~carry, c, t).  Cut
    rewriting files it under XOR3's table, and the adder-cell pass builds
    one per full adder it finds."""
    a, b, c = ((-2 - v) << 1 for v in range(3))  # leaf variables 0-2
    carry, t = 0 << 1, 1 << 1
    return _Template("adder_cell", 3, ((c, b, a), (c | 1, b, a), (c, carry | 1, t)), 2 << 1)


_ADDER_CELL = _adder_cell()
_CARRY = 0 << 1  # the cell's carry edge: its node 0


def _maj_flips() -> dict[int, tuple[int, int, int, int]]:
    """MAJ up to leaf and output complements: its table over three
    variables -> (the complements of leaves 0-2, of the output), with at
    most one leaf complemented, since ~M(x,y,z) = M(~x,~y,~z)."""
    masks = _enum_masks(3)
    found = {}
    for flips in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
        t = _maj(*(m ^ -f & 0xFF for m, f in zip(masks, flips)))
        found[t] = (*flips, 0)
        found[t ^ 0xFF] = (*flips, 1)
    return found


_MAJ_FLIPS = _maj_flips()


# (leaf count, truth table) -> the cheapest template computing it; the
# rows are generated data (`scripts/gen_templates.py`)
_LIBRARY = {(nvars, table): _Template(name, cost, nodes, out)
            for nvars, table, name, cost, nodes, out in _TEMPLATE_ROWS}
_MASKS = [_enum_masks(nv) for nv in range(4)]
_FLIPS = [(0, (1 << (1 << nv)) - 1) for nv in range(4)]  # per leaf count: (0, full)


def _probe_shape(tpl: _Template) -> tuple[int, tuple]:
    """(nodes over other template nodes, which never match an existing
    node; the other nodes' edges as (leaf variable, complement) pairs or
    (-1, constant edge))."""
    leaf_nodes = tuple(
        tuple((-2 - (e >> 1), e & 1) if e >> 1 < REF_ZERO else (-1, e) for e in nd)
        for nd in tpl.nodes if max(nd) < 0)
    return len(tpl.nodes) - len(leaf_nodes), leaf_nodes


# each library template's shape, as `_probe` and `_group_gain` read it
_SHAPES = {t: _probe_shape(t) for t in _LIBRARY.values()}


# --- mutable working form -----------------------------------------------------


def _node_table(nd: tuple[int, int, int], vals: dict, flip: tuple[int, int]) -> int:
    """The truth table of a node with edges `nd`: the majority of its
    refs' tables in `vals`, each complemented through `flip`."""
    e0, e1, e2 = nd
    x = vals[e0 >> 1] ^ flip[e0 & 1]
    y = vals[e1 >> 1] ^ flip[e1 & 1]
    z = vals[e2 >> 1] ^ flip[e2 & 1]
    return (x & y) | (x & z) | (y & z)


def _const_pair(nd) -> tuple[int, int] | None:
    """The sorted refs of a node's other two edges when exactly one of
    its edges is the constant, else None."""
    refs = sorted([e >> 1 for e in nd if e >> 1 != REF_ZERO])
    return (refs[0], refs[1]) if len(refs) == 2 and refs[0] != refs[1] else None


class _Builder:
    def __init__(self, input_count: int):
        self.input_count = input_count
        self.nodes: list[tuple[int, int, int] | None] = []
        self.outputs: list[int] = []
        self.repl: dict[int, int] = {}

    @classmethod
    def from_graph(cls, g: MajGraph) -> "_Builder":
        b = cls(g.input_count)
        b.nodes = list(g.packed_nodes)
        b.outputs = list(g.packed_outputs)
        return b

    def to_graph(self) -> MajGraph:
        return MajGraph(self.input_count, self.nodes, self.outputs)

    def resolve(self, e: int) -> int:
        while True:
            r = e >> 1
            if r < 0:
                return e
            t = self.repl.get(r)
            if t is None:
                return e
            e = t ^ (e & 1)

    # -- canonicalize + absorb + hash-cons ------------------------------------

    def clean(self, counts: Counter):
        key2node: dict[tuple[int, int, int], int] = {}
        repl = self.repl
        for i, nd in enumerate(self.nodes):
            if nd is None:
                continue
            # 1 is ~0, so edges need no folding; only replaced children need resolving
            e0, e1, e2 = key = nd
            if e0 >> 1 in repl or e1 >> 1 in repl or e2 >> 1 in repl:
                e0, e1, e2 = key = tuple(sorted([self.resolve(e) for e in nd]))
            elif not e0 <= e1 <= e2:
                e0, e1, e2 = key = tuple(sorted(nd))
            simp = None
            rule = None
            if e0 == e1 or e1 == e2:
                simp = e1
                rule = "absorb_equal"
            elif (e0 >> 1) == (e1 >> 1):  # sorted: complement pairs (0, 1 too) are adjacent
                simp, rule = e2, "absorb_complement"
            elif (e1 >> 1) == (e2 >> 1):
                simp, rule = e0, "absorb_complement"
            if simp is not None:
                self.repl[i] = simp
                self.nodes[i] = None
                counts[rule] += 1
                continue
            hit = key2node.get(key)
            if hit is not None:
                self.repl[i] = hit << 1
                self.nodes[i] = None
                counts["cse"] += 1
            else:
                key2node[key] = i
                self.nodes[i] = key
        self.outputs = [self.resolve(e) for e in self.outputs]

    def compact(self, counts: Counter):
        """Drop dead nodes and renumber in a DFS topological order.

        Resolves replacement chains while traversing: rewrites may leave
        early nodes pointing at late replacements, so list order is not a
        valid topological order here.
        """
        alive_before = sum(1 for nd in self.nodes if nd is not None)
        nodes, repl = self.nodes, self.repl
        order: list[int] = []
        visited = bytearray(len(nodes))
        stack: list[int] = []  # node r to visit, or ~r once its children are ordered
        for e in reversed(self.outputs):
            r = self.resolve(e) >> 1
            if r >= 0:
                stack.append(r)
        while stack:
            r = stack.pop()
            if r < 0:
                order.append(~r)
                continue
            if visited[r]:
                continue
            visited[r] = 1
            stack.append(~r)
            for e in reversed(nodes[r]):
                cr = e >> 1
                if cr in repl:
                    cr = self.resolve(e) >> 1
                if cr >= 0 and not visited[cr]:
                    stack.append(cr)
        mapping = {old: new for new, old in enumerate(order)}

        def remap(e: int) -> int:
            if e >> 1 in repl:
                e = self.resolve(e)
            r = e >> 1
            if r < 0:
                return e
            return (mapping[r] << 1) | (e & 1)

        self.nodes = [tuple([e if e < 0 else mapping[e >> 1] << 1 | (e & 1)
                             if e >> 1 not in repl else remap(e) for e in nodes[old]])
                      for old in order]
        self.outputs = [remap(e) for e in self.outputs]
        self.repl = {}
        counts["dead_node"] += alive_before - len(order)

    def clean_compact(self, counts: Counter):
        self.clean(counts)
        self.compact(counts)

    # -- complement pushing via self-duality ----------------------------------

    def dual_push(self, counts: Counter):
        n = len(self.nodes)
        total_refs = [0] * n
        neg_refs = [0] * n
        for nd in self.nodes:
            for e in nd:
                r = e >> 1
                if r >= 0:
                    total_refs[r] += 1
                    neg_refs[r] += e & 1
        for e in self.outputs:
            r = e >> 1
            if r >= 0:
                total_refs[r] += 1
                neg_refs[r] += e & 1
        flipped = [False] * n
        for i, nd in enumerate(self.nodes):
            negs = 0
            nonconst = 0
            for e in nd:
                r = e >> 1
                if r == REF_ZERO:
                    continue
                nonconst += 1
                negs += (e & 1) ^ (r >= 0 and flipped[r])
            before = negs + neg_refs[i]
            after = (nonconst - negs) + (total_refs[i] - neg_refs[i])
            if after < before:
                flipped[i] = True
                counts["dual_push"] += 1
        if not any(flipped):
            return
        for i, nd in enumerate(self.nodes):
            self.nodes[i] = tuple(sorted([
                e ^ flipped[i] ^ (e >= 0 and flipped[e >> 1]) for e in nd]))
        self.outputs = [e ^ (e >= 0 and flipped[e >> 1]) for e in self.outputs]

    # -- adder cells -------------------------------------------------------------

    def adder_cells(self, counts: Counter) -> bool:
        """Rebuild each full adder of a lowered graph as `_ADDER_CELL`, in
        one pass and without enumerating cuts.  Run after `clean`, which
        merges the nodes the sum and the carry share.

        An XOR2 is lowering's shape M(~M(a,b,0), M(a,b,1), 0) up to
        complements (`_xor2s`), and an XOR3 an XOR2 that reads an XOR2
        over two other leaves (`_xor3`).  Their cones and tables are read
        off those shapes; the `_cone_table` walk stays the route for any
        other cone.  The XOR3's carry is a node reading its cone whose own
        cone, at most _CONE_CAP nodes over the same three leaves, is MAJ
        up to leaf and output complements (`_carry_of`).  A pair whose
        cones free more nodes than the cell needs is replaced by the cell
        over the leaves as the carry reads them.  The cell's c is the
        complemented leaf if there is one, since t's complement of c then
        cancels it, else the XOR3's outer operand (a ripple chain's
        carry-in).  The cell takes the places of the first three freed
        nodes, so the graph keeps the order a builder emitting the cell
        would have given it, which is the order compaction and the
        scheduler sweep start from.
        """
        nodes = self.nodes
        xor2 = self._xor2s()
        fanout = self._fanout()
        taken: set[int] = set()  # the nodes the pairs chosen so far free
        cells = []
        for s, (u, v, _, _) in xor2.items():
            for inner, c in ((u, v), (v, u)):
                found = xor2.get(inner)
                if found is None or c == found[0] or c == found[1]:
                    continue
                leaves = [found[0], found[1], c]
                cone, table = self._xor3(s, inner, leaves, xor2)
                if table not in (0x96, 0x69) or not taken.isdisjoint(cone):  # XOR3, XNOR3
                    continue
                carry = self._carry_of(cone, leaves, fanout, taken)
                if carry is None:
                    continue
                m, flips, cone_union = carry
                dying = self._dying_set([s, m], cone_union, fanout)
                if len(dying) > len(_ADDER_CELL.nodes):
                    taken |= dying
                    cells.append((s, m, leaves, table & 1, flips, dying))
                    break
        for s, m, leaves, sum_flip, (fa, fb, fc, carry_flip), dying in cells:
            lits = [leaves[0] << 1 | fa, leaves[1] << 1 | fb, leaves[2] << 1 | fc]
            if fa or fb:  # the complemented leaf becomes c
                j = 0 if fa else 1
                lits[j], lits[2] = lits[2], lits[j]
            freed = sorted(dying - {s, m})
            for k in freed:
                nodes[k] = None
            counts["dead_node"] += len(freed)
            slots = freed[:3]
            if len(slots) < 3 or max(leaves) > slots[0]:
                slots = range(len(nodes), len(nodes) + 3)
                nodes.extend([None] * 3)

            def edge(e: int) -> int:  # cell edge -> builder edge
                r = e >> 1
                return lits[-2 - r] ^ (e & 1) if r < REF_ZERO else slots[r] << 1 | (e & 1)

            for k, nd in zip(slots, _ADDER_CELL.nodes):
                nodes[k] = tuple(sorted(map(edge, nd)))
            # XOR3 over the complemented leaves is the sum flipped once per flip
            self.repl[s] = edge(_ADDER_CELL.out) ^ sum_flip ^ fa ^ fb ^ fc
            self.repl[m] = edge(_CARRY) ^ carry_flip
            nodes[s] = nodes[m] = None
            counts["adder_cell"] += 1
        return bool(cells)

    def _xor2s(self) -> dict[int, tuple[int, int, tuple[int, int], int]]:
        """Node -> (a, b, its kids, 1 for an XNOR else 0) of each node of
        lowering's XOR shape M(~M(a,b,0), M(a,b,1), 0) up to complements,
        with a < b and the kids in ref order.  Its cone over leaves a and b
        is the node and its kids, which read only a, b and the constant, so
        its table (what `_cone_table(node, (a, b), 3)` walks) is read off
        those three nodes' edges.  `_const_pair` runs once per node."""
        nodes = self.nodes
        pairs = [None if nd is None else _const_pair(nd) for nd in nodes]
        masks, flip = _MASKS[2], _FLIPS[2]
        xor2 = {}
        for i, kids in enumerate(pairs):
            if kids is None or kids[0] < 0:
                continue
            pair = pairs[kids[0]]
            if pair is None or pair != pairs[kids[1]]:
                continue
            a, b = pair
            vals = {REF_ZERO: 0, a: masks[0], b: masks[1]}
            for k in kids:
                vals[k] = _node_table(nodes[k], vals, flip)
            table = _node_table(nodes[i], vals, flip)
            if table in (0b0110, 0b1001):
                xor2[i] = (a, b, kids, table & 1)
        return xor2

    def _xor3(self, s: int, inner: int, leaves: list[int],
              xor2: dict) -> tuple[set[int], int | None]:
        """`_cone_table(s, leaves, _CONE_CAP)` for the XOR2 s over the XOR2
        `inner` and leaves[2], `inner` being over leaves[0] and leaves[1].
        The cone is s, `inner` and their kids, and the table XNOR3 when
        exactly one of the two is an XNOR2, else XOR3.  When leaves[2] is
        one of inner's kids the walk stops at it, so that cone and its
        table differ, and are walked."""
        _, _, kids, xnor = xor2[inner]
        if leaves[2] in kids:
            return self._cone_table(s, leaves, self._CONE_CAP)
        _, _, s_kids, s_xnor = xor2[s]
        return {s, *s_kids, inner, *kids}, 0x69 if xnor ^ s_xnor else 0x96

    def _carry_of(self, cone: set[int], leaves: list[int], fanout: list[list[int]],
                  taken: set[int]) -> tuple[int, tuple, set[int]] | None:
        """(the first node outside `cone` and `taken` that reads it and
        whose function over `leaves` is MAJ up to complements, its
        `_MAJ_FLIPS` entry, its cone united with `cone`), or None.

        `cone` is the XOR3's, which reads only `leaves`, the constant and
        itself: its nodes are evaluated over the leaves once, in index
        order.  A candidate whose three edges read only those nodes, the
        leaves or the constant gets its table from one majority, and adds
        only itself to the cone.  Any other candidate, such as a carry
        outside lowering's shape, is walked (`_cone_table`)."""
        nodes = self.nodes
        n = len(nodes)  # the graph outputs' entry in `fanout`
        near = {f for k in cone for f in fanout[k]}
        vals = dict(zip(leaves, _MASKS[3]))
        vals[REF_ZERO] = 0
        flip = _FLIPS[3]
        for k in sorted(cone):
            vals[k] = _node_table(nodes[k], vals, flip)
        for m in sorted(near - cone - taken):
            if m < n:
                e0, e1, e2 = nd = nodes[m]
                if e0 >> 1 in vals and e1 >> 1 in vals and e2 >> 1 in vals:
                    flips = _MAJ_FLIPS.get(_node_table(nd, vals, flip))
                    if flips is not None:
                        return m, flips, cone | {m}
                    continue
                carry_cone, table = self._cone_table(m, leaves, self._CONE_CAP)
                flips = _MAJ_FLIPS.get(table)
                if flips is not None:
                    return m, flips, cone | carry_cone
        return None

    # -- cut rewriting ----------------------------------------------------------

    _CUT_CAP = 6
    _CONE_CAP = 16

    def _node_cuts(self, nd: tuple[int, int, int], options: dict) -> tuple:
        """The pruned <= 3-leaf cuts of a node, as leaf bitmasks and as
        sorted ref tuples, merged from its children's `options`.

        A cut's bitmask sets bit r + input_count + 2 for each leaf ref r,
        so bit order is ref order: a merge is one `|` and a size check,
        and a cut k is contained in a cut c when `k & c == k`.  The
        smallest cuts not containing another are kept, at most _CUT_CAP;
        when more qualify, ties in size go to the leaf sets that come first
        by ref.  A ref tuple is made for each kept cut only.
        """
        e0, e1, e2 = nd
        o2, o3 = options[e1 >> 1], options[e2 >> 1]
        merged = set()
        for c1 in options[e0 >> 1]:
            for c2 in o2:
                u12 = c1 | c2
                if u12.bit_count() > 3:
                    continue
                for c3 in o3:
                    u = u12 | c3
                    if u.bit_count() <= 3:
                        merged.add(u)
        keep: list[int] = []
        for c in sorted(merged, key=int.bit_count):
            for k in keep:
                if k & c == k:
                    break
            else:
                keep.append(c)
        base = self.input_count + 3  # ref r's bit has bit_length r + base
        cuts = []
        for c in keep:  # its bits, lowest first: none for a node over constants
            low = c & -c
            rest = c ^ low
            if not rest:
                cuts.append((low.bit_length() - base,) if low else ())
                continue
            mid = rest & -rest
            high = rest ^ mid
            cuts.append((low.bit_length() - base, mid.bit_length() - base) if not high else
                        (low.bit_length() - base, mid.bit_length() - base,
                         high.bit_length() - base))
        if len(keep) > self._CUT_CAP:
            kept = sorted(zip(keep, cuts), key=lambda kc: (len(kc[1]), kc[1]))[:self._CUT_CAP]
            keep, cuts = [k for k, _ in kept], [cut for _, cut in kept]
        return keep, tuple(cuts)

    def _cut_records(self) -> dict[tuple[int, ...], list[tuple]]:
        """The cut records with a template, grouped by cut, each group in
        node order, of every node's pruned cuts, which are enumerated in
        index order from the children's as leaf bitmasks (`_node_cuts`).

        A cut is a sorted tuple of leaf refs: node indices and input refs.
        A cut record is (cone indices, truth table, template, root index),
        the cone and table found by walking the root's cone down to the
        cut (`_cone_table`), or read off the root's edges when they all
        are leaves or the constant; a cone of more than _CONE_CAP nodes has
        no record.
        """
        off = self.input_count + 2  # ref r's bit in a cut's bitmask
        # per ref, its cuts as bitmasks followed by its trivial cut
        options: dict = {r: (1 << r + off,) for r in range(-2, -2 - self.input_count, -1)}
        options[REF_ZERO] = (0,)
        by_cut: dict[tuple[int, ...], list[tuple]] = {}
        for i, nd in enumerate(self.nodes):
            masks, node_cuts = self._node_cuts(nd, options)
            for cut in node_cuts:
                if cut:  # a node over constants only has an empty cut
                    cone, table = self._cone_table(i, cut, self._CONE_CAP)
                    tpl = _LIBRARY.get((len(cut), table))  # None for a None table
                    if tpl is not None:
                        by_cut.setdefault(cut, []).append((cone, table, tpl, i))
            masks.append(1 << i + off)
            options[i] = masks
        return by_cut

    def _cone_table(self, i: int, leaves: list[int] | tuple[int, ...],
                    cap: int) -> tuple[set[int], int | None]:
        """(indices of the cone of node i down to the refs `leaves`, its
        truth table with leaves[v] as variable v).  The table is None, and
        the cone the nodes walked, once more than `cap` nodes are walked
        or the cone reads an input that is not a leaf.

        A root whose three edges read only leaves and the constant is a
        one-node cone: its table is read off those edges, with no walk.
        Any other cone is walked down to the leaves and simulated in index
        order.
        """
        nodes = self.nodes
        nv = len(leaves)
        masks, flip = _MASKS[nv], _FLIPS[nv]  # flip: complement bit -> xor mask
        e0, e1, e2 = nodes[i]
        r0, r1, r2 = e0 >> 1, e1 >> 1, e2 >> 1
        if ((r0 in leaves or r0 == REF_ZERO) and (r1 in leaves or r1 == REF_ZERO)
                and (r2 in leaves or r2 == REF_ZERO)):
            x = (masks[leaves.index(r0)] if r0 != REF_ZERO else 0) ^ flip[e0 & 1]
            y = (masks[leaves.index(r1)] if r1 != REF_ZERO else 0) ^ flip[e1 & 1]
            z = (masks[leaves.index(r2)] if r2 != REF_ZERO else 0) ^ flip[e2 & 1]
            return {i}, (x & y) | (x & z) | (y & z)
        vals = dict(zip(leaves, masks))  # the walk stops at these refs
        vals[REF_ZERO] = 0
        seen = {i}
        stack = [i]
        while stack:
            for e in nodes[stack.pop()]:
                r = e >> 1
                if r in vals or r in seen:
                    continue
                if r < 0:
                    return seen, None
                seen.add(r)
                if len(seen) > cap:
                    return seen, None
                stack.append(r)
        for k in sorted(seen):
            e0, e1, e2 = nodes[k]
            x = vals[e0 >> 1] ^ flip[e0 & 1]
            y = vals[e1 >> 1] ^ flip[e1 & 1]
            z = vals[e2 >> 1] ^ flip[e2 & 1]
            vals[k] = (x & y) | (x & z) | (y & z)
        return seen, vals[i]

    def _dying_set(self, roots: list[int], cone_union: set[int],
                   fanout: list[list[int]]) -> set[int]:
        """Cone nodes whose every consumer also dies once `roots` are replaced."""
        dying = set(roots)
        for m in sorted(cone_union - dying, reverse=True):
            if all(f in dying for f in fanout[m]):
                dying.add(m)
        return dying

    @staticmethod
    def _probe(rec: tuple, leaves: tuple[int, ...], key_map: dict) -> list[tuple]:
        """(edges, existing node with them or None) per leaf-only node of
        the record's template."""
        found = []
        for spec in _SHAPES[rec[2]][1]:
            edges = tuple(sorted([(leaves[v] << 1) | b if v >= 0 else b for v, b in spec]))
            found.append((edges, key_map.get(edges)))
        return found

    def _group_gain(self, group: tuple, leaves: tuple[int, ...], fanout: list[list[int]],
                    key_map: dict) -> tuple | None:
        """(nodes freed minus new nodes needed after structural sharing,
        cone indices, dying indices) of rewriting the roots of a group of
        cut records, or None when that gain is not positive.

        A template node over leaves only is free when an existing node
        outside the dying set has its edges; a node over other template
        nodes never is.  At most every cone node is freed, so the dying
        set is computed only when that bound leaves a positive gain.  A
        single record's template nodes are probed in place; a group's are
        probed once per distinct edges (`_probe`).
        """
        if len(group) == 1:
            cone, _, tpl, root = group[0]
            need, specs = _SHAPES[tpl]  # new nodes, so far the deep ones
            found = []  # the existing nodes other than the root that a probe hits
            for spec in specs:
                h = key_map.get(tuple(sorted([(leaves[v] << 1) | b if v >= 0 else b
                                              for v, b in spec])))
                if h is None or h == root:
                    need += 1
                else:
                    found.append(h)
            if len(cone) <= need:
                return None
            dying = self._dying_set([root], cone, fanout)
            for h in found:
                need += h in dying
            gain = len(dying) - need
            return (gain, cone, dying) if gain > 0 else None
        cone = set().union(*(rec[0] for rec in group))
        shapes = {rec[2].nodes: _SHAPES[rec[2]] for rec in group}
        deep = sum(shape[0] for shape in shapes.values())
        unique: dict = {}  # one template node per distinct edges
        for rec in group:
            unique.update(self._probe(rec, leaves, key_map))
        hits = list(unique.values())
        roots = [rec[3] for rec in group]
        shared = 0
        for h in hits:
            if h is not None and h not in roots:
                shared += 1
        if len(cone) - deep - len(hits) + shared <= 0:
            return None
        dying = self._dying_set(roots, cone, fanout)
        gain = len(dying) - deep - sum(1 for h in hits if h is None or h in dying)
        return (gain, cone, dying) if gain > 0 else None

    def _instantiate(self, tpl: _Template, leaves, dying: set[int],
                     key_map: dict, removed: set[int]) -> int:
        made: list[int] = []  # builder index of each template node so far

        def edge(e: int) -> int:  # template edge -> builder edge
            r = e >> 1
            if r < REF_ZERO:  # leaf variable -2 - r
                return leaves[-2 - r] << 1 | (e & 1)
            return made[r] << 1 | (e & 1) if r >= 0 else e

        for nd in tpl.nodes:
            edges = tuple(sorted(map(edge, nd)))
            if max(nd) < 0:  # leaves only: an existing node may have the edges
                hit = key_map.get(edges)
                if hit is not None and hit not in dying and hit not in removed:
                    made.append(hit)
                    continue
            idx = len(self.nodes)
            self.nodes.append(edges)
            key_map[edges] = idx
            made.append(idx)
        return edge(tpl.out)

    def _fanout(self) -> list[list[int]]:
        """Consumer indices per node; len(nodes) stands for a graph output."""
        n = len(self.nodes)
        fanout: list[list[int]] = [[] for _ in range(n)]
        for i, nd in enumerate(self.nodes):
            for e in nd or ():
                r = e >> 1
                if r >= 0:
                    fanout[r].append(i)
        for e in self.outputs:
            r = e >> 1
            if r >= 0:
                fanout[r].append(n)
        return fanout

    def cut_rewrite(self, counts: Counter):
        """Match small cones against the template library and replace them.

        Roots sharing one cut are grouped and rewritten jointly, so
        structures like a full adder (XOR3 sum + majority carry over the
        same three leaves) collapse even though neither root's fanout-free
        cone pays for the rewrite alone.  Every call enumerates the cuts
        afresh as leaf bitmasks and reads each kept cut's record off its
        root's edges or its cone's walk (`_cut_records`).  Replaced roots
        and dead nodes stay for the `clean_compact` that ends the round.
        """
        fanout = self._fanout()
        by_cut = self._cut_records()
        key_map: dict = {}
        for i, nd in enumerate(self.nodes):
            key_map.setdefault(tuple(sorted(nd)), i)

        candidates = []
        for cut, recs in by_cut.items():
            if len(recs) == 1 and len(recs[0][0]) == 1:
                # a lone one-node cone gains only when another node has its
                # template's edges; that node reads these leaves, so it
                # normally has a record here too and the cut is a group
                continue
            groups = [tuple(recs)]
            if len(recs) > 1:
                groups.extend((rec,) for rec in recs)
            for group in groups:
                g = self._group_gain(group, cut, fanout, key_map)
                if g is not None:
                    gain, cone, dying = g
                    candidates.append((
                        -gain, tuple(rec[3] for rec in group), cut,
                        tuple((rec[3], rec[2]) for rec in group),
                        cone, dying))
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        removed: set[int] = set()
        for _, roots, leaves, group, cone_union, dying in candidates:
            # leaves may reference replaced roots (the replacement edge
            # resolves), but an already-rewritten cone interior invalidates
            # the gain accounting for this candidate
            if cone_union & removed:
                continue
            for root, tpl in group:
                self.repl[root] = self._instantiate(tpl, leaves, dying, key_map, removed)
                self.nodes[root] = None
                counts[tpl.name] += 1
            removed |= dying


# --- reporting and the optimize loop -----------------------------------------


class SynthesisReport(NamedTuple):
    """Before/after figures of one `optimize` call.  The activation counts
    are those of the scheduled program, None for a graph that does not
    fit the subarray."""

    node_count_before: int
    node_count_after: int
    depth_before: int
    depth_after: int
    estimated_activations_before: int | None
    estimated_activations_after: int | None
    rules_applied: tuple[tuple[str, int], ...]

    def render(self) -> str:
        lines = [
            f"nodes:       {self.node_count_before} -> {self.node_count_after}",
            f"depth:       {self.depth_before} -> {self.depth_after}",
            "activations: "
            f"{self.estimated_activations_before} -> {self.estimated_activations_after}"
            " (scheduled)",
        ]
        if self.rules_applied:
            applied = ", ".join(f"{name} x{cnt}" for name, cnt in self.rules_applied)
            lines.append(f"rules:       {applied}")
        return "\n".join(lines)


def _metric(g: MajGraph, cfg: SubarrayConfig) -> tuple[bool, int, int]:
    """(does_not_fit, scheduled activations or 0, nodes)."""
    try:
        return (False, estimate_cost_static(g, cfg), g.node_count)
    except CapacityError:
        return (True, 0, g.node_count)


def _rounds(graph: MajGraph, graph_m: tuple, passes: int,
            cfg: SubarrayConfig) -> tuple[MajGraph, tuple, Counter]:
    """(best graph, its `_metric`, the rules of its accepted rounds) after
    a round of the adder-cell pass and up to `passes` rewrite rounds from
    `graph`, whose metric is `graph_m`.

    The cell round is `clean`, `adder_cells`, `clean_compact`; a rewrite
    round is `dual_push`, `cut_rewrite`, `clean_compact`, so the next
    round starts from a compacted builder.  The cell round is scored only
    when it finds a full adder, but the rounds after it go on from its
    graph even when it is not kept, and then its rules count with the
    first round that is.  The rounds stop at the first rewrite round that
    is not kept, and before the `clean_compact` of a rewrite round that
    starts from the last kept graph and applies no rule: compacting that
    graph again could only reorder it.
    """
    best, best_m, rules = graph, graph_m, Counter()
    b = _Builder.from_graph(graph)  # rewritten in place, round after round
    round_counts: Counter = Counter()
    at_best = False  # the builder holds `best`, and `round_counts` is empty
    for k in range(passes + 1):
        if k == 0:
            b.clean(round_counts)
            found = b.adder_cells(round_counts)
            b.clean_compact(round_counts)
            if not found:
                continue
        else:
            b.dual_push(round_counts)
            b.cut_rewrite(round_counts)
            if at_best and not round_counts.total():
                break
            b.clean_compact(round_counts)
        candidate = b.to_graph()
        m = _metric(candidate, cfg)
        at_best = m < best_m
        if at_best:
            best, best_m = candidate, m
            rules.update(round_counts)
            round_counts = Counter()
        elif k:
            break
    return best, best_m, rules


def optimize(graph: MajGraph, effort: int = 2,
             cfg: SubarrayConfig = DEFAULT_SUBARRAY) -> tuple[MajGraph, SynthesisReport]:
    """Rewrite `graph` to reduce the activations of its scheduled program.

    The objective is `estimate_cost_static`: the activation count of the
    program `schedule` emits under `cfg`, spills included.  effort 0:
    identity; effort 1: the adder-cell round, then one greedy pass;
    effort 2: the adder-cell round, then iterate to a fixpoint (64-pass
    cap), which ends at the first rewrite round that applies no rule.
    Each scored round cleans and compacts the graph once, at its end
    (`_rounds`).  Rounds that fail to strictly improve (does_not_fit,
    activations, nodes) are rolled back, so the result is never worse
    than the input, and never fails to fit when the input fits.  A cell
    round that does not improve is not kept, but the rounds go on from
    its graph.  Depth enters only the report: one walk of the input and
    one of the result.
    """
    if type(effort) is not int or effort not in (0, 1, 2):  # a bool is not one
        raise ValueError(f"effort must be 0, 1, or 2, got {effort!r}")
    rules: Counter = Counter()
    best = graph
    before = best_m = _metric(graph, cfg)
    if effort > 0:
        best, best_m, rules = _rounds(graph, before, 1 if effort == 1 else 64, cfg)
    report = SynthesisReport(
        node_count_before=before[2],
        node_count_after=best_m[2],
        depth_before=graph.depth(),
        depth_after=best.depth(),
        estimated_activations_before=None if before[0] else before[1],
        estimated_activations_after=None if best_m[0] else best_m[1],
        rules_applied=tuple(sorted(rules.items())),
    )
    return best, report


# --- rule library self-check ---------------------------------------------------


class RewriteRule(NamedTuple):
    """A truth-preserving identity over a handful of variables.

    Each default rule is the checkable statement of an identity a pass
    applies (lhs and rhs must have identical truth tables), named as
    `optimize` counts it in `SynthesisReport.rules_applied`; `commute` is
    the edge canonicalization every pass applies uncounted, and
    `const_fold` holds by the edge encoding itself.
    """

    name: str
    lhs: MajGraph
    rhs: MajGraph


class RuleCheck(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _default_rules() -> tuple[RewriteRule, ...]:
    a, b, c = ((-2 - i) << 1 for i in range(3))  # inputs 0-2
    n0, n1 = 0, 2  # nodes 0-1
    rules = [
        RewriteRule(  # clean: edges are kept sorted
            "commute",
            MajGraph(3, [(a, b, c)], [n0]),
            MajGraph(3, [(c, a, b)], [n0]),
        ),
        RewriteRule(  # the encoding: ~0 and 1 are one edge
            "const_fold",
            MajGraph(2, [(a, b, EDGE_ZERO ^ 1)], [n0]),
            MajGraph(2, [(a, b, EDGE_ONE)], [n0]),
        ),
        RewriteRule(
            "absorb_equal",
            MajGraph(2, [(a, a, b)], [n0]),
            MajGraph(2, [], [a]),
        ),
        RewriteRule(
            "absorb_complement",
            MajGraph(2, [(a, a ^ 1, b)], [n0]),
            MajGraph(2, [], [b]),
        ),
        RewriteRule(  # the constant pair: 1 is ~0
            "absorb_complement",
            MajGraph(1, [(EDGE_ZERO, EDGE_ONE, a)], [n0]),
            MajGraph(1, [], [a]),
        ),
        RewriteRule(
            "cse",
            MajGraph(3, [(a, b, c), (a, b, c)], [n0, n1]),
            MajGraph(3, [(a, b, c)], [n0, n0]),
        ),
        RewriteRule(
            "dead_node",
            MajGraph(3, [(a, b, c), (a, b, EDGE_ZERO)], [n0]),
            MajGraph(3, [(a, b, c)], [n0]),
        ),
        RewriteRule(
            "dual_push",
            MajGraph(3, [(a, b, c)], [n0 ^ 1]),
            MajGraph(3, [(a ^ 1, b ^ 1, c ^ 1)], [n0]),
        ),
        RewriteRule(  # the lowered full adder's sum and carry are the cell's
            "adder_cell",
            lower_to_maj(parse_netlist(
                "inputs 3\ng0 = XOR in0 in1\ng1 = XOR g0 in2\ng2 = AND in0 in1\n"
                "g3 = AND g0 in2\ng4 = OR g2 g3\noutputs g1 g4\n")),
            MajGraph(3, _ADDER_CELL.nodes, [_ADDER_CELL.out, _CARRY]),
        ),
    ]
    return tuple(rules)


def verify_rules(rules: tuple[RewriteRule, ...] | None = None) -> list[RuleCheck]:
    """Exhaustively check every rewrite rule.  The default set adds one
    check per cut-rewrite template name, auditing every library template
    of that name against the truth table it is filed under."""
    checks = []
    for rule in rules if rules is not None else _default_rules():
        if rule.lhs.input_count > 5:
            checks.append(RuleCheck(rule.name, False, "rule exceeds 5 variables"))
            continue
        try:
            ok = equivalent(rule.lhs, rule.rhs)
        except (PumError, TableSizeError) as e:
            checks.append(RuleCheck(rule.name, False, str(e)))
            continue
        detail = "" if ok else "truth tables differ"
        checks.append(RuleCheck(rule.name, ok, detail))
    if rules is None:
        bad: dict[str, list] = {}
        for (nvars, table), tpl in sorted(_LIBRARY.items()):
            wrong = bad.setdefault(tpl.name, [])
            graph = MajGraph(nvars, tpl.nodes, (tpl.out,))
            if truth_table(graph).masks != (table,):
                wrong.append((nvars, table))
        for name, wrong in bad.items():
            checks.append(RuleCheck(
                name,
                not wrong,
                "" if not wrong else f"{len(wrong)} templates disagree: {wrong[:3]}",
            ))
    return checks
