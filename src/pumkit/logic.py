"""Gate-level and majority-level logic representations.

Two DAG forms carry an operation through the pipeline:

* ``Netlist``  -- AND/OR/NOT/XOR gates; the functional reference for an
  operation and the input to lowering.
* ``MajGraph`` -- three-input majority nodes with complementable edges;
  the only form the row-activation backend accepts.

Both evaluate bit-parallel: a value is a Python int whose bit ``c`` is
lane ``c``.  Truth tables and equivalence checks ride on the same bulk
evaluator with standard enumeration masks, so exhaustive comparison is
cheap up to the 16-input guard.

Inside the toolkit a majority-graph edge is one packed int, the
complemented-edge literal ``ref << 1 | neg``: node k is ref ``k``, the
constant is ``-1`` and input i is ``-(2 + i)``, so ``e >> 1`` is the ref,
``e & 1`` the complement bit and ``e ^ 1`` the complemented edge.  As in
AIGER, constant 1 is the complemented constant 0, so no value has two
spellings.  Lowering, rewriting, scheduling and verification all work on
this form.  The ``(ref, complemented)`` string pairs (``"0"``,
``"1"``, ``"in<i>"``, ``"n<k>"``) are only the public view of a
``MajGraph``: its constructor parses them once, and ``nodes``/``outputs``
render them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import ArityError, NetlistFormatError, TableSizeError

MAX_TABLE_INPUTS = 16

GATE_ARITY = {"AND": 2, "OR": 2, "XOR": 2, "NOT": 1}

CONST_ZERO = "0"
CONST_ONE = "1"

# An edge is (ref, complemented).  Refs are "0", "1", "in<i>", and
# "g<j>" / "n<j>" for netlist gates / majority nodes.
Edge = tuple[str, bool]

# Digits a number in a netlist or `.up` text may have: no subarray has
# 10**18 rows, and int() refuses digit strings past a few thousand.
_MAX_DIGITS = 18


def _is_canonical_number(n: str) -> bool:
    """ASCII digits, no leading zero, so every number has exactly one
    spelling, and at most _MAX_DIGITS of them."""
    return (n.isascii() and n.isdigit() and (n[0] != "0" or n == "0")
            and len(n) <= _MAX_DIGITS)


def _is_plain_float_text(s: str) -> bool:
    """ASCII without underscores: `float` also reads digit-group
    underscores and any Unicode decimal digits, which this rules out."""
    return s.isascii() and "_" not in s


def _numbered(ref: str, prefix: str) -> bool:
    """`ref` is `prefix` followed by a canonical number."""
    return ref.startswith(prefix) and _is_canonical_number(ref[len(prefix):])


def input_index(ref: str) -> int | None:
    return int(ref[2:]) if _numbered(ref, "in") else None


# Packed ref of the constant: edge REF_ZERO << 1 is 0 and its complement
# is 1.  Input i is ref -(2 + i), node k is k.
REF_ZERO = -1


def ref_name(r: int) -> str:
    """String form of a packed ref: "0", "in<i>" or "n<k>"."""
    if r >= 0:
        return f"n{r}"
    if r == REF_ZERO:
        return CONST_ZERO
    return f"in{-2 - r}"


def _edge_view(e: int) -> Edge:
    if e >> 1 == REF_ZERO:  # a constant renders uncomplemented
        return (CONST_ONE if e & 1 else CONST_ZERO, False)
    return (ref_name(e >> 1), bool(e & 1))


def _maj(x: int, y: int, z: int) -> int:
    return (x & y) | (x & z) | (y & z)


def _enum_masks(n: int) -> list[int]:
    """Enumeration patterns: bit t of mask i equals bit i of t."""
    total = 1 << n
    all_ones = (1 << total) - 1
    masks = []
    for i in range(n):
        block = 1 << i
        masks.append((all_ones // ((1 << block) + 1)) << block)
    return masks


@dataclass(frozen=True)
class Gate:
    gid: str
    kind: str
    operands: tuple[str, ...]


class Netlist:
    """Topologically ordered AND/OR/NOT/XOR gate DAG."""

    __slots__ = ("input_count", "gates", "outputs")

    def __init__(self, input_count: int, gates: Sequence[Gate], outputs: Sequence[str]):
        if input_count < 0:
            raise ArityError("input count must be non-negative")
        defined: set[str] = set()
        for g in gates:
            if not _numbered(g.gid, "g"):
                raise NetlistFormatError(f"bad gate id {g.gid!r}")
            if g.gid in defined:
                raise NetlistFormatError(f"duplicate gate id {g.gid!r}")
            if g.kind not in GATE_ARITY:
                raise NetlistFormatError(f"unknown gate kind {g.kind!r}")
            if len(g.operands) != GATE_ARITY[g.kind]:
                raise ArityError(
                    f"{g.gid}: {g.kind} takes {GATE_ARITY[g.kind]} operands, got {len(g.operands)}"
                )
            for ref in g.operands:
                self._check_ref(ref, input_count, defined, g.gid)
            defined.add(g.gid)
        for ref in outputs:
            self._check_ref(ref, input_count, defined, "outputs")
        object.__setattr__(self, "input_count", input_count)
        object.__setattr__(self, "gates", tuple(gates))
        object.__setattr__(self, "outputs", tuple(outputs))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Netlist is immutable")

    def __reduce__(self):  # pickle through the constructor, not attribute restores
        return Netlist, (self.input_count, self.gates, self.outputs)

    @staticmethod
    def _check_ref(ref: str, input_count: int, defined: set[str], where: str):
        if ref in (CONST_ZERO, CONST_ONE):
            return
        idx = input_index(ref)
        if idx is not None:
            if idx >= input_count:
                raise NetlistFormatError(f"{where}: input {ref!r} out of range")
            return
        if _numbered(ref, "g"):
            if ref not in defined:
                raise NetlistFormatError(f"{where}: reference to undefined gate {ref!r}")
            return
        raise NetlistFormatError(f"{where}: unknown reference {ref!r}")

    @property
    def output_count(self) -> int:
        return len(self.outputs)

    def eval_bulk(self, words: Sequence[int], lanes: int) -> list[int]:
        """Evaluate all lanes at once; word i packs input i across lanes."""
        if len(words) != self.input_count:
            raise ArityError(f"expected {self.input_count} input words, got {len(words)}")
        mask = (1 << lanes) - 1
        env: dict[str, int] = {CONST_ZERO: 0, CONST_ONE: mask}
        for i, w in enumerate(words):
            env[f"in{i}"] = w & mask
        for g in self.gates:
            a = env[g.operands[0]]
            if g.kind == "NOT":
                env[g.gid] = a ^ mask
                continue
            b = env[g.operands[1]]
            if g.kind == "AND":
                env[g.gid] = a & b
            elif g.kind == "OR":
                env[g.gid] = a | b
            else:  # XOR
                env[g.gid] = a ^ b
        return [env[ref] for ref in self.outputs]

    def eval(self, assignment: Sequence[int]) -> tuple[int, ...]:
        if len(assignment) != self.input_count:
            raise ArityError(
                f"expected {self.input_count} input bits, got {len(assignment)}"
            )
        out = self.eval_bulk([b & 1 for b in assignment], 1)
        return tuple(out)


class MajGraph:
    """Majority-node DAG with complementable edges.

    Node k is referenced as ``n<k>``; each node holds exactly three
    operand edges.  Complements live on edges, never as explicit nodes.
    The graph is held as packed edges (``packed_nodes``/``packed_outputs``,
    see the module docstring); ``nodes``/``outputs`` render the string
    view from them on each access.
    """

    # _sweep: the scheduler's last command list for this graph, kept by
    # codegen.estimate_cost_static for codegen.schedule
    __slots__ = ("input_count", "packed_nodes", "packed_outputs", "_sweep")

    def __init__(
        self,
        input_count: int,
        nodes: Sequence[tuple[Edge, Edge, Edge]],
        outputs: Sequence[Edge],
    ):
        if input_count < 0:
            raise ArityError("input count must be non-negative")
        refs = {CONST_ZERO: REF_ZERO << 1, CONST_ONE: REF_ZERO << 1 | 1}
        refs.update((f"in{i}", (-2 - i) << 1) for i in range(input_count))

        def pack(edge: Edge, where: str) -> int:
            ref, neg = edge
            if ref not in refs:
                raise NetlistFormatError(
                    f"{where}: reference {ref!r} is not a constant, an input below "
                    f"{input_count} or an earlier node")
            return refs[ref] ^ bool(neg)

        packed = []
        for k, edges in enumerate(nodes):
            if len(edges) != 3:
                raise ArityError(f"n{k}: majority node takes exactly 3 edges")
            packed.append(tuple(pack(e, f"n{k}") for e in edges))
            refs[f"n{k}"] = k << 1
        packed_outputs = tuple(pack(e, "outputs") for e in outputs)
        self._init(input_count, tuple(packed), packed_outputs)

    @classmethod
    def _from_packed(cls, input_count: int, nodes: Sequence[tuple[int, int, int]],
                     outputs: Sequence[int]) -> "MajGraph":
        """Wrap packed edges as they are; the caller guarantees every ref is
        a constant, an input below `input_count` or an earlier node."""
        g = object.__new__(cls)
        g._init(input_count, tuple(nodes), tuple(outputs))
        return g

    def _init(self, input_count, packed_nodes, packed_outputs):
        object.__setattr__(self, "input_count", input_count)
        object.__setattr__(self, "packed_nodes", packed_nodes)
        object.__setattr__(self, "packed_outputs", packed_outputs)
        object.__setattr__(self, "_sweep", None)

    def __setattr__(self, name, value):
        raise AttributeError("MajGraph is immutable")

    def __reduce__(self):  # the packed edges only; _sweep is a cache
        return MajGraph._from_packed, (self.input_count, self.packed_nodes,
                                       self.packed_outputs)

    @property
    def nodes(self) -> tuple[tuple[Edge, Edge, Edge], ...]:
        return tuple(tuple(map(_edge_view, nd)) for nd in self.packed_nodes)

    @property
    def outputs(self) -> tuple[Edge, ...]:
        return tuple(map(_edge_view, self.packed_outputs))

    @property
    def output_count(self) -> int:
        return len(self.packed_outputs)

    @property
    def node_count(self) -> int:
        return len(self.packed_nodes)

    def depth(self) -> int:
        """Longest node chain from any input/constant to any output."""
        d: list[int] = []
        for nd in self.packed_nodes:
            d.append(1 + max(d[e >> 1] if e >= 0 else 0 for e in nd))
        return max((d[e >> 1] for e in self.packed_outputs if e >= 0), default=0)

    def eval_bulk(self, words: Sequence[int], lanes: int) -> list[int]:
        if len(words) != self.input_count:
            raise ArityError(f"expected {self.input_count} input words, got {len(words)}")
        mask = (1 << lanes) - 1
        leaf = [0] + [w & mask for w in words]  # ref r < 0 sits at -1 - r
        vals: list[int] = []

        def val(e: int) -> int:
            r = e >> 1
            v = vals[r] if r >= 0 else leaf[-1 - r]
            return v ^ mask if e & 1 else v

        for a, b, c in self.packed_nodes:
            vals.append(_maj(val(a), val(b), val(c)))
        return [val(e) for e in self.packed_outputs]

    def eval(self, assignment: Sequence[int]) -> tuple[int, ...]:
        if len(assignment) != self.input_count:
            raise ArityError(
                f"expected {self.input_count} input bits, got {len(assignment)}"
            )
        return tuple(self.eval_bulk([b & 1 for b in assignment], 1))


Circuit = Union[Netlist, MajGraph]


def eval_netlist(netlist: Netlist, assignment: Sequence[int]) -> tuple[int, ...]:
    return netlist.eval(assignment)


def eval_majgraph(graph: MajGraph, assignment: Sequence[int]) -> tuple[int, ...]:
    return graph.eval(assignment)


@dataclass(frozen=True)
class TruthTable:
    """Exhaustive function table; mask j packs output j over all 2^n rows."""

    input_count: int
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return 1 << self.input_count

    def row(self, t: int) -> tuple[int, ...]:
        return tuple((m >> t) & 1 for m in self.masks)

    def rows(self) -> list[tuple[int, ...]]:
        return [self.row(t) for t in range(len(self))]

    def ones(self, output: int = 0) -> int:
        return bin(self.masks[output]).count("1")


def truth_table(circuit: Circuit) -> TruthTable:
    n = circuit.input_count
    if n > MAX_TABLE_INPUTS:
        raise TableSizeError(
            f"refusing exhaustive table for {n} inputs (limit {MAX_TABLE_INPUTS})"
        )
    masks = circuit.eval_bulk(_enum_masks(n), 1 << n)
    return TruthTable(n, tuple(masks))


def equivalent(x: Circuit, y: Circuit) -> bool:
    """True iff the two circuits have identical truth tables."""
    if x.input_count != y.input_count:
        raise ArityError(
            f"input counts differ: {x.input_count} vs {y.input_count}"
        )
    if x.output_count != y.output_count:
        raise ArityError(
            f"output counts differ: {x.output_count} vs {y.output_count}"
        )
    return truth_table(x) == truth_table(y)


# --- netlist text format ------------------------------------------------
#
#   inputs 2
#   g0 = AND in0 in1
#   g1 = NOT g0
#   outputs g1
#
# '#' starts a comment; blank lines are ignored.


def parse_netlist(text: str) -> Netlist:
    input_count = None
    gates: list[Gate] = []
    outputs: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if input_count is None:
            if toks[0] != "inputs" or len(toks) != 2 or not _is_canonical_number(toks[1]):
                raise NetlistFormatError(f"line {lineno}: expected 'inputs <n>' header")
            input_count = int(toks[1])
            continue
        if outputs is not None:
            raise NetlistFormatError(f"line {lineno}: content after outputs footer")
        if toks[0] == "outputs":
            outputs = toks[1:]
            continue
        if len(toks) < 4 or toks[1] != "=":
            raise NetlistFormatError(f"line {lineno}: expected '<gate> = <KIND> <ops...>'")
        gid, kind, ops = toks[0], toks[2], tuple(toks[3:])
        if kind not in GATE_ARITY:
            raise NetlistFormatError(f"line {lineno}: unknown gate kind {kind!r}")
        gates.append(Gate(gid, kind, ops))
    if input_count is None:
        raise NetlistFormatError("missing 'inputs <n>' header")
    if outputs is None:
        raise NetlistFormatError("missing 'outputs ...' footer")
    try:
        return Netlist(input_count, gates, outputs)
    except (NetlistFormatError, ArityError) as e:
        raise NetlistFormatError(str(e)) from e


def format_netlist(netlist: Netlist) -> str:
    lines = [f"inputs {netlist.input_count}"]
    for g in netlist.gates:
        lines.append(f"{g.gid} = {g.kind} {' '.join(g.operands)}")
    lines.append("outputs " + " ".join(netlist.outputs))
    return "\n".join(lines) + "\n"
