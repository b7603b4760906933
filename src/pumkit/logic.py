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

Both forms hold an edge as one packed int, the complemented-edge literal
``ref << 1 | neg`` of AIGER: gate or node k is ref ``k`` (its position),
the constant is ``-1`` and input i is ``-(2 + i)``, so ``e >> 1`` is the
ref, ``e & 1`` the complement bit and ``e ^ 1`` the complemented edge.
Constant 1 is the complemented constant 0, so no value has two
spellings; it is the only complemented edge a netlist holds, since NOT
is a gate there.  Building, lowering, rewriting, scheduling and
verification all work on this form, and each constructor range-checks
it.  Names exist only in the netlist text format, which spells edges
``"0"``, ``"1"``, ``"in<i>"`` and ``"g<j>"`` (gate j).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ArityError, Frozen, NetlistFormatError, TableSizeError

MAX_TABLE_INPUTS = 16

GATE_ARITY = {"AND": 2, "OR": 2, "XOR": 2, "NOT": 1}

CONST_ZERO = "0"
CONST_ONE = "1"

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


# Packed ref of the constant: edge REF_ZERO << 1 is 0 and its complement
# is 1.  Input i is ref -(2 + i), gate or node k is k.
REF_ZERO = -1
EDGE_ZERO = REF_ZERO << 1
EDGE_ONE = EDGE_ZERO | 1


def _named_edge(name: str, names: dict[str, int], input_count: int, where: str) -> int:
    """Packed edge `name` spells: its entry in `names` (the gates defined
    so far), else "0", "1" or "in<i>" with i below `input_count`.
    Any other name is a `NetlistFormatError` prefixed with `where`."""
    e = names.get(name)
    if e is not None:
        return e
    if name == CONST_ZERO:
        return EDGE_ZERO
    if name == CONST_ONE:
        return EDGE_ONE
    if _numbered(name, "in") and int(name[2:]) < input_count:
        return (-2 - int(name[2:])) << 1
    raise NetlistFormatError(f"{where}: reference {name!r} is not a constant, an input "
                             f"below {input_count} or an earlier gate")


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


class Circuit(Frozen):
    """What `Netlist` and `MajGraph` share: the edge range check and
    evaluation over packed edges, where gate or node k's value is k's
    entry.  Both compare by identity (`codegen._sweep`'s cache keys on
    the graph) and keep `object`'s repr, not one listing every node."""

    __slots__ = ()
    __repr__ = object.__repr__

    @staticmethod
    def _check_input_count(input_count: int):
        """`ArityError` unless `input_count` is a non-negative int (a bool
        is not one)."""
        if type(input_count) is not int or input_count < 0:
            raise ArityError(f"input count must be a non-negative int, got {input_count!r}")

    def _check_edges(self, elements: Sequence[Sequence[int]], outputs: Sequence[int],
                     input_count: int):
        """Raise `NetlistFormatError` unless every edge is an int reading a
        constant, an input below `input_count` or an earlier gate or node:
        `elements[k]`, the edges of element k, may read the elements before
        k, and `outputs` any element.  The error names `g<k>` or `n<k>`
        (after the subclass's `_ELEMENT`) or `outputs`.  Without
        `_COMPLEMENTS` only constant 1 may be complemented."""
        lowest = (-1 - input_count) << 1  # input input_count - 1
        complements = self._COMPLEMENTS
        top = 0  # k << 1: element k's own edge, the first it may not read
        for edges in (*elements, outputs):
            for e in edges:
                if not (type(e) is int and lowest <= e < top
                        and (complements or not e & 1 or e == EDGE_ONE)):
                    k = top >> 1
                    where = f"{self._ELEMENT[0]}{k}" if k < len(elements) else "outputs"
                    raise NetlistFormatError(
                        f"{where}: edge {e!r} is not a constant, an input below "
                        f"{input_count} or an earlier {self._ELEMENT}")
            top += 2

    def _evaluator(self, words: Sequence[int], lanes: int):
        """(mask, vals, val) over `lanes` lanes: append gate or node k's
        value to `vals`, and `val(e)` reads edge e."""
        if len(words) != self.input_count:
            raise ArityError(f"expected {self.input_count} input words, got {len(words)}")
        mask = (1 << lanes) - 1
        leaf = [0] + [w & mask for w in words]  # ref r < 0 sits at -1 - r
        vals: list[int] = []

        def val(e: int) -> int:
            r = e >> 1
            v = vals[r] if r >= 0 else leaf[-1 - r]
            return v ^ mask if e & 1 else v

        return mask, vals, val

    def eval(self, assignment: Sequence[int]) -> tuple[int, ...]:
        if len(assignment) != self.input_count:
            raise ArityError(
                f"expected {self.input_count} input bits, got {len(assignment)}"
            )
        return tuple(self.eval_bulk([b & 1 for b in assignment], 1))


class Gate(NamedTuple):
    """Gate j of a netlist; its operands are packed edges."""

    kind: str
    operands: tuple[int, ...]


class Netlist(Circuit):
    """Topologically ordered AND/OR/NOT/XOR gate DAG over packed edges.

    Gate j is edge ``j << 1`` and may read only constants, inputs below
    `input_count` and earlier gates; `outputs` are edges too.
    """

    __slots__ = _fields = ("input_count", "gates", "outputs")
    _ELEMENT = "gate"
    _COMPLEMENTS = False  # NOT is a gate

    def __init__(self, input_count: int, gates: Sequence[Gate], outputs: Sequence[int]):
        self._check_input_count(input_count)
        gates = tuple(Gate(kind, tuple(ops)) for kind, ops in gates)
        outputs = tuple(outputs)
        for j, (kind, ops) in enumerate(gates):
            if kind not in GATE_ARITY:
                raise NetlistFormatError(f"g{j}: unknown gate kind {kind!r}")
            if len(ops) != GATE_ARITY[kind]:
                raise ArityError(
                    f"g{j}: {kind} takes {GATE_ARITY[kind]} operands, got {len(ops)}")
        self._check_edges([ops for _, ops in gates], outputs, input_count)
        self._init(input_count, gates, outputs)

    @property
    def output_count(self) -> int:
        return len(self.outputs)

    def eval_bulk(self, words: Sequence[int], lanes: int) -> list[int]:
        """Evaluate all lanes at once; word i packs input i across lanes."""
        mask, vals, val = self._evaluator(words, lanes)
        for kind, ops in self.gates:
            a = val(ops[0])
            if kind == "NOT":
                vals.append(a ^ mask)
                continue
            b = val(ops[1])
            if kind == "AND":
                vals.append(a & b)
            elif kind == "OR":
                vals.append(a | b)
            else:  # XOR
                vals.append(a ^ b)
        return [val(e) for e in self.outputs]


class MajGraph(Circuit):
    """Majority-node DAG over packed edges (see the module docstring).

    Node k is edge ``k << 1`` and holds exactly three edges, each reading
    a constant, an input below `input_count` or an earlier node;
    `packed_outputs` are edges too.  Complements live on edges, never as
    explicit nodes.
    """

    __slots__ = _fields = ("input_count", "packed_nodes", "packed_outputs")
    _ELEMENT = "node"
    _COMPLEMENTS = True

    def __init__(self, input_count: int, nodes: Sequence[tuple[int, int, int]],
                 outputs: Sequence[int]):
        self._check_input_count(input_count)
        nodes = tuple(map(tuple, nodes))
        outputs = tuple(outputs)
        for k, edges in enumerate(nodes):
            if len(edges) != 3:
                raise ArityError(f"n{k}: majority node takes exactly 3 edges")
        self._check_edges(nodes, outputs, input_count)
        self._init(input_count, nodes, outputs)

    @property
    def output_count(self) -> int:
        return len(self.packed_outputs)

    @property
    def node_count(self) -> int:
        return len(self.packed_nodes)

    def depth(self) -> int:
        """Longest node chain from any input/constant to any output."""
        d: list[int] = []
        for e0, e1, e2 in self.packed_nodes:  # comparisons, not max(): a call per node
            x = d[e0 >> 1] if e0 >= 0 else 0
            y = d[e1 >> 1] if e1 >= 0 else 0
            z = d[e2 >> 1] if e2 >= 0 else 0
            d.append(1 + (x if x >= y and x >= z else y if y >= z else z))
        return max((d[e >> 1] for e in self.packed_outputs if e >= 0), default=0)

    def eval_bulk(self, words: Sequence[int], lanes: int) -> list[int]:
        _, vals, val = self._evaluator(words, lanes)
        for a, b, c in self.packed_nodes:
            vals.append(_maj(val(a), val(b), val(c)))
        return [val(e) for e in self.packed_outputs]


eval_netlist = eval_majgraph = Circuit.eval


class TruthTable(Frozen):
    """Exhaustive function table; mask j packs output j over all 2^n rows."""

    __slots__ = _fields = ("input_count", "masks")

    def __init__(self, input_count: int, masks: tuple[int, ...]):
        self._init(input_count, masks)

    def __eq__(self, other):
        if type(other) is not TruthTable:
            return NotImplemented
        return (self.input_count, self.masks) == (other.input_count, other.masks)

    def __hash__(self) -> int:
        return hash((self.input_count, self.masks))

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
# '#' starts a comment; blank lines are ignored.  Gate ids are any unique
# canonical "g<n>" defined before use; they name gates by position once
# parsed, and format_netlist writes gate j as "g<j>".


def parse_netlist(text: str) -> Netlist:
    input_count = None
    gates: list[Gate] = []
    outputs: list[int] | None = None
    names: dict[str, int] = {}  # gate ids
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        where = f"line {lineno}"
        if input_count is None:
            if toks[0] != "inputs" or len(toks) != 2 or not _is_canonical_number(toks[1]):
                raise NetlistFormatError(f"{where}: expected 'inputs <n>' header")
            input_count = int(toks[1])
            continue
        if outputs is not None:
            raise NetlistFormatError(f"{where}: content after outputs footer")
        if toks[0] == "outputs":
            outputs = [_named_edge(t, names, input_count, where) for t in toks[1:]]
            continue
        if len(toks) < 4 or toks[1] != "=":
            raise NetlistFormatError(f"{where}: expected '<gate> = <KIND> <ops...>'")
        gid, kind, ops = toks[0], toks[2], toks[3:]
        if not _numbered(gid, "g"):
            raise NetlistFormatError(f"{where}: bad gate id {gid!r}")
        if gid in names:
            raise NetlistFormatError(f"{where}: duplicate gate id {gid!r}")
        if kind not in GATE_ARITY:
            raise NetlistFormatError(f"{where}: unknown gate kind {kind!r}")
        if len(ops) != GATE_ARITY[kind]:
            raise NetlistFormatError(
                f"{where}: {kind} takes {GATE_ARITY[kind]} operands, got {len(ops)}")
        gates.append(Gate(kind, tuple(_named_edge(t, names, input_count, where) for t in ops)))
        names[gid] = len(gates) - 1 << 1
    end = f"line {len(lines) + 1}: end of text before"
    if input_count is None:
        raise NetlistFormatError(f"{end} the 'inputs <n>' header")
    if outputs is None:
        raise NetlistFormatError(f"{end} the 'outputs ...' footer")
    return Netlist(input_count, gates, outputs)


def _netlist_name(e: int) -> str:
    """Text name of a netlist edge; constant 1 is its only complemented one."""
    r = e >> 1
    if r >= 0:
        return f"g{r}"
    if r == REF_ZERO:
        return CONST_ONE if e & 1 else CONST_ZERO
    return f"in{-2 - r}"


def format_netlist(netlist: Netlist) -> str:
    lines = [f"inputs {netlist.input_count}"]
    for j, (kind, ops) in enumerate(netlist.gates):
        lines.append(f"g{j} = {kind} {' '.join(map(_netlist_name, ops))}")
    lines.append("outputs " + " ".join(map(_netlist_name, netlist.outputs)))
    return "\n".join(lines) + "\n"
