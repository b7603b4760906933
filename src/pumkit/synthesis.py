"""Lowering and rewrite-based optimization of majority graphs.

``lower_to_maj`` translates an AND/OR/NOT/XOR netlist into majority
nodes: AND(a,b) -> MAJ(a,b,0), OR(a,b) -> MAJ(a,b,1), NOT folds into an
edge complement, and XOR expands to the three-node template
AND(NAND(a,b), OR(a,b)).

``optimize`` then shrinks the graph with a greedy rewrite loop whose
objective is the row-activation count of the program the scheduler
emits for the graph under the configured subarray, spills included:

* node canonicalization + constant folding + majority absorption,
* structural hashing (common-subexpression merging) and dead-node removal,
* complement pushing via majority self-duality, so complements migrate to
  where a dual-contact row copy picks them up for free,
* cut rewriting: every cone with at most three leaves is matched against
  a precomputed minimal-template library (single-majority functions,
  two-node compositions, and the XOR/XNOR templates).

A round is kept only when (does_not_fit, activations, nodes, depth)
strictly improves, which gives monotone cost and a stable fixpoint; a
graph the subarray cannot hold ranks below every graph that fits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .codegen import SubarrayConfig, _drop_sweep, estimate_cost_static
from .errors import CapacityError, PumError, TableSizeError
from .logic import (
    CONST_ONE,
    CONST_ZERO,
    REF_ONE,
    REF_ZERO,
    MajGraph,
    Netlist,
    _enum_masks,
    _maj,
    equivalent,
)

# Edges use the packed encoding of `logic`: (ref << 1) | complemented, so
# edge ^ 1 complements it.
_E_C0 = REF_ZERO << 1
_E_C1 = REF_ONE << 1


def _fold(e: int) -> int:
    """Complemented constants fold: ~0 -> 1, ~1 -> 0."""
    r = e >> 1
    if (r == REF_ZERO or r == REF_ONE) and (e & 1):
        return (-3 - r) << 1
    return e


# --- lowering ---------------------------------------------------------------


def lower_to_maj(netlist: Netlist) -> MajGraph:
    """Direct, unoptimized translation of a gate netlist."""
    nodes: list[tuple[int, int, int]] = []

    def node(e1: int, e2: int, e3: int) -> int:
        nodes.append((e1, e2, e3))
        return (len(nodes) - 1) << 1

    env: dict[str, int] = {CONST_ZERO: _E_C0, CONST_ONE: _E_C1}
    for i in range(netlist.input_count):
        env[f"in{i}"] = (-3 - i) << 1
    for g in netlist.gates:
        a = env[g.operands[0]]
        if g.kind == "NOT":
            env[g.gid] = _fold(a ^ 1)
            continue
        b = env[g.operands[1]]
        if g.kind == "AND":
            env[g.gid] = node(a, b, _E_C0)
        elif g.kind == "OR":
            env[g.gid] = node(a, b, _E_C1)
        else:  # XOR(a,b) = AND(NAND(a,b), OR(a,b))
            n_and = node(a, b, _E_C0)
            n_or = node(a, b, _E_C1)
            env[g.gid] = node(n_and ^ 1, n_or, _E_C0)
    outputs = [env[ref] for ref in netlist.outputs]
    return MajGraph._from_packed(netlist.input_count, nodes, outputs)


# --- template library for cut rewriting --------------------------------------


@dataclass(frozen=True)
class _Template:
    """Minimal majority structure for one cut function.

    Nodes reference leaves as negative ints (-(3+v) for leaf variable v)
    and earlier template nodes by index; `out` is a packed edge.
    """

    name: str
    cost: int
    nodes: tuple[tuple[int, int, int], ...]
    out: int


def _template_table(tpl: _Template, nvars: int) -> int:
    lanes = 1 << nvars
    full = (1 << lanes) - 1
    masks = _enum_masks(nvars)

    def val(e: int) -> int:
        r, neg = e >> 1, e & 1
        if r == REF_ZERO:
            v = 0
        elif r == REF_ONE:
            v = full
        elif r < 0:
            v = masks[-r - 3]
        else:
            v = node_vals[r]
        return v ^ full if neg else v

    node_vals: list[int] = []
    for nd in tpl.nodes:
        node_vals.append(_maj(*(val(e) for e in nd)))
    return val(tpl.out)


def _build_library() -> dict[tuple[int, int], _Template]:
    lib: dict[tuple[int, int], _Template] = {}

    def put(nvars: int, table: int, tpl: _Template):
        key = (nvars, table)
        cur = lib.get(key)
        if cur is None or tpl.cost < cur.cost:
            lib[key] = tpl

    for nvars in (1, 2, 3):
        lanes = 1 << nvars
        full = (1 << lanes) - 1
        masks = _enum_masks(nvars)
        lit_edges: list[tuple[int, int]] = []  # (packed edge, table)
        for v in range(nvars):
            lit_edges.append(((-(3 + v)) << 1, masks[v]))
            lit_edges.append((((-(3 + v)) << 1) | 1, masks[v] ^ full))
        lit_edges.append((_E_C0, 0))
        lit_edges.append((_E_C1, full))

        for e, t in lit_edges:
            put(nvars, t, _Template("cut_collapse", 0, (), e))

        one_node: dict[int, tuple[int, int, int]] = {}
        for (e1, t1), (e2, t2), (e3, t3) in itertools.combinations(lit_edges, 3):
            nd = tuple(sorted((e1, e2, e3)))
            t = _maj(t1, t2, t3)
            put(nvars, t, _Template("cut_maj", 1, (nd,), 0))
            put(nvars, t ^ full, _Template("cut_maj", 1, (nd,), 1))
            if t not in one_node:
                one_node[t] = nd

        for t_in, nd_in in sorted(one_node.items()):
            for pol in (0, 1):
                inner_t = t_in ^ (full if pol else 0)
                inner_e = pol  # packed edge for template node 0
                for (e2, t2), (e3, t3) in itertools.combinations(lit_edges, 2):
                    outer = tuple(sorted((inner_e, e2, e3)))
                    t = _maj(inner_t, t2, t3)
                    tpl = _Template("cut_maj2", 2, (nd_in, outer), 1 << 1)
                    put(nvars, t, tpl)
                    put(nvars, t ^ full,
                        _Template("cut_maj2", 2, (nd_in, outer), (1 << 1) | 1))

        # XOR/XNOR: three nodes sharing the majority core
        if nvars >= 2:
            a, b = (-(3 + 0)) << 1, (-(3 + 1)) << 1
            if nvars == 2:
                n0 = tuple(sorted((a, b, _E_C0)))
                n1 = tuple(sorted((a, b, _E_C1)))
                n2 = tuple(sorted(((0 << 1) | 1, 1 << 1, _E_C0)))
                t = masks[0] ^ masks[1]
            else:
                c = (-(3 + 2)) << 1
                n0 = tuple(sorted((a, b, c)))          # majority
                n1 = tuple(sorted((a, b, c | 1)))       # majority with ~c
                n2 = tuple(sorted(((0 << 1) | 1, 1 << 1, c)))
                t = masks[0] ^ masks[1] ^ masks[2]
            tpl = _Template("cut_xor", 3, (n0, n1, n2), 2 << 1)
            put(nvars, t, tpl)
            put(nvars, t ^ full, _Template("cut_xor", 3, (n0, n1, n2), (2 << 1) | 1))
    return lib


_LIBRARY = _build_library()


# --- mutable working form -----------------------------------------------------


class _Builder:
    def __init__(self, input_count: int):
        self.input_count = input_count
        self.nodes: list[tuple[int, int, int] | None] = []
        self.outputs: list[int] = []
        self.repl: dict[int, int] = {}

    @classmethod
    def from_graph(cls, g: MajGraph) -> "_Builder":
        b = cls(g.input_count)
        b.nodes = [tuple(map(_fold, nd)) for nd in g.packed_nodes]
        b.outputs = list(map(_fold, g.packed_outputs))
        return b

    def to_graph(self) -> MajGraph:
        return MajGraph._from_packed(self.input_count, self.nodes, self.outputs)

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
        for i, nd in enumerate(self.nodes):
            if nd is None:
                continue
            edges = sorted(_fold(self.resolve(e)) for e in nd)
            e0, e1, e2 = edges
            simp = None
            rule = None
            if e0 == e1 or e1 == e2:
                simp = e1
                rule = "absorb_equal"
            elif (e0 >> 1) == (e1 >> 1):
                simp, rule = e2, "absorb_complement"
            elif (e1 >> 1) == (e2 >> 1):
                simp, rule = e0, "absorb_complement"
            elif (e0 >> 1) == (e2 >> 1):
                simp, rule = e1, "absorb_complement"
            else:
                refs = (e0 >> 1, e1 >> 1, e2 >> 1)
                if REF_ZERO in refs and REF_ONE in refs:
                    for keep, x, y in ((e0, e1, e2), (e1, e0, e2), (e2, e0, e1)):
                        if {x >> 1, y >> 1} == {REF_ZERO, REF_ONE}:
                            simp, rule = keep, "absorb_complement"
                            break
            if simp is not None:
                self.repl[i] = simp
                self.nodes[i] = None
                counts[rule] += 1
                continue
            key = (e0, e1, e2)
            hit = key2node.get(key)
            if hit is not None:
                self.repl[i] = hit << 1
                self.nodes[i] = None
                counts["cse"] += 1
            else:
                key2node[key] = i
                self.nodes[i] = key
        self.outputs = [_fold(self.resolve(e)) for e in self.outputs]

    def compact(self, counts: Counter):
        """Drop dead nodes and renumber in a DFS topological order.

        Resolves replacement chains while traversing: rewrites may leave
        early nodes pointing at late replacements, so list order is not a
        valid topological order here.
        """
        alive_before = sum(1 for nd in self.nodes if nd is not None)
        order: list[int] = []
        visited: set[int] = set()
        stack: list[tuple[int, bool]] = []
        for e in reversed(self.outputs):
            r = self.resolve(e) >> 1
            if r >= 0:
                stack.append((r, False))
        while stack:
            r, done = stack.pop()
            if done:
                order.append(r)
                continue
            if r in visited:
                continue
            visited.add(r)
            stack.append((r, True))
            for e in reversed(self.nodes[r]):
                cr = self.resolve(e) >> 1
                if cr >= 0 and cr not in visited:
                    stack.append((cr, False))
        mapping = {old: new for new, old in enumerate(order)}

        def remap(e: int) -> int:
            e = _fold(self.resolve(e))
            r = e >> 1
            if r < 0:
                return e
            return (mapping[r] << 1) | (e & 1)

        self.nodes = [tuple(remap(e) for e in self.nodes[old]) for old in order]
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
                if r in (REF_ZERO, REF_ONE):
                    continue
                nonconst += 1
                negs += (e & 1) ^ (1 if (r >= 0 and flipped[r]) else 0)
            before = negs + neg_refs[i]
            after = (nonconst - negs) + (total_refs[i] - neg_refs[i])
            if after < before:
                flipped[i] = True
                counts["dual_push"] += 1
        if not any(flipped):
            return
        for i, nd in enumerate(self.nodes):
            new = []
            for e in nd:
                r = e >> 1
                neg = e & 1
                if r >= 0 and flipped[r]:
                    neg ^= 1
                if flipped[i]:
                    neg ^= 1
                new.append(_fold((r << 1) | neg))
            self.nodes[i] = tuple(sorted(new))
        outs = []
        for e in self.outputs:
            r = e >> 1
            neg = e & 1
            if r >= 0 and flipped[r]:
                neg ^= 1
            outs.append(_fold((r << 1) | neg))
        self.outputs = outs

    # -- cut rewriting ----------------------------------------------------------

    _CUT_CAP = 6
    _CONE_CAP = 16

    def _enumerate_cuts(self) -> list[list[frozenset[int]]]:
        cuts: list[list[frozenset[int]]] = []
        for nd in self.nodes:
            options = []
            for e in nd:
                r = e >> 1
                if r in (REF_ZERO, REF_ONE):
                    options.append((frozenset(),))
                elif r < 0:
                    options.append((frozenset((r,)),))
                else:
                    options.append(tuple(cuts[r]) + (frozenset((r,)),))
            merged = set()
            for c1 in options[0]:
                for c2 in options[1]:
                    u12 = c1 | c2
                    if len(u12) > 3:
                        continue
                    for c3 in options[2]:
                        u = u12 | c3
                        if len(u) <= 3:
                            merged.add(u)
            ordered = sorted(merged, key=lambda s: (len(s), sorted(s)))
            keep: list[frozenset[int]] = []
            for c in ordered:
                if not any(k <= c for k in keep):
                    keep.append(c)
                if len(keep) >= self._CUT_CAP:
                    break
            cuts.append(keep)
        return cuts

    def _cone(self, root: int, cut: frozenset[int]) -> list[int] | None:
        cone: set[int] = set()
        stack = [root]
        while stack:
            k = stack.pop()
            if k in cone:
                continue
            cone.add(k)
            if len(cone) > self._CONE_CAP:
                return None
            for e in self.nodes[k]:
                r = e >> 1
                if r >= 0 and r not in cut and r not in cone:
                    stack.append(r)
        return sorted(cone)

    def _dying_set(self, roots: tuple[int, ...], cone_union: set[int],
                   fanout: list[list[int]]) -> set[int]:
        """Cone nodes whose every consumer also dies once `roots` are replaced."""
        dying = set(roots)
        for m in sorted(cone_union - dying, reverse=True):
            if all(f in dying for f in fanout[m]):
                dying.add(m)
        return dying

    def _group_cost(self, entries, leaves, dying: set[int],
                    key_map: dict, removed: set[int]) -> int:
        """New nodes a group of templates needs, after structural sharing."""
        seen: set = set()
        cost = 0
        for _, tpl, _ in entries:
            for idx, nd in enumerate(tpl.nodes):
                edges, leaf_only = self._map_template_node(nd, leaves, None)
                if leaf_only:
                    hit = key_map.get(edges)
                    if hit is not None and hit not in dying and hit not in removed:
                        continue
                    key = edges
                else:
                    key = ("deep", tpl.nodes, idx)
                if key not in seen:
                    seen.add(key)
                    cost += 1
        return cost

    @staticmethod
    def _map_template_node(nd, leaves, ids):
        """Template node -> builder edges; ids=None probes leaf-only nodes."""
        edges = []
        leaf_only = True
        for e in nd:
            r = e >> 1
            if r < REF_ONE:
                r = leaves[-r - 3]
            elif r >= 0:
                leaf_only = False
                r = ids[r] if ids is not None else r
            edges.append(_fold((r << 1) | (e & 1)))
        return tuple(sorted(edges)), leaf_only

    def _instantiate(self, tpl: _Template, leaves, dying: set[int],
                     key_map: dict, removed: set[int]) -> int:
        ids: list[int] = []
        for nd in tpl.nodes:
            edges, leaf_only = self._map_template_node(nd, leaves, ids)
            if leaf_only:
                hit = key_map.get(edges)
                if hit is not None and hit not in dying and hit not in removed:
                    ids.append(hit)
                    continue
            idx = len(self.nodes)
            self.nodes.append(edges)
            key_map[edges] = idx
            ids.append(idx)
        r = tpl.out >> 1
        if r < REF_ONE:
            out = ((leaves[-r - 3]) << 1) | (tpl.out & 1)
        elif r >= 0:
            out = (ids[r] << 1) | (tpl.out & 1)
        else:
            out = tpl.out
        return _fold(out)

    def cut_rewrite(self, counts: Counter) -> bool:
        """Match small cones against the template library and replace them.

        Roots sharing one cut are grouped and rewritten jointly, so
        structures like a full adder (XOR3 sum + majority carry over the
        same three leaves) collapse even though neither root's fanout-free
        cone pays for the rewrite alone.
        """
        n = len(self.nodes)
        fanout: list[list[int]] = [[] for _ in range(n)]
        OUT = n  # sentinel consumer for graph outputs
        for i, nd in enumerate(self.nodes):
            for e in nd:
                r = e >> 1
                if r >= 0:
                    fanout[r].append(i)
        for e in self.outputs:
            r = e >> 1
            if r >= 0:
                fanout[r].append(OUT)

        key_map: dict = {}
        for i, nd in enumerate(self.nodes):
            key_map.setdefault(tuple(sorted(nd)), i)

        cuts = self._enumerate_cuts()
        by_cut: dict[frozenset[int], list] = {}
        for i in range(n):
            for cut in cuts[i]:
                if not cut:
                    continue
                cone = self._cone(i, cut)
                if cone is None:
                    continue
                leaves = sorted(cut)
                nv = len(leaves)
                full = (1 << (1 << nv)) - 1
                masks = _enum_masks(nv)
                leaf_mask = {ref: masks[v] for v, ref in enumerate(leaves)}
                vals: dict[int, int] = {}
                for k in cone:
                    ops = []
                    for e in self.nodes[k]:
                        r = e >> 1
                        if r == REF_ZERO:
                            v = 0
                        elif r == REF_ONE:
                            v = full
                        elif r in leaf_mask:
                            v = leaf_mask[r]
                        else:
                            v = vals[r]
                        ops.append(v ^ full if e & 1 else v)
                    vals[k] = _maj(*ops)
                tpl = _LIBRARY.get((nv, vals[i]))
                if tpl is None:
                    continue
                by_cut.setdefault(cut, []).append((i, tpl, frozenset(cone)))

        removed: set[int] = set()
        candidates = []
        for cut, entries in by_cut.items():
            entries.sort(key=lambda t: t[0])
            leaves = tuple(sorted(cut))
            groups = [entries]
            if len(entries) > 1:
                groups.extend([e] for e in entries)
            for group in groups:
                roots = tuple(e[0] for e in group)
                cone_union = set().union(*(e[2] for e in group))
                dying = self._dying_set(roots, cone_union, fanout)
                cost = self._group_cost(group, leaves, dying, key_map, removed)
                gain = len(dying) - cost
                if gain > 0:
                    candidates.append((-gain, roots, leaves, tuple(group),
                                       frozenset(cone_union), frozenset(dying)))
        if not candidates:
            return False
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        applied = False
        for _, roots, leaves, group, cone_union, dying in candidates:
            # leaves may reference replaced roots (the replacement edge
            # resolves), but an already-rewritten cone interior invalidates
            # the gain accounting for this candidate
            if cone_union & removed:
                continue
            for root, tpl, _ in group:
                self.repl[root] = self._instantiate(tpl, leaves, dying, key_map, removed)
                self.nodes[root] = None
                counts[tpl.name] += 1
            removed |= dying
            applied = True
        return applied


# --- reporting and the optimize loop -----------------------------------------


@dataclass(frozen=True)
class SynthesisReport:
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


def _metric(g: MajGraph, cfg: SubarrayConfig | None) -> tuple[bool, int, int, int]:
    """(does_not_fit, scheduled activations or 0, nodes, depth)."""
    try:
        return (False, estimate_cost_static(g, cfg), g.node_count, g.depth())
    except CapacityError:
        return (True, 0, g.node_count, g.depth())


def optimize(graph: MajGraph, effort: int = 2,
             cfg: SubarrayConfig | None = None) -> tuple[MajGraph, SynthesisReport]:
    """Rewrite `graph` to reduce the activations of its scheduled program.

    The objective is `estimate_cost_static`: the activation count of the
    program `schedule` emits under `cfg` (the default subarray if None),
    spills included.  effort 0: identity; effort 1: one greedy pass;
    effort 2: iterate to a fixpoint (64-pass cap).  Rounds that fail to
    strictly improve (does_not_fit, activations, nodes, depth) are rolled
    back, so the result is never worse than the input, and never fails to
    fit when the input fits.
    """
    if effort not in (0, 1, 2):
        raise ValueError(f"effort must be 0, 1, or 2, got {effort!r}")
    rules: Counter = Counter()
    best = graph
    before = best_m = _metric(graph, cfg)
    if effort > 0:
        passes = 1 if effort == 1 else 64
        for _ in range(passes):
            b = _Builder.from_graph(best)
            round_counts: Counter = Counter()
            b.clean_compact(round_counts)
            b.dual_push(round_counts)
            b.clean_compact(round_counts)
            if b.cut_rewrite(round_counts):
                b.clean_compact(round_counts)
            candidate = b.to_graph()
            if (candidate.packed_nodes == best.packed_nodes
                    and candidate.packed_outputs == best.packed_outputs):
                break  # an unchanged round would score best_m again
            m = _metric(candidate, cfg)
            if m < best_m:
                _drop_sweep(best)  # only the best graph keeps its sweep
                best, best_m = candidate, m
                rules.update(round_counts)
            else:
                break
    report = SynthesisReport(
        node_count_before=before[2],
        node_count_after=best_m[2],
        depth_before=before[3],
        depth_after=best_m[3],
        estimated_activations_before=None if before[0] else before[1],
        estimated_activations_after=None if best_m[0] else best_m[1],
        rules_applied=tuple(sorted(rules.items())),
    )
    return best, report


# --- rule library self-check ---------------------------------------------------


@dataclass(frozen=True)
class RewriteRule:
    """A truth-preserving identity over a handful of variables.

    The engine's passes implement these identities; each rule here is the
    checkable statement of one of them (lhs and rhs must have identical
    truth tables).
    """

    name: str
    lhs: MajGraph
    rhs: MajGraph


@dataclass(frozen=True)
class RuleCheck:
    name: str
    passed: bool
    detail: str = ""


def _g(n_inputs: int, nodes, outputs) -> MajGraph:
    return MajGraph(n_inputs, nodes, outputs)


def _default_rules() -> tuple[RewriteRule, ...]:
    a, b, c, u = ("in0", False), ("in1", False), ("in2", False), ("in3", False)
    na = ("in0", True)
    zero, one = ("0", False), ("1", False)
    rules = [
        RewriteRule(
            "commute",
            _g(3, [(a, b, c)], [("n0", False)]),
            _g(3, [(c, a, b)], [("n0", False)]),
        ),
        RewriteRule(
            "const_fold",
            _g(2, [(a, b, ("0", True))], [("n0", False)]),
            _g(2, [(a, b, one)], [("n0", False)]),
        ),
        RewriteRule(
            "absorb_equal",
            _g(2, [(a, a, b)], [("n0", False)]),
            _g(2, [], [a]),
        ),
        RewriteRule(
            "absorb_complement",
            _g(2, [(a, na, b)], [("n0", False)]),
            _g(2, [], [b]),
        ),
        RewriteRule(
            "absorb_complement_const",
            _g(1, [(zero, one, a)], [("n0", False)]),
            _g(1, [], [a]),
        ),
        RewriteRule(
            "cse",
            _g(3, [(a, b, c), (a, b, c)], [("n0", False), ("n1", False)]),
            _g(3, [(a, b, c)], [("n0", False), ("n0", False)]),
        ),
        RewriteRule(
            "dual_push",
            _g(3, [(a, b, c)], [("n0", True)]),
            _g(3, [(("in0", True), ("in1", True), ("in2", True))], [("n0", False)]),
        ),
        RewriteRule(
            "associativity",
            _g(4, [(b, u, c), (a, u, ("n0", False))], [("n1", False)]),
            _g(4, [(b, u, a), (c, u, ("n0", False))], [("n1", False)]),
        ),
        RewriteRule(
            "distributivity",
            _g(5, [(c, u, ("in4", False)), (a, b, ("n0", False))], [("n1", False)]),
            _g(5, [(a, b, c), (a, b, u), (("n0", False), ("n1", False), ("in4", False))],
               [("n2", False)]),
        ),
        # XOR3 refactor: the lowered XOR(XOR(a,b),c) chain equals the
        # shared-majority template.
        RewriteRule(
            "cut_xor",
            lower_to_maj(_xor3_netlist()),
            _g(3, [
                (a, b, c),
                (a, b, ("in2", True)),
                (("n0", True), ("n1", False), c),
            ], [("n2", False)]),
        ),
    ]
    return tuple(rules)


def _xor3_netlist() -> Netlist:
    from .logic import Gate

    return Netlist(
        3,
        [Gate("g0", "XOR", ("in0", "in1")), Gate("g1", "XOR", ("g0", "in2"))],
        ["g1"],
    )


def verify_rules(rules: tuple[RewriteRule, ...] | None = None) -> list[RuleCheck]:
    """Exhaustively check every rewrite rule; also audits the cut library."""
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
        bad = []
        for (nvars, table), tpl in sorted(_LIBRARY.items()):
            if _template_table(tpl, nvars) != table:
                bad.append((nvars, table))
        checks.append(RuleCheck(
            "cut_library",
            not bad,
            "" if not bad else f"{len(bad)} templates disagree: {bad[:3]}",
        ))
    return checks
