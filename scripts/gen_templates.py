"""Generate `src/pumkit/templates.py`, the cut-rewriting template library.

    python3 scripts/gen_templates.py            # rewrite the module
    python3 scripts/gen_templates.py --check    # exit 1 if it is stale

`_build_library` builds, for one to three leaves, single majorities,
two-node chains and, for XOR3/XNOR3, the adder cell's sum, and keeps the
cheapest template per (leaf count, truth table).  The module holds the
kept templates as plain rows, so `import pumkit` reads 124 rows instead
of building some 5,600 candidate templates.  `pumkit.synthesis` builds
`_LIBRARY` from those rows, and `verify_rules` (acceptance criterion 7)
audits every row against the truth table it is filed under.  The script
takes `_Template` and `_ADDER_CELL` from `pumkit.synthesis`, which
imports the module it writes, so a broken module is restored from git
before regenerating.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pumkit.logic import EDGE_ONE, EDGE_ZERO, _enum_masks, _maj  # noqa: E402
from pumkit.synthesis import _ADDER_CELL, _Template  # noqa: E402

OUT = ROOT / "src" / "pumkit" / "templates.py"

HEADER = '''\
"""The cut-rewriting template library.  Generated by
scripts/gen_templates.py; do not edit.

    python3 scripts/gen_templates.py            # regenerate
    python3 scripts/gen_templates.py --check    # exit 1 if stale

One row per (leaf count, truth table) that a template computes:
(nvars, table, name, cost, nodes, out).  Leaf variable v is ref -(2+v),
template node k is ref k, and every edge is packed (ref << 1 |
complement); `pumkit.synthesis` turns each row into a `_Template`.
"""

ROWS = (
'''


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
            lit_edges.append(((-2 - v) << 1, masks[v]))
            lit_edges.append((((-2 - v) << 1) | 1, masks[v] ^ full))
        lit_edges.append((EDGE_ZERO, 0))
        lit_edges.append((EDGE_ONE, full))

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

        if nvars == 3:  # XOR3/XNOR3: the adder cell's sum
            tpl = _ADDER_CELL
            t = functools.reduce(int.__xor__, masks)
            put(nvars, t, tpl)
            put(nvars, t ^ full, _Template(tpl.name, tpl.cost, tpl.nodes, tpl.out | 1))
    return lib


def rows() -> list[tuple]:
    """The library as (nvars, table, name, cost, nodes, out) rows, in the
    order `_build_library` first files each key."""
    return [(nvars, table, tpl.name, tpl.cost, tpl.nodes, tpl.out)
            for (nvars, table), tpl in _build_library().items()]


def render() -> str:
    """The text of the generated module."""
    lines = [HEADER]
    for nvars, table, name, cost, nodes, out in rows():
        digits = max(1, (1 << nvars) // 4)
        lines.append(f'    ({nvars}, 0x{table:0{digits}x}, "{name}", {cost}, {nodes!r}, {out}),\n')
    lines.append(")\n")
    return "".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1, writing nothing, if the module differs from the output")
    args = ap.parse_args(argv)
    text = render()
    if args.check:
        current = OUT.read_text() if OUT.exists() else ""
        if current != text:
            print(f"{OUT.relative_to(ROOT)} is stale: run scripts/gen_templates.py",
                  file=sys.stderr)
            return 1
        return 0
    OUT.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
