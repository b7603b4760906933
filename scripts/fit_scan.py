"""Which compiles fit a tight subarray, and at what cost.

    python3 scripts/fit_scan.py > scan.txt

Compiles each op at widths 4 and 8 (n-ary ops with 4 operands), and add,
sub, mul, div and bitcount at width 16, with 0 to 25 spare data rows at
efforts 1 and 2: 1,924 configs.  A config with `spare` spare rows has
the operand and result rows plus `spare` data rows, 8 more rows in all,
and 64 columns, the geometry of `tests/test_oplib.py`'s
`TIGHT_SPARE_ROWS`.  Prints one line per config,

    op width spare effort activations|no-fit

where no-fit is a `CapacityError` from `compile_op`; any other error
stops the scan.  Two commits whose outputs diff only in lines that fit
or got cheaper fit every config the first one fit.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pumkit.codegen import SubarrayConfig, activation_count  # noqa: E402
from pumkit.errors import CapacityError  # noqa: E402
from pumkit.oplib import N_ARY, OP_KINDS, compile_op, op_signature  # noqa: E402

N_INPUTS = 4
SPARE_ROWS = range(26)
EFFORTS = (1, 2)
CELLS = ([(kind, width) for width in (4, 8) for kind in OP_KINDS]
         + [(kind, 16) for kind in ("add", "sub", "mul", "div", "bitcount")])


def scan_line(kind: str, width: int, spare: int, effort: int) -> str:
    n_inputs = N_INPUTS if kind in N_ARY else 2
    widths, out_width = op_signature(kind, width, n_inputs)
    data_rows = sum(widths) + out_width + spare
    cfg = SubarrayConfig(total_rows=data_rows + 8, columns=64, data_row_count=data_rows)
    try:
        compiled = compile_op(kind, width, cfg, effort=effort, n_inputs=n_inputs)
    except CapacityError:
        return f"{kind} {width} {spare} {effort} no-fit"
    return f"{kind} {width} {spare} {effort} {activation_count(compiled.program).total}"


def main() -> int:
    for kind, width in CELLS:
        for spare in SPARE_ROWS:
            for effort in EFFORTS:
                print(scan_line(kind, width, spare, effort), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
