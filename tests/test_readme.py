import re
from pathlib import Path

from comsoc import bribery, cake, circuits, control, dodgson, fileio, kemeny, structure

README = Path(__file__).resolve().parent.parent / "README.md"

# Each row of the README capacity table, by its operation cell, and the
# module constants that its limit cell states.
CAPACITY_ROWS = {
    "`kemeny_brute_force`": [kemeny.BRUTE_FORCE_MAX_M],
    "`kemeny_dp`": [kemeny.DP_MAX_M],
    "`dodgson_bruteforce`": [dodgson.BRUTE_FORCE_MAX_CELLS, dodgson.BRUTE_FORCE_MAX_K],
    "`swap_bribery`, `unit_or_priced_bribery`": [
        bribery.SWAP_MAX_M,
        bribery.REWRITE_MAX_M,
        bribery.REWRITE_MAX_N,
    ],
    "`swap_bribery`, `shift_bribery`": [bribery.BRANCH_MAX_N],
    "`find_single_peaked_axis`": [structure.AXIS_SEARCH_MAX_M],
    "`parse_preflib_soc`": [fileio.PREFLIB_MAX_VOTERS],
    "`sp_deletion_distance`": [structure.VOTER_DELETION_MAX_N, structure.ALT_DELETION_MAX_M],
    "`ccdv_bruteforce`": [control.BRUTE_FORCE_MAX_SUBSETS],
    "`wcs_solve`": [circuits.WCS_MAX_COMBINATIONS],
    "`mab_solve`": [circuits.MAB_MAX_PROPOSALS],
    "density degree": [cake.MAX_DEGREE],
}


def capacity_table():
    text = README.read_text()
    section = text.split("## Capacity limits", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0] not in ("operation", "---"):
            rows[cells[0]] = cells[1]
    return rows


def test_capacity_table_states_the_module_constants():
    rows = capacity_table()
    assert set(rows) == set(CAPACITY_ROWS)
    for operation, constants in CAPACITY_ROWS.items():
        # Numbers as written, plainly or with ``_`` separators.
        stated = {int(token.replace("_", "")) for token in re.findall(r"\d[\d_]*", rows[operation])}
        for value in constants:
            assert value in stated, f"{operation}: {value} not in {rows[operation]!r}"
