"""A registry of mutants of the package, and a runner that checks the suite kills them.

Each entry is one small defect: an exact snippet old of file (a path
from the repository root) and the snippet new that replaces it, with a
one-line note.  An entry that no test can catch, because it changes no
behaviour, says why in equivalent.  Entries are the evidence behind the
suite's strength: a test reference is retired only when the suite
without it kills every entry of the code it shadowed, and a change that
leaves an entry stale (its old snippet no longer occurs exactly once)
re-targets or deletes it.  tests/test_mutants.py checks the registry
itself in the normal test run; this file is not collected by pytest.

Run from anywhere:

    python tests/mutants.py            # every entry
    python tests/mutants.py UF1 EN3    # the named entries

The runner copies src/, tests/, bench/, README.md and pyproject.toml to
one temporary directory, runs the test suite there once unmutated, then
applies one entry at a time and runs it again (one child process at a
time, in a session of its own, with a fixed --hypothesis-seed and no
bytecode or cache written).  tests/test_mutants.py is left out of these
runs: it checks the very snippets a mutated run changes.  Each entry is
reported as

    killed      a test that passes unmutated fails (named), or collection errors
    survived    no such test fails
    equivalent  no such test fails, and the entry says why none can
    hung        the run passed its time limit and was stopped, or a test
                passed pytest's per-test faulthandler limit
    stale       old does not occur exactly once in file

The time limit is three times the unmutated run's wall time plus 30 s.
A mutated run stops at its first failure beyond those of the unmutated
run.  The exit status is 1 if any entry survived or is stale, else 0.
The temporary directory is removed at the end.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
HYPOTHESIS_SEED = 0


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str
    old: str
    new: str
    note: str
    equivalent: str | None = None


BIV = "src/tropsolve/bivariate.py"
CELLS = "src/tropsolve/cells.py"
CLI = "src/tropsolve/cli.py"
CORE = "src/tropsolve/core.py"
ORACLE = "src/tropsolve/oracle.py"
PRE = "src/tropsolve/preprocess.py"
RED = "src/tropsolve/reductions.py"
WIN = "src/tropsolve/winseq.py"

MUTANTS: tuple[Mutant, ...] = (
    # OffsetUnionFind.add_equation (UF1 is also RF1, UF2 RF5, UF4 RF2)
    Mutant("UF1", BIV, "if bad >> drop & 1:", "if False:",
           "drop the inconsistency transfer on merge"),
    Mutant("UF2", BIV, "if shift != 0:", "if False:",
           "never flag an inconsistent cycle"),
    Mutant("UF3", BIV, "if shift != 0:", "if True:",
           "flag every cycle, consistent ones too"),
    Mutant("UF4", BIV, "keep, drop, shift = rp, rm, -shift", "keep, drop, shift = rp, rm, shift",
           "wrong offset sign when the plus side keeps its representative"),
    Mutant("UF5", BIV, "keep, drop = rm, rp  #", "keep, drop, shift = rm, rp, -shift  #",
           "wrong offset sign when the minus side keeps its representative"),
    Mutant("UF6", BIV, "off[v] += shift", "off[v] += 0",
           "relabel without shifting the offset"),
    Mutant("UF7", BIV, "for v in range(drop, len(rep)):", "for v in range(drop + 1, len(rep)):",
           "relabel loop starts past the dropped representative"),
    Mutant("UF8", BIV, "bad ^ (1 << drop) | 1 << keep", "bad | 1 << keep",
           "keep the dropped representative flagged too"),
    # sub_specialize: forced by core size (a core of two's zero-width pair is
    # the shared scan's, under SB5 to SB7)
    Mutant("SP1", BIV, "up + down > 0:", "up + down >= 0:",
           "a zero 2-cycle forces both variables"),
    Mutant("SP4", BIV, "elif len(core) > 2:", "elif len(core) > 3:",
           "a core of three is taken as acyclic"),
    Mutant("SP5", BIV, "    elif len(core) > 2:\n        dist = close(",
           "    if len(core) >= 2:\n        dist = close(",
           "a core of two goes to close too (same outputs, more work)"),
    # cells._cell_key
    Mutant("CK1", CELLS, "if not dead and not forced:", "if not dead:",
           "the fast path ignores the scenario's forced columns"),
    Mutant("CK2", CELLS, "if not dead and not forced:", "if not forced:",
           "the fast path ignores dead representatives"),
    # cells._solve_sequence
    Mutant("SQ1", CELLS, "if dead or flagged or uf.inconsistent_roots:",
           "if dead or uf.inconsistent_roots:", "propagation guard without flagged"),
    Mutant("SQ2", CELLS, "if dead or flagged or uf.inconsistent_roots:",
           "if dead or flagged:", "propagation guard without uf.inconsistent_roots"),
    Mutant("SQ3", CELLS, "if dead or flagged or uf.inconsistent_roots:",
           "if flagged or uf.inconsistent_roots:",
           "propagation guard without dead (a forced representative is forced again each round)"),
    Mutant("SS1", CELLS, "remove_and_enlarge(t, dead | uf.inconsistent_roots | flagged)",
           "remove_and_enlarge(t, dead | uf.inconsistent_roots)",
           "drop flagged from the propagation seed"),
    Mutant("SS2", CELLS, "remove_and_enlarge(t, dead | uf.inconsistent_roots | flagged)",
           "remove_and_enlarge(t, dead | flagged)",
           "drop uf.inconsistent_roots from the propagation seed"),
    Mutant("SS3", CELLS, "if not eqs and not forced:", "if not eqs:",
           "return right after a forcing round"),
    Mutant("SS4", CELLS, "if not eqs and not forced:", "if not forced:",
           "return without merging zero-width equations"),
    Mutant("SS5", CELLS,
           "part = systems.get((h, pair))\n        if part is None:\n"
           "            part = systems[h, pair] =",
           "part = systems.get(pair)\n        if part is None:\n"
           "            part = systems[pair] =",
           "row-system cache keyed on the pair alone"),
    Mutant("SS6", CELLS, "t carries on\n        if eqs:", "t carries on\n        if True:",
           "substitute again after a forcing round too (same outputs, more work)"),
    Mutant("SS7", CELLS, "uf.add_equation(row)\n            t, flagged = substitute(ineqs, uf)",
           "uf.add_equation(row)", "no substitute after a round of equations"),
    # cells._build_cell
    Mutant("RF3", CELLS, "if scale > 1:\n        g = math.gcd(", "if False:\n        g = math.gcd(",
           "never take the gcd of a cell's ints"),
    Mutant("RF4", CELLS, "rows = tuple([(p, m, c // g) for p, m, c in rows])",
           "rows = tuple([(p, m, c) for p, m, c in rows])",
           "divide the offsets but not the row constants by the gcd"),
    # the cell key and the cell
    Mutant("OP1", CELLS, "return uf, dead, ineqs, bound", "return uf, dead, ineqs, uf.components",
           "read the dimension bound at return"),
    Mutant("OP2", CELLS, "if dead >> r & 1 or forced >> v & 1:", "if dead >> r & 1:",
           "the per-column pass drops the scenario's forced columns"),
    Mutant("OP3", CELLS, "if not assigned:\n        return None", "if False:\n        return None",
           "keep the keys of collapsed sequences"),
    Mutant("OP4", CELLS, "tuple((v, v, 0) for v in columns(free))",
           "tuple((v, 0, 0) for v in columns(free))",
           "_unconstrained_key puts every free column on parameter 0"),
    Mutant("OP5", CELLS, "dimension_bound=bound,", "dimension_bound=num_vars,",
           "_build_cell ignores the key's bound"),
    Mutant("OP6", CELLS, "assigned = tuple(zip(range(len(rep)), rep, off))",
           "assigned = tuple(zip(range(len(rep)), rep, [0] * len(rep)))",
           "_cell_key's fast path drops the offsets"),
    Mutant("OP7", CELLS, "neg = tuple(columns(((1 << num_vars) - 1) ^ free))",
           "neg = tuple(columns(((1 << num_vars) - 1) ^ free))[1:]",
           "_unconstrained_key drops the first -inf column"),
    # the scenario walk of cells.solve, cells._solve_scenario, and classify_row
    Mutant("OC1", CELLS, "dead | cls.a_wins | cls.b_wins | cls.ties",
           "dead | cls.a_wins | cls.b_wins",
           "child scenario without the ties"),
    Mutant("OC2", WIN, "RowClassification(a_win ^ ties, b_win ^ ties, ties)",
           "RowClassification(a_win, b_win ^ ties, ties)",
           "classify_row keeps ties in a_wins"),
    Mutant("OC3", CELLS, "if red.free:", "if False:",
           "drop the unconstrained cells"),
    Mutant("OC4", CELLS, "if not dead:\n            root_p", "if True:\n            root_p",
           "p and enum_nodes of the last scenario"),
    Mutant("OC5", CELLS, "if child != full and child not in seen]", "if child not in seen]",
           "also visit the all-dead scenario"),
    Mutant("OC6", CELLS, "frozenset(range(n)).intersection(", "frozenset(range(n)).union(",
           "globally forced as a union"),
    Mutant("OC7", CELLS, "classify_row(masks, i, red.live)", "classify_row(masks, i, (1 << n) - 1)",
           "classify the kept rows over every column"),
    # preprocess.reduce_instance
    Mutant("RD1", PRE,
           "        for k, i in enumerate(rows):\n"
           "            a_live = live & a_win[i]\n"
           "            b_live = live & b_win[i]\n"
           "            if (a_live == 0) != (b_live == 0):\n"
           "                live ^= a_live | b_live\n"
           "                del rows[k]\n"
           "                break\n"
           "        else:\n",
           "        one_sided = []\n"
           "        for i in rows:\n"
           "            a_live = live & a_win[i]\n"
           "            b_live = live & b_win[i]\n"
           "            if (a_live == 0) != (b_live == 0):\n"
           "                live ^= a_live | b_live\n"
           "                one_sided.append(i)\n"
           "        if one_sided:\n"
           "            rows = [i for i in rows if i not in one_sided]\n"
           "        else:\n",
           "one sweep over the one-sided rows in place of break and restart",
           equivalent="the moves are monotone: forcing columns never makes a one-sided "
           "row two-sided, so the sweep reaches the same fixed point"),
    Mutant("RD2", PRE, "kept = [i for i in rows if live & ~same[i]]",
           "kept = [i for i in rows if full & ~same[i]]",
           "the identical-row move reads dead columns too"),
    Mutant("RD3", PRE, "if (a_live == 0) != (b_live == 0):", "if a_live == 0 and b_live != 0:",
           "only rows with the A side dead force"),
    Mutant("RD4", PRE, "del rows[k]\n                break", "break",
           "keep the one-sided row after forcing its columns",
           equivalent="after the move the row is -inf on both sides of every live column, "
           "so the identical-row move drops it next"),
    Mutant("RD5", PRE, "idle = live & ~used", "idle = 0",
           "never free a column"),
    Mutant("RD6", PRE, "live, full ^ live ^ free, free)", "live, full ^ live, free)",
           "free columns also counted as forced"),
    # winseq._bad_columns and enumerate_win_sequences_counted
    Mutant("EN1", WIN, "above[bisect_right(keys, top - low)]",
           "above[bisect_right(keys, top - low - 1)]",
           "bisect_left in place of bisect_right (the keys are ints)"),
    Mutant("EN2", WIN, "always |= held", "always |= 0",
           "drop the always mask (m_k kappa = -inf)"),
    Mutant("EN3", WIN, "if top is None:\n            continue",
           "if top is None:\n            always |= held\n            continue",
           "m_i kappa = -inf fails the minor"),
    Mutant("EN4", WIN, "bad[iota] = 0  #", "bad[iota] = -1  #",
           "m_k iota = -inf fails the minor"),
    Mutant("EN5", WIN, "bad[iota] = above[0] if top is None else",
           "bad[iota] = 0 if top is None else",
           "m_i iota = -inf passes the minor"),
    Mutant("EN6", WIN, "if not narrowed[k]:", "if False:",
           "no early backtrack on an empty domain"),
    Mutant("EN7", WIN, "row_tables = tables[d]", "row_tables = tables[0]",
           "the tables of row 0 reused at every depth"),
    Mutant("EN8", WIN, "return [()], 0", "return [], 0",
           "no rows: no sequence"),
    # cli.emit
    Mutant("EM1", CLI, 'return f" - {number[1:]}" if number[0] == "-" else f" + {number}"',
           'return f" + {number}"', "negative tails printed as + -c"),
    Mutant("EM2", CLI, 'if number == "0":', "if False:",
           "zero tails printed as + 0"),
    Mutant("EM3", CLI,
           'lines.update((int(v), f"  x{v} = {c}") for v, c in cell.get("fixed", {}).items())',
           "lines.update(())", "pinned fixed values not laid out"),
    Mutant("EM4", CLI, 'if doc["trivial_only"]:', "if False:",
           "no trivial_only line"),
    Mutant("EM5", CLI, 'for v in doc["globally_forced"])', 'for v in doc["globally_forced"][1:])',
           "one globally forced variable not printed"),
    Mutant("EM6", CLI, 'for r in cell["constraints"]\n', 'for r in cell["constraints"][1:]\n',
           "one constraint not printed"),
    Mutant("EM7", CLI, 'lines.append("no solution")', "pass",
           "no 'no solution' line"),
    Mutant("EM8", CLI, 'lines.append(f"  {lo} <= t{p} <= {hi}")', 'lines.append(f"  t{p} >= {lo}")',
           "both bounds printed as the lower one"),
    Mutant("EM9", CLI, 'lines.append(f"  t{p} >= {lo}")', 'lines.append(f"  t{p} > {lo}")',
           "lower bound printed strict"),
    Mutant("EM10", CLI, 'lines.append(f"  t{p} <= {hi}")', 'lines.append(f"  t{p} < {hi}")',
           "upper bound printed strict"),
    Mutant("EM11", CLI, "sorted(lower.keys() | upper.keys(), key=int)",
           "sorted(lower.keys() | upper.keys())", "bounded parameters sorted as strings"),
    Mutant("EM12", CLI, 'lines.extend(_constraint_lines(cell, "  "))',
           'lines.extend(_constraint_lines(cell, "    "))',
           "pinned constraint lines indented as plain ones"),
    # reductions.pin_variable
    Mutant("PN1", RED, "fixed.append((at(v), t0 + offset * factor))",
           "fixed.append((at(v), t0 + offset))", "fixed values without the scale factor"),
    Mutant("PN2", RED, "lower[minus] = max(", "lower[minus] = min(",
           "loosest lower bound kept",
           equivalent="residue rows have distinct (plus, minus) pairs, so each parameter "
           "gets at most one lower bound"),
    Mutant("PN3", RED, "upper[plus] = min(", "upper[plus] = max(",
           "loosest upper bound kept",
           equivalent="at most one upper bound per parameter, as for PN2"),
    Mutant("PN4", RED, "return k - 1 if k > var else k", "return k - 1 if k >= var else k",
           "renumbering shifts the pinned index too",
           equivalent="at is never called on the pinned variable: it is no other class's "
           "parameter, not -inf and in no kept row"),
    Mutant("PN5", RED, "t0 = t - off0 * factor", "t0 = t - off0",
           "pinned parameter value without the scale factor"),
    Mutant("PN6", RED, "bound = t0 - c", "bound = t0 + c",
           "upper bound with the wrong sign"),
    Mutant("PN7", RED, "rows.append((at(plus), at(minus), c))",
           "rows.append((at(plus), at(minus), constant))",
           "remaining rows without the scale factor"),
    Mutant("PN8", RED, "neg_inf=frozenset(at(v) for v in cell.neg_inf),",
           "neg_inf=frozenset(cell.neg_inf),", "-inf set not renumbered"),
    Mutant("PN9", RED, "assigned.append((at(v), at(param), offset * factor))",
           "assigned.append((at(v), param, offset * factor))", "parameters not renumbered"),
    # oracle.grid_solutions
    Mutant("GR1", ORACLE, "if (lv < rv and la < rv) or (rv < lv and rb < lv):",
           "if (lv < rv and la <= rv) or (rv < lv and rb <= lv):",
           "cut when the lower side only reaches the higher"),
    Mutant("GR2", ORACLE, "k ** (r + 1) <= _BLOCK", "k ** (r + 1) < _BLOCK",
           "block bound exclusive (4096 candidates go to the search)",
           equivalent="the block size only moves columns between the search and the block"),
    Mutant("GR3", ORACLE, "max(best, r[j] + top)", "max(best, r[j])",
           "reach bound without the largest grid value"),
    Mutant("GR4", ORACLE, "if lv == h:\n                    reach_l = full",
           "if False:\n                    reach_l = full",
           "leaf merge ignores a left prefix at the top"),
    Mutant("GR5", ORACLE, "for c in reversed(range(k)):", "for c in range(k):",
           "children pushed in ascending order"),
    Mutant("GR6", ORACLE, "top = values[-1]", "top = values[0]",
           "reach bound from the smallest grid value"),
    Mutant("GR7", ORACLE, "a_reach[d + 1], b_reach[d + 1]", "a_reach[d], b_reach[d]",
           "reach bound of the current column",
           equivalent="a looser reach bound cuts less, and the cut drops only failing candidates"),
    # core._to_ints
    Mutant("TI1", CORE, "if v.__class__ is Fraction:\n                break",
           "if False:\n                break",
           "a non-integral value read by as_scalar stays on the int pass"),
    Mutant("TI2", CORE, "if v.__class__ is Fraction:\n                break",
           "if True:\n                break",
           "every value as_scalar reads leaves the int pass",
           equivalent="the ratio path reads the same values over the same unit; "
           "only the int pass's saving is lost"),
    Mutant("TI3", CORE, "lcm = math.lcm(unit, *{r[1] for r in ratios if r is not None})",
           "lcm = max(unit, *{r[1] for r in ratios if r is not None})",
           "the ratio path's unit is the largest denominator, not the lcm"),
    Mutant("TI4", CORE, "f = unit // self.unit\n        return tuple(tuple([None if v is None else v * f",
           "f = unit // self.unit\n        return tuple(tuple([None if v is None else v",
           "in_unit does not rescale"),
    Mutant("TI5", CORE, "return Fraction(t, unit) if t % unit else t // unit",
           "return Fraction(t, unit)", "unscaled writes an integral value as a Fraction"),
    Mutant("TI6", CORE, "if g > 1:\n            unit //= g", "if False:\n            unit //= g",
           "Matrix._of_ints keeps a unit that is not the lowest"),
    # core.as_scalar (what the token reader references shadowed)
    Mutant("AS1", CORE, "digits.isascii() and len(digits) <= MAX_TOKEN_DIGITS",
           "digits.isascii()", "the int path reads integer tokens past the digit bound"),
    Mutant("AS2", CORE, "digits.isdigit() and digits.isascii() and", "digits.isdigit() and",
           "the int path reads non-ASCII digits"),
    Mutant("AS3", CORE, 'digits = text[1:] if text[:1] in ("+", "-") else text',
           "digits = text", "a signed integer token goes through Fraction"),
    Mutant("AS4", CORE, 'if text in ("-inf", "-oo"):', 'if text == "-inf":',
           "-oo is not read as -inf"),
    Mutant("AS5", CORE, "return value.numerator if value.denominator == 1 else value",
           "return value", "an integral Fraction is handed out as a Fraction"),
    Mutant("AS6", CORE, "digits = sum(ch.isdigit() for ch in text)",
           "digits = sum(ch in '0123456789' for ch in text)",
           "the token size check counts ASCII digits only"),
    # sub_specialize, _rows and close (what _reference_sub_specialize shadowed)
    Mutant("SB1", BIV, "residue = _rows(t, not eqs, taken)", "residue = _rows(t, False, taken)",
           "a round that settles hands back its residue unsorted"),
    Mutant("SB2", BIV, "forced = heads & tails", "forced = 1 << p",
           "a positive 2-cycle forces only its smaller variable"),
    Mutant("SB4", BIV, "if dist[i][i] < 0)", "if dist[i][i] <= 0)",
           "a closed core forces every variable on a zero cycle too"),
    Mutant("SB5", BIV, "and up + down == 0:", "and up + down <= 0:",
           "a closed core turns pairs of positive width into equations"),
    Mutant("SB6", BIV, "eqs.append((p, m, up))  # zero width", "pass  # zero width",
           "a closed core drops its zero-width equation but deletes the pair's rows"),
    Mutant("SB7", BIV, "residue = _rows(t, not eqs, taken)", "residue = _rows(t, not eqs)",
           "a closed core keeps the rows of its zero-width pairs"),
    Mutant("SB8", BIV, "(p * n + m) * 2 if p < m else (m * n + p) * 2 + 1",
           "(p * n + m) * 2 + 1 if p < m else (m * n + p) * 2",
           "a settled residue puts the minus-first row of a pair first"),
    Mutant("SB9", BIV, "if dij is None or through < dij:", "if dij is None:",
           "close keeps the first path found, not the lightest"),
    Mutant("SB11", BIV, "    for k in range(nv):\n        row_k = dist[k]",
           "    for k in range(0):\n        row_k = dist[k]",
           "close reads only the direct rows between core variables"),
    Mutant("PP1", BIV, "omega |= 1 << e // n\n                changed = True",
           "omega |= 1 << e // n\n                changed = False",
           "remove_and_enlarge stops after one pass"),
    # classify_row and winning_pairs (what ref_classify_row and ref_winning_pairs shadowed)
    Mutant("WP1", WIN, "pairs.extend((e, e) for e in columns(cls.ties))", "pass",
           "no tie pairs"),
    Mutant("WP2", WIN, "    return sorted(pairs)\n", "    return pairs\n",
           "winning pairs not sorted (tie pairs last)"),
    Mutant("WP3", WIN, "ties = a_win & b_win\n", "ties = 0\n",
           "tie columns counted as strict wins of both sides"),
    Mutant("WP4", WIN, "RowClassification(a_win ^ ties, b_win ^ ties, ties)",
           "RowClassification(a_win ^ ties, b_win, ties)", "classify_row keeps ties in b_wins"),
    Mutant("WP5", WIN, "a_win = masks.a_win[i] & live", "a_win = masks.a_win[i]",
           "classify_row reads A's dead columns as wins"),
    Mutant("WP6", WIN, "b_wins = columns(cls.b_wins)", "b_wins = columns(cls.a_wins)",
           "pairs take their B column from a_wins"),
    # reduce_instance's dead columns (what _reference_reduction shadowed)
    Mutant("RX1", PRE, "live = full ^ dead", "live = full",
           "the dead columns start live"),
    Mutant("RX2", PRE, "live, full ^ live ^ free, free)", "live, full ^ live ^ free ^ dead, free)",
           "the dead columns are not reported forced"),
    # the bridges (what the Fraction-built bridges of test_core shadowed)
    Mutant("BR1", PRE, "(x is not None and x >= y) else y", "(x is not None and x <= y) else y",
           "maximum_matrix takes the smaller finite entry"),
    Mutant("BR2", PRE, "unit = math.lcm(a.unit, b.unit)\n    rows = [",
           "unit = a.unit\n    rows = [", "maximum_matrix works in A's unit"),
    Mutant("BR3", RED, "a_rows = [row + (None,) * m for row in c.ints]",
           "a_rows = [(None,) * m + row for row in c.ints]",
           "hetero_to_homo puts C's columns after y's"),
    Mutant("BR4", RED, "Matrix._of_ints(b_rows, d.unit, n + m)", "Matrix._of_ints(b_rows, c.unit, n + m)",
           "hetero_to_homo reads D's ints in C's unit"),
    Mutant("BR5", RED, "column, unit = _to_ints(vec, a.unit)", "column, unit = _to_ints(vec)",
           "_with_column ignores the matrix's unit"),
    Mutant("BR6", RED, "_with_column(inst.b, inst.b_vec)", "_with_column(inst.b, inst.a_vec)",
           "homogenize_affine appends a to both sides"),
    # cli._parse_grid and GridSpec.of (what reference_parse_grid shadowed)
    Mutant("PG1", CLI, 'split(",") if t]', 'split(",")]', "--check grid keeps empty tokens"),
    Mutant("PG2", ORACLE, "if i == 0 or v != points[i - 1]", "if True",
           "GridSpec.of keeps repeated values"),
    Mutant("PG3", ORACLE, "points = sorted(map(as_scalar, values))", "points = list(map(as_scalar, values))",
           "GridSpec.of does not sort"),
    # cell_membership and the cell plan (what the Fraction membership rule shadowed)
    Mutant("CM1", CELLS, "if xs[v] is not None:\n            return False",
           "if False:\n            return False", "a point finite on a -inf column is accepted"),
    Mutant("CM2", CELLS, "if t is not None:\n                return False",
           "if False:\n                return False",
           "a link accepts -inf against a finite anchor"),
    Mutant("CM3", CELLS, "s - t != d * factor", "s - t != d",
           "a link compares without the point's unit factor"),
    Mutant("CM4", CELLS, "if tm is None or tp - tm + c * factor > 0:",
           "if tm is not None and tp - tm + c * factor > 0:",
           "a row accepts -inf on its minus side against a finite plus side"),
    Mutant("CM5", CELLS, "tp - tm + c * factor > 0", "tp - tm + c > 0",
           "a row compares without the point's unit factor"),
    Mutant("CM6", CELLS, "rows.append((ap, am, c - op + om))", "rows.append((ap, am, c))",
           "the plan's rows ignore the anchors' offsets"),
    Mutant("CM7", CELLS, "links.append((v, anchor[0], o - anchor[1]))", "links.append((v, anchor[0], o))",
           "the plan's links ignore the anchor's offset"),
    Mutant("CM8", CELLS, "if len(xs) != cell.num_vars:", "if len(xs) > cell.num_vars:",
           "cell_membership accepts a short vector"),
    # row_maxima, verify_solution, affine_holds (what the Fraction products shadowed)
    Mutant("PR1", CORE, "if best is None or t > best:", "if best is None:",
           "row_maxima keeps a row's first finite term"),
    Mutant("PR2", CORE, "if len(xs) != cols:", "if len(xs) > cols:",
           "row_maxima accepts a short vector"),
    Mutant("PR3", CORE, "_to_ints(x, math.lcm(*{m.unit for m in matrices}))",
           "_to_ints(x, matrices[0].unit)", "row_maxima works in the first matrix's unit"),
    Mutant("PR4", CELLS, "return maxima[: a.rows] == maxima[a.rows :]",
           "return maxima[:1] == maxima[a.rows : a.rows + 1]",
           "verify_solution compares the first row only"),
    Mutant("PR5", RED, "row_maxima(homogenize_affine(inst), xs + [0])",
           "row_maxima(homogenize_affine(inst), xs + [NEG_INF])",
           "affine_holds drops the constant terms"),
    Mutant("PR6", RED, "raise DimensionMismatch(f\"vector of length {len(xs)} against {n} columns\") from None",
           "raise", "affine_holds reports the homogenized length"),
    Mutant("PR7", CELLS, "    if a.rows != b.rows or a.cols != b.cols:\n        raise DimensionMismatch(\"matrix shapes differ\")\n    maxima",
           "    if a.rows != b.rows:\n        raise DimensionMismatch(\"matrix shapes differ\")\n    maxima",
           "verify_solution skips the column check"),
    # the sampler (what the Fraction sampler shadowed)
    Mutant("SM1", CELLS, "random() < 0.3)", "random() >= 0.3)",
           "parameters drawn at -inf with probability 0.7, not 0.3"),
    Mutant("SM2", CELLS, "remove_and_enlarge(t, drawn)[1] if drawn and rows else drawn",
           "drawn", "the drawn -inf set is not closed under the rows"),
    Mutant("SM3", CELLS, "for _ in range(40):", "for _ in range(1):",
           "one rejection try before the fallback"),
    Mutant("SM4", CELLS, "vals[p] += shifts[rep[p]]", "vals[p] += 0",
           "the fallback point is not shifted"),
    Mutant("SM5", CELLS, "min(d for d in col if d is not None)", "max(d for d in col if d is not None)",
           "the fallback takes the largest path weight, not the smallest"),
    Mutant("SM6", CELLS, "if drawn and rows else drawn", "if drawn and rows else 0",
           "a cell without rows never puts a drawn parameter at -inf"),
    Mutant("SM7", CELLS,
           "        if rep[p] == p:\n            r = getrandbits(k)\n            while r >= size:\n"
           "                r = getrandbits(k)\n            shifts[p] = (r - box) * scale\n"
           "        vals[p] += shifts[rep[p]]",
           "        r = getrandbits(k)\n        while r >= size:\n"
           "            r = getrandbits(k)\n        vals[p] += (r - box) * scale",
           "the fallback draws one shift per parameter, not per component"),
    Mutant("SM8", CELLS, "face = faces.get(drawn)", "face = faces.get(drawn & (drawn - 1))",
           "a point reuses the face of its drawn set less its lowest parameter"),
    # cross_validate (what ref_cross_validate shadowed)
    Mutant("CV1", ORACLE, "if x == trivial:\n            continue", "if False:\n            continue",
           "the trivial point is looked up in the cells"),
    Mutant("CV2", ORACLE, "if cell is not hit and cell_membership(cell, x):",
           "if cell_membership(cell, x):", "the last covering cell is tested twice"),
    Mutant("CV3", ORACLE, "hit = cell\n                break", "break",
           "the last covering cell is never remembered"),
    Mutant("CV4", ORACLE, "seed=seed + idx", "seed=seed", "every cell sampled from one seed"),
    Mutant("CV5", ORACLE, "holds = verdicts.get(point)", "holds = None",
           "every sampled point verified again"),
    Mutant("CV6", ORACLE, "missed.append(x)", "pass", "no miss is reported"),
    Mutant("CV7", ORACLE, "invalid.append((idx, point))", "pass", "no invalid point is reported"),
)


def stale_reason(mutant: Mutant, root: Path = ROOT) -> str | None:
    """Why the entry cannot be applied to the tree at root, or None if it can."""
    path = root / mutant.file
    if not path.is_file():
        return f"{mutant.file} does not exist"
    count = path.read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        return f"old occurs {count} times in {mutant.file}"
    return None


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _run_suite(work: Path, report: Path, maxfail: int | None, limit: float | None):
    """Run the suite in work: (seconds, outcomes), outcomes None if the run hung.

    outcomes maps each test id to "passed", "failed" or "skipped", and a
    module that failed to collect to "collection error"; a run that wrote
    no report (pytest could not load conftest.py) is one collection error.
    """
    # the registry guard checks the old snippets against the tree, which a
    # mutated run changes on purpose, so it would kill every entry
    cmd = [
        sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
        "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}",
        f"--junitxml={report}", "--ignore=tests/test_mutants.py",
    ]
    if maxfail is not None:
        cmd.append(f"--maxfail={maxfail}")
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    if report.exists():
        report.unlink()
    start = time.monotonic()
    # a session of its own, so that a timeout stops the child's test
    # processes with it and nothing else
    proc = subprocess.Popen(
        cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return time.monotonic() - start, None
    seconds = time.monotonic() - start
    if "Timeout (0:" in output:  # a test ran past pytest's faulthandler_timeout
        return seconds, None
    if not report.exists():
        return seconds, {f"pytest exit status {proc.returncode}, no report": "collection error"}
    outcomes = {}
    for case in ElementTree.parse(report).iter("testcase"):
        test = f"{case.get('classname')}::{case.get('name')}"
        error = case.find("error")
        if error is not None and error.get("message") == "collection failure":
            outcomes[case.get("name")] = "collection error"
        elif case.find("failure") is not None or error is not None:
            outcomes[test] = "failed"
        elif case.find("skipped") is not None:
            outcomes[test] = "skipped"
        else:
            outcomes[test] = "passed"
    return seconds, outcomes


def main(argv: list[str]) -> int:
    by_id = {m.id: m for m in MUTANTS}
    unknown = [i for i in argv if i not in by_id]
    if unknown:
        print(f"unknown ids: {' '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_id[i] for i in argv] if argv else list(MUTANTS)
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="tropsolve-mutants-") as tmp:
        work, report = Path(tmp) / "tree", Path(tmp) / "report.xml"
        work.mkdir()
        _copy_tree(work)
        seconds, base = _run_suite(work, report, None, None)
        if base is None or "collection error" in base.values():
            print("the unmutated suite does not run to its end", file=sys.stderr)
            return 2
        passing = {t for t, o in base.items() if o == "passed"}
        failing = sorted(t for t, o in base.items() if o != "passed" and o != "skipped")
        limit = 3 * seconds + 30
        print(f"unmutated: {len(passing)} passed, {len(failing)} failed in {seconds:.1f} s; "
              f"limit per entry {limit:.0f} s")
        for test in failing:
            print(f"  failing unmutated: {test}")
        counts: dict[str, int] = {}
        bad = 0
        for mutant in chosen:
            stale = stale_reason(mutant, work)
            if stale is not None:
                verdict, detail, secs = "stale", stale, 0.0
            else:
                path = work / mutant.file
                original = path.read_text(encoding="utf-8")
                path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
                try:
                    secs, outcomes = _run_suite(work, report, len(failing) + 1, limit)
                finally:
                    path.write_text(original, encoding="utf-8")
                if outcomes is None:
                    verdict, detail = "hung", "no verdict within the time limit"
                else:
                    errors = sorted(t for t, o in outcomes.items() if o == "collection error")
                    killers = sorted(t for t in passing if outcomes.get(t) == "failed")
                    if errors:
                        verdict, detail = "killed", "collection error: " + ", ".join(errors)
                    elif killers:
                        verdict, detail = "killed", ", ".join(killers[:3])
                    elif mutant.equivalent:
                        verdict, detail = "equivalent", mutant.equivalent
                    else:
                        verdict, detail = "survived", mutant.note
            counts[verdict] = counts.get(verdict, 0) + 1
            bad += verdict in ("survived", "stale")
            print(f"{mutant.id:6} {verdict:10} {secs:6.1f} s  {detail}", flush=True)
    total = time.monotonic() - started
    summary = ", ".join(f"{counts[v]} {v}" for v in sorted(counts))
    print(f"{len(chosen)} entries: {summary}; {total:.0f} s in all")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
