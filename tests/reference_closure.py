"""The closure as it stood before it stored each mask's choice of traces.

Every level maps a mask to the first (previous mask, trace) pair that
gives it, and a witness is walked back through all the levels.  The tests
check the closure in src/ against this one: the same first-seen rule must
name the same arc ends.  Nothing here comes from torusvc.
"""

Mask = int


def _closure(tables, full: Mask) -> list:
    """Per table, {mask: (prev_mask, trace)}: every AND of full with one
    trace of each table so far, keyed to the first pair that gives it."""
    levels, prev = [], (full,)
    for table in tables:
        cur = {}
        for r in prev:
            for trace in table:
                m = r & trace
                if m not in cur:
                    cur[m] = (r, trace)
        levels.append(cur)
        prev = cur
    return levels


def _all_ends(components, full: Mask) -> dict:
    """{mask: (label, arc ends)} for every mask the closures hold, each
    walked back from the first closure holding it, stopping at 2^n masks."""
    found = {}
    for label, tables in components:
        levels = _closure(tables, full)
        for mask in levels[-1].keys() - found.keys():
            ends, m = [], mask
            for level, table in zip(reversed(levels), reversed(tables)):
                m, trace = level[m]
                ends.append(table[trace])
            found[mask] = label, tuple(reversed(ends))
        if len(found) > full:
            break
    return found
