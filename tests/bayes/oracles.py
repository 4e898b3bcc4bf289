"""Reference samplers the compiled Bayes paths are compared against."""

from bisect import bisect_right


def sample_node_scalar(net, name, parent_values, u):
    """Sample node ``name`` of ``net`` for one run given scalar parent
    values and a uniform draw ``u``: the count of cumulative CPT entries
    ``<= u`` (why ``bisect_right`` samples what numpy did: DESIGN.md §5)."""
    row = net.cum_rows[name]
    for value in parent_values:
        row = row[value]
    return bisect_right(row, u)
