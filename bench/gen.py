"""Input generators the workloads share."""

from __future__ import annotations

import numpy as np


def blast_radius(net, tables) -> np.ndarray:
    """Per link: how many sources have it on their shortest-path tree.

    The affected-source test of the incremental routing engine, run for
    every link on tables built during set-up.  It decides what a
    ``SetLinkCost`` on that link costs to repair: a handful of source
    rows, or nearly all of them.
    """
    u, v, lat, _ = net.link_endpoint_arrays()
    dist = tables.dist
    out = np.empty(len(u), dtype=np.int64)
    for lo in range(0, len(u), 256):  # bounded scratch: n x 256 floats
        a, b = u[lo:lo + 256], v[lo:lo + 256]
        cost = lat[lo:lo + 256]
        da, db = dist[:, a], dist[:, b]
        on_tree = (((da + cost) <= db) & np.isfinite(da)) | (
            ((db + cost) <= da) & np.isfinite(db))
        out[lo:lo + 256] = on_tree.sum(axis=0)
    return out


def ladder_links(net, tables, n: int, rng) -> list[int]:
    """``n`` distinct links, one drawn from each ``n``-th of the blast
    ranking, in shuffled order.

    Uniformly drawn links would make the repair work a lottery of the
    seed (it spans three orders of magnitude); a ladder gives every seed
    the same cheap-to-expensive mix while the seed still picks the links.
    """
    ranked = np.argsort(blast_radius(net, tables), kind="stable")
    links = [int(rng.choice(band)) for band in np.array_split(ranked, n)]
    return [links[i] for i in rng.permutation(n)]
