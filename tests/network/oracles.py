"""Analytic oracles for the link models."""


def min_frame_latency(net, src, dst, size_bytes):
    """Zero-contention latency of one frame from ``src`` to ``dst`` on the
    switched fabric ``net``: every hop's serialisation plus link latency,
    and one switch latency per switch traversed."""
    cfg = net.config
    hops = net.path_hops(src, dst)
    total = sum(cfg.tx_time(size_bytes, bw) + cfg.link_latency for _, bw in hops)
    return total + cfg.switch_latency * (len(hops) - 1)
