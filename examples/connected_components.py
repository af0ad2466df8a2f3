"""Composing optimizations: the S-V algorithm with every channel combo.

The paper's flagship example (Section III-C, Table VI): the S-V
connected-components algorithm has three communication patterns at once —
a grandparent read, a neighborhood minimum, and congested root updates —
and each maps to its own channel.  This script runs all four channel
combinations plus the Pregel+ reqresp baseline on a social-network-like
graph and prints the Table VI comparison.

Run:  python examples/connected_components.py
"""

from repro.algorithms.sv import run_sv
from repro.algorithms.wcc import run_wcc
from repro.graph import rmat
from repro.pregel_algorithms.sv import run_sv_pregel


def main():
    graph = rmat(12, edge_factor=10, seed=42, directed=False)
    print(f"input: {graph}\n")
    print(f"{'program':28s} {'sim time':>9s} {'net MB':>8s} {'supersteps':>10s}")

    # the comparison is between per-vertex programs, like Table VI: pin the
    # listings (run_sv's default is the several-times-faster columnar port)
    rows = []
    labels_ref = None
    for name, run in [
        ("pregel+ (reqresp)", lambda: run_sv_pregel(graph, variant="reqresp", num_workers=8)),
        ("channel (basic)", lambda: run_sv(graph, variant="basic", mode="scalar", num_workers=8)),
        ("channel (request-respond)", lambda: run_sv(graph, variant="reqresp", mode="scalar", num_workers=8)),
        ("channel (scatter-combine)", lambda: run_sv(graph, variant="scatter", mode="scalar", num_workers=8)),
        ("channel (both)", lambda: run_sv(graph, variant="both", mode="scalar", num_workers=8)),
    ]:
        labels, result = run()
        if labels_ref is None:
            labels_ref = labels
        assert (labels == labels_ref).all(), "all variants must agree"
        m = result.metrics
        rows.append((name, m.simulated_time, m.total_net_bytes / 1e6, m.supersteps))
        print(f"{name:28s} {m.simulated_time:9.4f} {m.total_net_bytes / 1e6:8.2f} {m.supersteps:10d}")

    best = min(rows[1:], key=lambda r: r[1])
    prior = rows[0]
    print(
        f"\ncomposed channels vs best prior system: "
        f"{prior[1] / best[1]:.2f}x faster, "
        f"{prior[2] / best[2]:.2f}x fewer bytes "
        f"(paper reports 2.20x on its cluster)"
    )

    # where the traffic goes: the per-channel breakdown of the composed run
    _, res = run_sv(graph, variant="both", num_workers=8)
    print("\nper-channel traffic in the composed version:")
    for label, t in res.metrics.channel_breakdown().items():
        print(
            f"  {label:20s} net {t['net_bytes'] / 1e3:8.1f} KB   "
            f"messages {t['messages']:7d}"
        )

    n_components = len(set(labels_ref.tolist()))
    print(f"components found: {n_components}")

    # sanity: the HCC propagation channel finds the same components
    wcc_labels, _ = run_wcc(graph, variant="prop", num_workers=8)
    assert (wcc_labels == labels_ref).all()
    print("cross-check vs propagation-channel WCC: identical labels")


if __name__ == "__main__":
    main()
