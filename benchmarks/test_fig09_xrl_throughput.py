"""Figure 9: XRL performance for various communication families.

Paper series: XRLs/sec vs. number of XRL arguments (0-25) for
Intra-Process, TCP and UDP.  Expected shape (paper §8.1):

* Intra-Process fastest at low argument counts;
* TCP close behind, converging with Intra-Process as argument
  marshaling starts to dominate;
* UDP significantly slower throughout — it does not pipeline requests.

Each point is the best of three transactions, the families taking turns
(``run_xrl_throughput``): one ~0.15 s sample cannot resolve the 5-15 %
margins below on a host whose speed drifts from second to second.
"""

from repro.experiments.xrlperf import run_xrl_throughput

ARG_COUNTS = [0, 5, 10, 15, 20, 25]


def test_fig09_xrl_throughput(benchmark):
    result_box = {}

    def run():
        result_box["result"] = run_xrl_throughput(
            arg_counts=ARG_COUNTS, transaction_size=10000, window=100,
            repetitions=3, families=["intra", "local", "tcp", "udp"])

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = result_box["result"]
    print()
    print(result.table())
    # §8.1 footnote: two processes on one host are "very slightly worse"
    # than intra-process.  Here the two families share one sender, so
    # the reading is a band around level, not an ordering.
    ratio = result.best("local", 0) / result.best("intra", 0)
    assert 1 / 1.15 < ratio < 1.15, f"local/intra at 0 args: {ratio:.2f}"

    # Shape assertions, per the paper's findings.
    for arg_count in ARG_COUNTS:
        intra = result.best("intra", arg_count)
        tcp = result.best("tcp", arg_count)
        udp = result.best("udp", arg_count)
        assert intra > 0 and tcp > 0 and udp > 0
        # UDP (unpipelined) is the slowest family at every size.
        assert udp < tcp, f"args={arg_count}: udp {udp} !< tcp {tcp}"
        assert udp < intra, f"args={arg_count}: udp {udp} !< intra {intra}"
        # Figure 9's ordering: nothing beats a call that crosses no socket.
        assert intra >= tcp, f"args={arg_count}: intra {intra} < tcp {tcp}"
    # ...and the intra/TCP gap narrows as marshaling dominates.
    gap_small = result.best("intra", 0) / result.best("tcp", 0)
    gap_large = result.best("intra", 25) / result.best("tcp", 25)
    assert gap_large < gap_small, (
        f"gap did not narrow: {gap_small:.2f} -> {gap_large:.2f}")
    # Several thousand XRLs/sec, as in the paper.
    assert result.best("intra", 0) > 2000
