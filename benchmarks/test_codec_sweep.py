"""Codec and deployment-mode sweeps: what the two frame codecs cost.

Two measurements extend the committed trajectories:

* Figure 9 — the XRL transaction over TCP with the frame codec as the
  swept variable (the stateless textual frames vs. the negotiated
  binary form), across batch sizes 1 / 16 / 256.  Both write arguments
  with the one atom encoding and differ by method interning only, so the
  bar is: a binary frame is smaller than the textual frame of the same
  call, and at batch 256 neither codec runs under 0.8x the other.
* Figure 13 — one deployment-mode point: routes/sec with the RIB and
  FEA as real OS subprocesses, every route crossing two process
  boundaries over TCP.  No bar beyond completing — the point exists so
  the trajectory records what real process isolation costs relative to
  the in-process pipeline.

Env knobs: ``REPRO_FIG09_CODEC_TXN`` (transaction size),
``REPRO_FIG13_SUBPROC_ROUTES`` (routes in the subprocess point).
"""

from pathlib import Path

from conftest import env_int

from repro.experiments.batchflow import (
    BATCH_SIZES,
    record_trajectory,
    run_codec_sweep,
    run_subprocess_route_point,
)
from repro.xrl.args import XrlArgs
from repro.xrl.codec import TEXTUAL, BinaryCodec

REPO_ROOT = Path(__file__).resolve().parent.parent

CODEC_TXN = env_int("REPRO_FIG09_CODEC_TXN", 5000)
SUBPROC_ROUTES = env_int("REPRO_FIG13_SUBPROC_ROUTES", 512)

ISSUE = 9
LABEL = "negotiated binary frame codec & multi-process deployment"


def _frame_bytes_per_call():
    """(textual, binary) request bytes for the sweep's ten-``u32`` call,
    the binary one as it is from the second call on a connection."""
    args = XrlArgs()
    for index in range(10):
        args.add_u32(f"a{index}", index)
    method = "0" * 32 + "/bench/1.0/noargs"
    binary = BinaryCodec()
    binary.encode_request(1, method, args)
    return (len(TEXTUAL.encode_request(2, method, args)),
            len(binary.encode_request(2, method, args)))


def test_fig09_codec_sweep(benchmark):
    box = {}

    def run():
        box["rates"] = run_codec_sweep(BATCH_SIZES,
                                       transaction_size=CODEC_TXN)

    benchmark.pedantic(run, rounds=1, iterations=1)
    rates = box["rates"]
    print()
    for name, table in rates.items():
        for size, rate in sorted(table.items()):
            print(f"{name:>12} batch {size:>3}: {rate:>9.0f} XRLs/s")

    speedups = {
        size: rates["tcp-binary"][size] / rates["tcp-textual"][size]
        for size in BATCH_SIZES
    }
    for size, speedup in sorted(speedups.items()):
        print(f"binary/textual at batch {size:>3}: {speedup:.2f}x")
        benchmark.extra_info[f"binary_speedup_{size}"] = round(speedup, 3)
    textual_bytes, binary_bytes = _frame_bytes_per_call()
    print(f"request frame: textual {textual_bytes} B, binary {binary_bytes} B")

    entry = {
        "issue": ISSUE,
        "label": LABEL,
        "transaction_size": CODEC_TXN,
        "xrls_per_sec": {
            name: {str(size): round(rate, 1)
                   for size, rate in sorted(table.items())}
            for name, table in rates.items()
        },
        "binary_speedup_vs_textual": {
            str(size): round(speedup, 3)
            for size, speedup in sorted(speedups.items())
        },
        "request_frame_bytes": {"tcp-textual": textual_bytes,
                                "tcp-binary": binary_bytes},
    }
    record_trajectory(REPO_ROOT / "BENCH_fig09.json", "fig09",
                      "XRLs/sec by (family, batch size)", entry)

    # Interning is what the binary frames buy; the atoms cost the same.
    assert binary_bytes < textual_bytes
    assert 0.8 <= speedups[256] <= 1 / 0.8, (
        f"binary frames {speedups[256]:.2f}x textual at batch 256: one "
        "codec has fallen behind the other")


def test_fig13_subprocess_point(benchmark):
    box = {}

    def run():
        box["rate"] = run_subprocess_route_point(SUBPROC_ROUTES)

    benchmark.pedantic(run, rounds=1, iterations=1)
    rate = box["rate"]
    print(f"\nsubprocess mode: {rate:.0f} routes/s "
          f"({SUBPROC_ROUTES} routes, rib+fea as OS processes)")
    benchmark.extra_info["routes_per_sec"] = round(rate, 1)

    entry = {
        "issue": ISSUE,
        "label": LABEL,
        "mode": "subprocess (rib + fea as OS processes, TCP transport)",
        "route_count": SUBPROC_ROUTES,
        "routes_per_sec": round(rate, 1),
    }
    record_trajectory(REPO_ROOT / "BENCH_fig13.json", "fig13",
                      "routes/sec through RIB->FEA (adds + withdrawals)",
                      entry)
    assert rate > 100, f"subprocess route flow implausibly slow: {rate:.0f}/s"
