"""``python -m bench.echo_child``: the XRL server of ``xrl_call``.

A second OS process with the stock child bootstrap (``ChildRuntime``: real
clock, remote Finder, TCP family) and one component, ``bench_echo``:

* ``bench/1.0/noargs`` — raw, ignores its arguments and returns nothing,
  the paper's §8.1 receiver (marshal + transport + dispatch, no handler);
* ``bench/1.0/sum`` — raw, returns the sum of its ``u32`` arguments, so
  the client can check that arguments survive the trip.
"""

import sys
from typing import List, Optional

from repro.core.runtime import ChildRuntime, base_parser
from repro.xrl import XrlArgs, XrlRouter

CLASS_NAME = "bench_echo"


def _sum(args: XrlArgs) -> XrlArgs:
    return XrlArgs().add_u32(
        "sum", sum(atom.value for atom in args) & 0xFFFFFFFF)


def main(argv: Optional[List[str]] = None) -> None:
    args = base_parser("bench.echo_child").parse_args(argv)
    runtime = ChildRuntime(args.finder, codec=args.codec)
    router = XrlRouter(runtime.loop, CLASS_NAME, runtime.finder,
                       families=list(runtime.host.families))
    router.register_raw_method("bench/1.0/noargs", lambda args: None)
    router.register_raw_method("bench/1.0/sum", _sum)
    runtime.install_signal_handlers()
    runtime.run()


if __name__ == "__main__":
    main(sys.argv[1:])
