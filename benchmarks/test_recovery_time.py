"""Recovery micro-bench: time-to-reconverge after killing BGP (§3, §6.5).

The supervised crash scenario from :mod:`repro.experiments.recovery`:
the BGP process is killed mid-session under seeded 10% XRL frame loss;
the supervisor restarts it and the router re-converges.  The benchmark
reports the wall-clock cost of driving one full recovery through the
simulator, and prints the *virtual* recovery timeline — the number the
paper's robustness story actually cares about.
"""

import pytest

from repro.experiments.recovery import run_recovery

RECOVERY_SEED = 7
RECOVERY_DROP = 10  # frame-loss percentage


@pytest.mark.chaos
def test_recovery_time(benchmark):
    box = {}

    def run():
        box["result"] = run_recovery(seed=RECOVERY_SEED,
                                     drop_probability=RECOVERY_DROP / 100.0)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = box["result"]
    print()
    print(f"seed={RECOVERY_SEED} drop={RECOVERY_DROP}%")
    print(f"  time to restart     {result.time_to_restart * 1000:9.3f} ms "
          "(virtual)")
    print(f"  time to reconverge  {result.time_to_reconverge * 1000:9.3f} ms "
          "(virtual)")
    print(f"  frames dropped      {result.dropped:6d}")
    print(f"  frames passed       {result.passed:6d}")
    print(f"  xrl retries         {result.retries:6d}")

    assert result.restarts == 1
    # Detection + backoff + restart is sub-second virtual time...
    assert result.time_to_restart < 1.0
    # ...and full reconvergence (session re-establishment, RIB/FEA
    # resync under frame loss) lands within the ping-period scale.
    assert result.time_to_reconverge < 30.0
