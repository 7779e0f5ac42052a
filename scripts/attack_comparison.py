#!/usr/bin/env python3
"""Compare all eavesdropper strategies on one footing.

Runs the same experiment for each adversary and prints the sifted error
rate, the parity-stage detection rate, and how much of the key the
adversary actually captured.  The side-by-side makes the central contrast
visible: the oracle-assisted indirect copy is invisible and fully informed,
while its single-shot variant disturbs the channel more than plain
intercept/resend.
"""

import argparse

from bb84sim.adversary import EVE_KINDS
from bb84sim.harness import ExperimentConfig, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pulses", type=int, default=20_000)
    parser.add_argument("--sessions", type=int, default=20)
    parser.add_argument("--parity-rounds", type=int, default=32)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    header = f"{'strategy':<20} {'QBER':>8} {'detected':>9} {'eve accuracy':>13}"
    print(header)
    print("-" * len(header))
    for kind in EVE_KINDS:
        config = ExperimentConfig(
            n_pulses=args.pulses,
            n_sessions=args.sessions,
            parity_rounds=args.parity_rounds,
            eve_kind=kind,
            master_seed=args.seed,
        )
        aggregates = run_experiment(config).aggregates
        accuracy = (
            "-"
            if aggregates.mean_eve_accuracy is None
            else f"{aggregates.mean_eve_accuracy:13.4f}"
        )
        print(
            f"{kind:<20} {aggregates.mean_qber:8.4f} "
            f"{aggregates.detection_rate:9.2f} {accuracy:>13}"
        )


if __name__ == "__main__":
    main()
