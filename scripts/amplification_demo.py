#!/usr/bin/env python3
"""Show what privacy amplification can and cannot repair.

Generates verification-free sessions under two attacks and measures the
adversary's per-bit agreement with the hashed final key across several
security margins.  Against intercept/resend the hashed guess is noise
(advantage ~0).  Against the oracle-assisted indirect copy the guess IS
the key, so the advantage pins at the 0.5 maximum for every margin:
compression cannot help once the assumed leak underestimates a total one.
"""

import argparse

from bb84sim.adversary import channel_table
from bb84sim.amplification import PrivacyParams, eve_residual_information
from bb84sim.harness import derive_seed
from bb84sim.protocol import SessionConfig, run_batch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pulses", type=int, default=700)
    parser.add_argument("--sessions", type=int, default=200)
    parser.add_argument("--key-bits", type=int, default=256)
    parser.add_argument("--leak-bits", type=int, default=200)
    parser.add_argument("--margins", default="4,8,16")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    margins = [int(m) for m in args.margins.split(",")]

    attacks = {
        kind: channel_table(kind)
        for kind in ("intercept-resend", "indirect-oracle")
    }
    config = SessionConfig(n_pulses=args.pulses)
    print(f"{'attack':<20} " + " ".join(f"s={m:<8}" for m in margins))
    for name, eve in attacks.items():
        batch = run_batch(config, eve, [
            derive_seed(args.seed, i) for i in range(args.sessions)
        ])
        row = []
        for margin in margins:
            params = PrivacyParams(
                input_bits=args.key_bits,
                leak_bits=args.leak_bits,
                margin_bits=margin,
            )
            advantage = eve_residual_information(batch, params, args.seed)
            row.append(f"{advantage:<10.5f}")
        print(f"{name:<20} " + " ".join(row))


if __name__ == "__main__":
    main()
