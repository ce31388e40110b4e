"""Build the serve workload's request pool and its expected responses.

    python3 perfbench/serve_refs.py --seed N --out FILE

Runs as its own program process (``PYTHONHASHSEED=0``, empty cache) so
the references see exactly the server's settings.  Writes the pool's
request payloads and ``batch_reference_records`` for them as JSON.
"""

from __future__ import annotations

import argparse
import json

IMPLS = ("wfa-vec", "biwfa-vec", "ss-vec")
POOL_PAIRS = 48  # per short-read dataset


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.genomics.datasets import build_dataset
    from repro.serve.client import batch_reference_records
    from repro.serve.protocol import AlignRequest

    pairs = [
        *build_dataset("100bp_1", POOL_PAIRS, seed=args.seed).pairs,
        *build_dataset("250bp_1", POOL_PAIRS, seed=args.seed).pairs,
    ]
    pool = [
        AlignRequest(
            id=f"p{k:03d}", tenant=f"tenant{k % 2}", impl=IMPLS[k % 3],
            pattern=str(pair.pattern), text=str(pair.text),
        )
        for k, pair in enumerate(pairs)
    ]
    expected = batch_reference_records(pool)
    with open(args.out, "w") as fh:
        json.dump({
            "pool": [
                {"id": r.id, "tenant": r.tenant, "impl": r.impl,
                 "pattern": r.pattern, "text": r.text}
                for r in pool
            ],
            "expected": expected,
        }, fh)


if __name__ == "__main__":
    main()
