#!/usr/bin/env python3
"""Verify the six reference family instances and print their drop reports.

Each instance is constructed with random generators from the given seed and
its Hilbert values on the critical range are compared against the predicted
non-unimodal pattern.
"""

import argparse
import json
import time

from levelalg import families


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--retries", type=int, default=3)
    args = ap.parse_args()
    ok = True
    for fam, kw, _h, _t in families.GOLDEN:
        params = families.require_valid(fam, **kw)
        t0 = time.time()
        rep = families.verify_drop(params, args.seed, args.retries)
        ok &= rep.verdict != "mismatch"
        print("%s %-28s %-11s h(%d..%d) = %s  [%.1fs]"
              % (fam, json.dumps(kw, sort_keys=True), rep.verdict,
                 params.i, params.i_f, ", ".join(map(str, rep.measured)),
                 time.time() - t0))
    raise SystemExit(0 if ok else 2)


if __name__ == "__main__":
    main()
