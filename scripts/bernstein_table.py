#!/usr/bin/env python3
"""Print the h-vectors of the codimension-5 type-1 construction and its
type-2/3/4 variants side by side."""

import argparse

from levelalg import apolarity
from levelalg.families import special_construction


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    vecs = {}
    for k in (1, 2, 3, 4):
        w = special_construction("bernstein_t%d" % k, seed=args.seed)
        vecs[k] = apolarity.hilbert_vector(w)
    print("d   " + "".join("t=%-5d" % k for k in sorted(vecs)))
    for d in range(17):
        print("%-4d" % d + "".join("%-7d" % vecs[k][d] for k in sorted(vecs)))


if __name__ == "__main__":
    main()
