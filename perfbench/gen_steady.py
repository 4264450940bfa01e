#!/usr/bin/env python3
"""Write the benchmark's `steady` trace: a stationary VM stream.

    python3 perfbench/gen_steady.py --seed 42 --vms 500000 --out steady.csv

Poisson arrivals (mean gap 10), exponential lifetimes (mean 6000) and the
paper's VM mix (1-32 cores, 1-32 GB RAM, 128 GB storage), drawn from
Python's Mersenne Twister: the same seed gives the same file, independent
of the program's own generators. run.py calls this in a child process so
its own memory, which wait4's peak RSS of later children includes, stays
small.
"""

import argparse
import math
import os
import random


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--vms", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    r, log = rng.random, math.log
    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        f.write("id,cpu_cores,ram_gb,storage_gb,arrival,lifetime\n")
        t = 0.0
        for i in range(args.vms):
            t += -log(1.0 - r()) * 10.0
            life = max(-log(1.0 - r()) * 6000.0, 0.001)
            f.write(f"{i},{1 + int(r() * 32)},{1 + int(r() * 32)},128,{t:.3f},{life:.3f}\n")
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
