#!/usr/bin/env python3
"""Checks that `canvasctl serve` opens the flash burst at a short horizon.

Runs the arrival axis of the serve smoke (poisson vs flash, 0.2 s horizon,
seed 3) on the default tenants and compares the frontend's offered
requests: with the burst inside the horizon the flash row offers well over
the Poisson row (about 2.7x); a burst placed past the horizon leaves the
two rows equal.

Usage: serve_flash_opens.py <canvasctl> <report.json>
"""
import json
import subprocess
import sys

MIN_RATIO = 1.5


def main():
    canvasctl, report = sys.argv[1], sys.argv[2]
    subprocess.run(
        [canvasctl, "serve", "--arrivals=poisson,flash", "--horizon=0.2",
         "--seeds=3", "--out=" + report],
        check=True, stdout=subprocess.DEVNULL)
    with open(report) as f:
        runs = json.load(f)["runs"]
    offered = {}
    for r in runs:
        arrival = r["label"].split("/")[2]
        for t in r["tenants"]:
            if t["name"] == "frontend":
                offered[arrival] = t["offered"]
    print("frontend offered: %s" % offered)
    ratio = offered["flash"] / offered["poisson"]
    if ratio < MIN_RATIO:
        print("flash/poisson = %.2f < %.1f: the burst never opened"
              % (ratio, MIN_RATIO))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
