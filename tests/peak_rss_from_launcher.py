#!/usr/bin/env python3
"""Checks that canvasctl reports its own peak RSS, not its launcher's.

Holds 64 MiB of touched ballast, then starts `canvasctl sweep` on a tiny
grid and reads the timing section of its JSON report: every run's
peak_rss_bytes must stay below the ballast. A peak read from ru_maxrss
fails here, because ru_maxrss survives exec and so reports this launcher's
high-water mark.

Usage: peak_rss_from_launcher.py <canvasctl> <report.json>
"""
import json
import subprocess
import sys

BALLAST_BYTES = 64 << 20


def main():
    canvasctl, report = sys.argv[1], sys.argv[2]
    ballast = bytearray(b"\x01") * BALLAST_BYTES  # every page touched
    subprocess.run(
        [canvasctl, "sweep", "--jobs=1", "--systems=linux", "--scales=0.05",
         "--seeds=3", "--out=" + report, "snappy"],
        check=True, stdout=subprocess.DEVNULL)
    with open(report) as f:
        runs = json.load(f)["timing"]["per_run"]
    peaks = [r["peak_rss_bytes"] for r in runs]
    print("ballast %d bytes, reported peaks %s" % (len(ballast), peaks))
    if not peaks or max(peaks) >= BALLAST_BYTES:
        sys.exit(1)


if __name__ == "__main__":
    main()
