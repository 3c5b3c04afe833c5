"""One untraced charvar command, as the console script runs it.

Run as a child process from the checkout root:

    PYTHONPATH=src python3 perfbench/child.py polys --m 2

After ``charvar.cli.main`` returns, the child writes its peak resident set
(``VmHWM``) as the last line of stderr.  The rusage that ``wait4`` returns
is no use for this: Linux carries the high-water mark of the image a
process replaced by exec into ``ru_maxrss``, so a child forked from the
benchmark process would report at least that process's own size.
"""

import sys

PEAK_RSS_TAG = "perfbench-peak-rss-kib"


def peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    from charvar.cli import main
    try:
        code = main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(f"\n{PEAK_RSS_TAG} {peak_rss_kib()}\n")
    sys.exit(code)
