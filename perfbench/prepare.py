"""Set-up child: import causalgeo and write one workload's config and pairs files.

Usage: ``python3 prepare.py WORKLOAD SEED RUN_DIR``.  Each config written is
read back through ``causalgeo.cli.RunConfig`` so a malformed one stops the
benchmark before its timed phase.
"""

from __future__ import annotations

import sys

import causalgeo.cli

from workloads import WORKLOADS


def main(argv):
    name, seed, run_dir = argv
    for path in WORKLOADS[name].prepare(run_dir, int(seed)):
        config = causalgeo.cli.RunConfig()
        config.load_file(path)
        config.validate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
