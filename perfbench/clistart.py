"""Run one paravoa CLI command and note when its `main` was entered.

    python3 perfbench/clistart.py MARK --config a2 classify P2

Behaves like `python -m paravoa.cli` (same output, same exit code).  Once
`paravoa.cli` is imported, and before `main` runs, it writes the monotonic
clock reading in seconds to the file MARK, so that the caller can time
interpreter start and import from the moment it spawned the process.
"""

import sys
import time

from paravoa import cli


def main() -> int:
    mark, argv = sys.argv[1], sys.argv[2:]
    t_main = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(mark, "w") as f:
        f.write(repr(t_main))
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
