"""Run one ``shamfinder`` subcommand, then report the process's peak RSS.

Usage: ``python3 perfbench/launch.py <subcommand> [args...]`` with the
repository's ``src`` on ``PYTHONPATH``.  After the command returns, one
line ``{"perfbench_vmhwm_kb": N}`` goes to stderr: ``VmHWM`` from
``/proc/self/status``, the high-water resident set of this process.
"""

import json
import sys

from repro.cli import main


def vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    print(json.dumps({"perfbench_vmhwm_kb": vmhwm_kb()}), file=sys.stderr, flush=True)
    sys.exit(code)
