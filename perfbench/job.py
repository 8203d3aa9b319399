"""One benchmark job: run botdetect CLI commands in this process, in order.

Usage: python3 job.py SPEC.json

SPEC holds `commands` (a list of argv lists for `botdetect.cli.main`),
`job` (an integer id) and `spans` (a path to write spans to, or null for an
untraced job). Exits with the first non-zero CLI exit code, else 0.
"""

import json
import sys


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["spans"]:
        from tracing import Tracer

        tracer = Tracer(spec["job"])
        tracer.install()
    from botdetect.cli import main as cli_main

    try:
        for argv in spec["commands"]:
            code = cli_main(argv)
            if code:
                return code
        return 0
    finally:
        if tracer is not None:
            tracer.dump(spec["spans"])


if __name__ == "__main__":
    sys.exit(main())
