"""Run the sparsid CLI in this process with spans around its layers.

    python3 perfbench/traced_cli.py SPANS.json <sparsid arguments>

Exits with the CLI's exit code after writing the spans to SPANS.json.
"""

import sys

from workloads import SRC

sys.path.insert(0, str(SRC))

import sparsid.cli  # noqa: E402

from spans import Tracer, install  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return sparsid.cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
