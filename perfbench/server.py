"""Child process of the benchmark: one ``serve_async`` server.

    python3 perfbench/server.py --index PATH [--buffer-pages N]
    python3 perfbench/server.py --manifest PATH --writable

Prints ``{"port": N}`` once listening, serves until a ``stop`` line
arrives on stdin, then drains, closes the session (a writable
deployment checkpoints) and prints ``{"stopped": true}``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index", help="single-file index (read-only)")
    parser.add_argument("--buffer-pages", type=int, default=None)
    parser.add_argument("--manifest", help="shard manifest")
    parser.add_argument("--writable", action="store_true")
    args = parser.parse_args()

    from repro import connect
    from repro.serve import serve_async
    from repro.storage.buffer import BufferManager

    if args.manifest:
        session = connect(
            args.manifest, backend="sharded", writable=args.writable
        )
    elif args.buffer_pages is not None:
        session = connect(
            args.index, backend="disk", buffer=BufferManager(args.buffer_pages)
        )
    else:
        session = connect(args.index)
    server = serve_async(session, port=0)
    try:
        print(json.dumps({"port": server.address[1]}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        server.shutdown()
        session.close()
    print(json.dumps({"stopped": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
