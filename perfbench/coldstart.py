"""A deployed scorer's cold start, in a fresh process: seconds from
`infer.load_bundle` until the first `infer.score` returns.

    python3 perfbench/coldstart.py BUNDLE QUERY_PICKLE

Prints {"setup_s": seconds, "score": first score}. Interpreter start-up and
the imports are not timed; everything the load and the first score do is,
state computed lazily on the first call included.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqrel import infer as I  # noqa: E402


def main(bundle_path: str, query_path: str) -> int:
    query = pickle.loads(Path(query_path).read_bytes())
    start = time.perf_counter()
    result = I.score(I.load_bundle(bundle_path), query)
    seconds = time.perf_counter() - start
    print(json.dumps({"setup_s": seconds, "score": result.score}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
