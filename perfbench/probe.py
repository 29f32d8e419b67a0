"""Set-up probe: time one cold import of harmext plus map construction.

Run in a fresh interpreter by ``run.py``:

    python3 perfbench/probe.py SRC_DIR MAP_DESCRIPTION...

Prints the seconds from before ``import harmext`` to after the last map is
built.  This is the cost a user pays before the first energy is computed.
"""

import sys
import time


def main(argv):
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    import harmext.cli  # noqa: F401  (pulls in every layer, scipy included)
    from harmext.circle_map import from_description
    for text in argv[1:]:
        from_description(text)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
