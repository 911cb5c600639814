"""One shared analysis per n for the whole test session.

`partition_axis.analyze` recomputes on every call. Many tests read the
same few n, so the tests that read analyses directly import this memo
instead; tests of `run_range`, `verify_range`, `export_graph` and the
CLI go through the uncached library, as every program run does.
"""

from functools import cache

import partition_axis

analyze = cache(partition_axis.analyze)
