"""Child process: time dhcpguard's set-up in a fresh interpreter.

Usage: python3 setup_time.py REGISTRY_JSON

Prints the seconds spent importing the package, loading the bundled
sample rules and the registry, and building a Policy and a Pipeline.
Nothing but ``sys`` and ``time`` is imported before the clock starts.
"""

import sys
import time

start = time.perf_counter()

from dhcpguard import DhcpRegistry, Pipeline, Policy, load_signatures  # noqa: E402
from dhcpguard.signatures import sample_signatures_path  # noqa: E402

policy = Policy(
    version=1,
    registry=DhcpRegistry.load(sys.argv[1]),
    signatures=load_signatures(sample_signatures_path()),
)
Pipeline(policy)
elapsed = time.perf_counter() - start
print(repr(elapsed))
