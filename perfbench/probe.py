"""Set-up probe: cold `import gridball`, then cold make_field of each field.

Usage: python3 probe.py P^K [P^K ...], in a fresh process with gridball
importable.  Prints {"import_s": .., "make_field_s": ..} on stdout.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import gridball  # noqa: E402  (the import is what is timed)

imported = perf_counter()
for spec in sys.argv[1:]:
    p, k = spec.split("^")
    gridball.make_field(int(p), int(k))
done = perf_counter()
print(json.dumps({"import_s": imported - start, "make_field_s": done - imported}))
