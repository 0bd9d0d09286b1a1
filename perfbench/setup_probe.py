"""Set-up probe: import the library and load the native kernel, then report.

``run.py`` times this whole process from spawn to exit as ``setup_s``
(interpreter start + imports + kernel load); the in-process split is
printed as one JSON line.
"""

from time import perf_counter

start = perf_counter()
import repro  # noqa: E402,F401
import repro.store.jobs  # noqa: E402,F401
import repro.store.store  # noqa: E402,F401
import repro.system.campaign  # noqa: E402,F401
import repro.system.sweep  # noqa: E402,F401
from repro.dram import _kernelc  # noqa: E402

imported = perf_counter()
native = _kernelc.available()
loaded = perf_counter()
print('{"import_s": %r, "kernel_load_s": %r, "native": %d}'
      % (imported - start, loaded - imported, native))
