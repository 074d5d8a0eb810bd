"""The ``toolrouter`` console script, also run as ``python -m toolrouter``.

numpy's BLAS starts one thread per core, and on the pipeline's small matrix
products (``build_graph``'s screen blocks) extra threads cost more than they
save. So each BLAS thread variable the caller has not set is set to one
before the CLI, and with it numpy, is imported.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from .cli import main  # noqa: E402  (numpy reads the variables when it is first imported)

if __name__ == "__main__":
    main()
