"""`python -m manifold_landau ...` runs the `manifold-landau` command."""

import sys

from .cli import main

sys.exit(main())
