"""Run the command line as a module: python3 -m actionvar table1 ..."""

import sys

from .cli import main

sys.exit(main())
