"""`python -m nhmorse`: the nhmorse command line."""

from .cli import main

raise SystemExit(main())
