"""`python -m reanneal_rl`: the reanneal-rl command line."""

from .cli import main

main()
