"""Repository-root pytest hook file.

Its presence makes pytest put the repository root on ``sys.path`` for any
invocation from here (``pytest``, ``python -m pytest``), so the tier-1
tests can import the frozen seed-kernel oracle as
``benchmarks._seed_reference`` — the module the kernel benchmark imports
as ``_seed_reference``.
"""
