"""Survey the regenerated benchmarks: sizes, fault mix, and difficulty.

Builds the full ARepair-38 suite plus a sample of the Alloy4Fun benchmark
and prints their statistics.

Run with::

    python examples/benchmark_survey.py
"""

from repro.benchmarks import load_benchmark, render_stats, summarize


def main() -> None:
    arepair = load_benchmark("arepair", seed=0)
    alloy4fun = load_benchmark("alloy4fun", seed=0, scale=0.02)

    print(render_stats(summarize(arepair), "ARepair benchmark (full)"))
    print()
    print(render_stats(summarize(alloy4fun), "Alloy4Fun benchmark (2% sample)"))


if __name__ == "__main__":
    main()
