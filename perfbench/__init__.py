"""The repository benchmark: see NOTES.md and BENCHMARK.json."""
