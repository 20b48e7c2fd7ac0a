"""cascor's benchmark: workloads, tracing and output checks (see NOTES.md)."""
