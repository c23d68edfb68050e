"""Repository benchmark: workloads, layer tracing and the command that runs them."""
