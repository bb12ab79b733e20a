"""GetReal answer-time benchmark: workloads, tracer, oracle and metrics."""
