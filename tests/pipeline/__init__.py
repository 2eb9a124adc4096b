"""Pass-pipeline tests: artifact store, scheduling, sessions, batch, caching."""
