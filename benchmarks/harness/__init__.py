"""One benchmark harness for the BlinkML reproduction (see README.md)."""
