import gc
import sys

from .cli import main

status = main()
# Interpreter teardown would collect again the objects left from start-up
# (about 13k, made by the interpreter's start-up and the imports);
# frozen, the collector skips them. Exit status, atexit handlers and flushes
# stay as they were; a SIGTERM raises out of main before this line.
gc.freeze()
sys.exit(status)
