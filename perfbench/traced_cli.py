"""Run one itmflow command line in-process with tracing on.

``python perfbench/traced_cli.py <itmflow arguments>`` prints one JSON
object: the exit status, the command's stdout, and the recorded spans.
"""

import json
import sys

import tracing

tracer = tracing.Tracer()
status, stdout = tracing.traced_cli_main(tracer, sys.argv[1:])
print(json.dumps({"status": status, "stdout": stdout, "spans": tracer.export()}))
