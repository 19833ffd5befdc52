"""Run one hlslab CLI invocation in this interpreter with spans installed.

Usage: python3 traced_cli.py SPANS_FILE RUN_ID -- HLSLAB_ARGS...

Times `import hlslab.cli`, wraps the public functions (tracing.install),
calls hlslab.cli.main(HLSLAB_ARGS), removes the wrappers and writes the
spans as JSON lines after a header line; exits with main's return code.
"""

import json
import sys
import time


def main() -> int:
    spans_file, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    import hlslab.cli
    import_s = time.perf_counter() - t0

    import tracing
    rec = tracing.Recorder()
    patches, skipped = tracing.install(rec)
    try:
        rc = hlslab.cli.main(argv)
    finally:
        tracing.uninstall(patches)
    with open(spans_file, "w") as fh:
        fh.write(json.dumps({"run": run_id, "import_s": import_s,
                             "skipped": skipped, "rc": rc}) + "\n")
        for sid, parent, name, start, end, attrs in rec.spans:
            fh.write(json.dumps({"run": run_id, "id": sid, "parent": parent,
                                 "name": name, "start": start, "end": end,
                                 "attrs": attrs}) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
