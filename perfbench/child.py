"""One measured pass, run in a fresh process by run.py.

    python child.py [--trace SPANS] catalog DEPTH MAX_DIM MAX_ELEMS OUT
    python child.py [--trace SPANS] shapes COMMANDS OUT
    python child.py [--trace SPANS] verify OUT ARGV...

`ogpkit` must be importable (run.py puts the checkout's src/ on
PYTHONPATH).  Untraced verify passes do not come through here: run.py
starts `python -m ogpkit verify ...` itself, as a user would.  With
--trace, the wrappers in tracer.py are installed before the pass and the
spans are written to SPANS after it.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time


def catalog_pass(depth, max_dim, max_elems, out):
    from ogpkit import harness

    catalog = harness.enumerate_catalog(
        harness.Bounds(int(depth), int(max_dim), int(max_elems)))
    with open(out, "w") as fh:
        json.dump([e.expr for e in catalog.entries], fh)


def run_command(cli, argv):
    """Run one command as `ogpkit ARGV` would; returns (exit code, stdout
    bytes, seconds).  A crash is exit code -1."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, not a failed run
        code = -1
    finally:
        elapsed = time.perf_counter() - t0
        out.flush()
        sys.stdout, sys.stderr = saved
    data = buf.getvalue()
    out.detach()
    return code, data, elapsed


def shapes_pass(commands, out):
    from ogpkit import cli

    with open(commands) as fh:
        argvs = json.load(fh)
    results = []
    for argv in argvs:
        code, data, elapsed = run_command(cli, argv)
        results.append([code, hashlib.sha256(data).hexdigest(), elapsed])
    with open(out, "w") as fh:
        json.dump(results, fh)


def verify_pass(out, *argv):
    from ogpkit import cli

    code, data, _ = run_command(cli, list(argv))
    with open(out, "wb") as fh:
        fh.write(data)
    return code


MODES = {"catalog": catalog_pass, "shapes": shapes_pass, "verify": verify_pass}


def main(argv):
    spans = None
    if argv[:1] == ["--trace"]:
        spans, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    tracer = None
    if spans is not None:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    code = MODES[mode](*args) or 0
    if tracer is not None:
        tracer.write(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
