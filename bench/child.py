"""One round of a workload in a fresh interpreter: `python3 child.py SPEC.json`.

Runs the workload's CLI commands through `mlfsi.cli.main` and writes a
record with monotonic timestamps (comparable with the launcher's clock),
the exit codes, peak resident memory and, when traced, the spans.
Untraced, the only thing wrapped is the work-phase entry function, whose
first call marks the end of set-up.
"""

import json
import resource
import sys
import time


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t_import = time.perf_counter()
    import mlfsi.cli as cli
    import_s = time.perf_counter() - t_import
    if not cli.__file__.startswith(spec["src"]):
        raise SystemExit(f"imported mlfsi from {cli.__file__}, not from {spec['src']}")

    import tracer as tracing

    marks = {}
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(spec["worker_dir"])
        tracing.install(tracer)
    module, func = spec["entry"].split(".")
    mod = sys.modules[f"mlfsi.{module}"]
    entry = getattr(mod, func)

    def write_record(**fields):
        fields.update(
            import_s=import_s,
            self_maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            workers_maxrss_kib=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            spans=tracer.spans if tracer else None,
        )
        with open(spec["record"], "w") as fh:
            json.dump(fields, fh)

    def marked(*args, **kwargs):
        marks.setdefault("entry", time.perf_counter())
        return entry(*args, **kwargs)

    tracing.replace_everywhere(entry, marked)

    codes = []
    for argv in spec["commands"]:
        codes.append(cli.main(argv))
        if codes[-1]:
            break
    write_record(entry=marks.get("entry"), end=time.perf_counter(), codes=codes)


if __name__ == "__main__":
    main()
