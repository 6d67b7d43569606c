#!/usr/bin/env python3
"""Build and run hetpipe's end-to-end benchmark.

Usage, from the root of a hetpipe checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the Go program in this directory (a module of its own that
imports the hetpipe module in the parent directory) into .bench_build/ at the
checkout root, keeping the Go build cache there too, and then runs it with
the given arguments. A traced run also writes its spans to
.bench_build/spans-<workload>-seed<n>.json. The exit status is the
program's; a failed build exits with status 2 and prints no result.
"""

import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no hetpipe module (go.mod) next to %s" % here, file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        # Keep every file the Go toolchain writes inside the checkout, and
        # never reach for the network.
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = list(argv)
    if _flag(args, "--trace") == "1" and _flag(args, "--spans") is None:
        name = "spans-%s-seed%s.json" % (_flag(args, "--workload"), _flag(args, "--seed"))
        args += ["--spans", os.path.join(out, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args, env=env).returncode


def _flag(args, name):
    """Returns the value of --name in args (either form), or None."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
