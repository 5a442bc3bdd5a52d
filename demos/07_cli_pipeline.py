"""The command-line pipeline end to end, in a temporary directory.

Every subcommand reads and writes plain CSV/key-value files, takes its
settings from a small config file, and is deterministic given the seed, so
a whole study can be scripted and re-run byte for byte.  This driver calls
the installed console entry in-process and shows the files it leaves
behind.
"""

import os
import tempfile

from lqmatern.cli_io import main


def run(*argv):
    print("\n$ lqmatern " + " ".join(argv))
    code = main(list(argv))
    print("(exit %d)" % code)
    return code


def demo(workdir):
    os.environ["LQMATERN_OUT"] = workdir
    print("working in", workdir)

    # --- simulate a small contaminated dataset ------------------------------

    cfg_path = os.path.join(workdir, "study.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("""\
sim.theta = 1.0, 0.1, 0.5
sim.n = 49
sim.m = 60
sim.layout = grid
sim.seed = 5
sim.contam.r = 0.1
sim.contam.sd = 1.0
fit.tol = 1e-4
""")

    run("simulate", "--config", cfg_path)
    # fit writes fit.txt and se.txt, the sandwich at its own theta-hat and q
    run("fit", "--config", cfg_path, "--q", "0.95", "--data-dir", workdir)
    run("variogram", "--config", cfg_path, "--data-dir", workdir)
    run("select-q", "--config", cfg_path, "--selector", "kappa",
        "--data-dir", workdir)

    # --- what landed on disk ------------------------------------------------

    print("\nfiles written:")
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        print("  %-14s %6d bytes" % (name, os.path.getsize(path)))

    for name in ("fit.txt", "se.txt", "selectq.txt"):
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            print("\n--- %s ---" % name)
            with open(path) as fh:
                print(fh.read().rstrip())

    print("\nmeta.txt doubles as a config: rerunning `simulate --config meta.txt`")
    print("into a fresh directory reproduces the dataset byte for byte.")


# the directory and everything the pipeline wrote to it are removed on exit
with tempfile.TemporaryDirectory(prefix="lqmatern_demo_") as tmp:
    demo(tmp)
