"""Regenerate ``reference.json``: the outputs the benchmark checks against.

Run from the repository root::

    python3 perfbench/make_reference.py --seeds 0 1 2 3 4 5 6 7 8 9

It stores the digest of one ``rfprotect run all --fast`` command (tables
without their ``finished in`` lines) and, per seed, the discriminator and
generator losses of the ``gan-step`` workload's timed steps, from the
first. Review the diff like any other change to expected
outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from hostinfo import pin_threads

pin_threads()

from common import REFERENCE_PATH, ROOT  # noqa: E402

#: gan-step losses stored per seed: more steps than one run fits.
GAN_STEPS = 16


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    import work_figures
    import work_gan
    from repro.nn import dtype_scope

    _, _, digest, _ = work_figures.Command(traced=False).run()
    if digest is None:
        print("rfprotect run all --fast failed", file=sys.stderr)
        return 1
    losses: dict[str, list[list[float]]] = {}
    for seed in args.seeds:
        with dtype_scope("float32"):
            trainer = work_gan.make_trainer(seed)
            for _ in range(GAN_STEPS):
                trainer.train(epochs=1)
        history = trainer.history
        losses[str(seed)] = [list(pair) for pair in zip(
            history.discriminator_losses, history.generator_losses)]
        print(f"seed {seed}: {losses[str(seed)][:2]} ...")
    document = {"figures": {"digest": digest}, "gan-step": losses}
    REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
