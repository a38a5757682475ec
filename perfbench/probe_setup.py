"""Set-up probe: the work a `gfclust run` child does before its first solve.

    python probe_setup.py CONFIG

Imports gfclust, loads the config, builds the dataset (synthetic or from the
manifest) and normalizes it, then exits. The benchmark times this process
from the outside as `setup_s`.
"""

import sys

from gfclust import cli, data


def main(config_path: str) -> int:
    cfg = cli.load_config(config_path)
    if cfg.manifest is not None:
        ds = data.load_dataset(cfg.manifest)
    else:
        ds = data.generate_synthetic(cfg.synthetic)
    data.normalize_views(ds, cfg.normalize)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
